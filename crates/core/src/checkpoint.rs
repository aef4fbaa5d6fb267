//! Content-addressed, self-verifying store of warm-start checkpoints.
//!
//! Every cell of a figure matrix begins with the same cold-start
//! transient for a given (machine, app, seed, scale) tuple: caches
//! filling, codecs training, cores marching to the first barrier. The
//! first run to reach the warm point stores its [`MachineSnapshot`] in
//! a [`DiskStore`] under a key derived from the *full* run
//! configuration, and every later run sharing the prefix — repeated
//! submissions of a figure, a fig6 and a fig7 campaign over the same
//! specs, a restarted service — skips straight to the warm point.
//!
//! Robustness is the design driver, in the spirit of compressed caches
//! that carry integrity metadata so a decode failure falls back to the
//! uncompressed path instead of corrupting data:
//!
//! * **Keyed by content, not by name.** The key fingerprints the whole
//!   [`SimConfig`](crate::sim::SimConfig) (machine, interconnect,
//!   scheme, fault campaign, sanitizer, watchdog — everything that
//!   shapes the prefix) plus the app, seed and scale. Two runs get the
//!   same checkpoint only if their prefixes are provably the same
//!   simulation. The file name is derived from the key, so two
//!   campaigns (or two service lifetimes) share one file.
//! * **Verified at load.** A snapshot carries the checksum of its own
//!   header and state ([`MachineSnapshot::digest`], recorded at
//!   capture); [`DiskStore::load`] checks the file header and the key,
//!   and parsing the snapshot recomputes the checksum — once, so the
//!   restore that follows trusts it. A file that fails *any* check — torn,
//!   truncated, bit-flipped, renamed, from a different key — is moved
//!   to a bounded quarantine directory (counted in
//!   [`DiskCounters::quarantined`]) and the load returns
//!   [`CacheLoad::Quarantined`], so the cell falls back to a fresh
//!   simulation. Corruption can cost time, never numbers.
//! * **Durable and bounded.** Files are written atomically (temp file →
//!   fsync → rename) through the [`cmp_common::fsx`] seam and evicted
//!   oldest-first beyond a byte budget.
//!
//! The store is the only tier: loading a page-cached file costs within
//! a tenth of a millisecond of copying a snapshot held in memory, on
//! cells that run for tens of milliseconds.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use cmp_common::fsx::Fs;
use cmp_common::persist::{ByteReader, ByteWriter, Persist};
use cmp_common::types::Cycle;

use crate::engine::MachineSnapshot;

/// Store key: (configuration fingerprint, warm-point cycle). Built by
/// [`crate::supervisor::warm_key`].
pub type WarmKey = (String, Cycle);

/// Outcome of [`DiskStore::load`].
pub enum CacheLoad {
    /// A checkpoint that passed every check; restore it and go.
    Hit(Box<MachineSnapshot>),
    /// Nothing stored under this key.
    Miss,
    /// A checkpoint was stored but failed verification: it has been
    /// quarantined and counted; the caller must simulate fresh.
    Quarantined,
}

/// `"TCKP"` as a little-endian `u32`.
const MAGIC: u32 = u32::from_le_bytes(*b"TCKP");

/// Bump on any change to the on-disk layout; a version mismatch
/// quarantines the file rather than guessing at its layout. (1: machine
/// digest + payload checksum + headerless state; 2: the
/// self-checksummed [`MachineSnapshot`] encoding; 3: one-byte LRU ages
/// instead of clock stamps in cache arrays and DBRC lanes, and resync
/// windows written as held, empty until first used; 4: NoC input rings
/// written as held, flits on links included, with no link queue.)
pub const VERSION: u32 = 4;

/// Sizing and quarantine bounds of one [`DiskStore`].
#[derive(Clone, Debug)]
pub struct DiskConfig {
    /// Resident `.ckpt` bytes beyond which the oldest-stored files are
    /// evicted (the newest is always kept, even over budget).
    pub byte_budget: u64,
    /// Most quarantined artifacts kept, by count.
    pub quarantine_max_files: usize,
    /// Most quarantined artifacts kept, by total bytes.
    pub quarantine_max_bytes: u64,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            byte_budget: 2 << 30,
            quarantine_max_files: 16,
            quarantine_max_bytes: 256 << 20,
        }
    }
}

/// Outcome of [`DiskStore::load_into`]; on `Hit` the caller's snapshot
/// has been replaced by the verified one from disk.
pub enum DiskLoad {
    /// File header and snapshot checksum verified.
    Hit,
    /// No file for this key.
    Miss,
    /// A file existed but failed verification; it has been moved to
    /// quarantine and the caller must simulate fresh.
    Quarantined,
}

/// Lifetime counters of one [`DiskStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskCounters {
    /// Checkpoint files written (tmp → fsync → rename completed).
    pub stores: u64,
    /// Stores skipped because the key's file was already resident or
    /// being written — cross-campaign (and cross-restart) dedup by warm
    /// key.
    pub dedup_skips: u64,
    /// Spill attempts that failed (torn write, ENOSPC, rename crash);
    /// the run continues unaffected, the tmp residue is removed.
    pub store_errors: u64,
    /// Loads that verified end-to-end and returned a snapshot.
    pub hits: u64,
    /// Loads that found no file.
    pub misses: u64,
    /// Files that failed verification and were quarantined.
    pub quarantined: u64,
    /// Files evicted by the byte budget.
    pub evicted: u64,
    /// Quarantined artifacts pruned by the quarantine bounds.
    pub quarantine_pruned: u64,
    /// `.ckpt` files currently resident.
    pub resident_files: u64,
    /// Bytes currently resident in `.ckpt` files.
    pub resident_bytes: u64,
}

struct DiskEntry {
    bytes: u64,
}

struct DiskInner {
    index: HashMap<WarmKey, DiskEntry>,
    /// Keys whose spill is in flight, reserved by the store that checked
    /// them so a concurrent store of the same key is a dedup skip.
    spilling: HashSet<WarmKey>,
    /// Store order by sequence number, oldest first.
    order: VecDeque<WarmKey>,
    next_seq: u64,
    resident_bytes: u64,
    counters: DiskCounters,
    /// Quarantined artifacts, oldest first: `(path, bytes)`.
    quarantine: VecDeque<(PathBuf, u64)>,
    quarantine_bytes: u64,
    quarantine_seq: u64,
    quarantine_warned: bool,
}

/// The checkpoint store: content-addressed `.ckpt` files under
/// one root directory, written atomically through the
/// [`cmp_common::fsx`] seam, verified exhaustively at load, quarantined
/// (bounded) on any mismatch, evicted FIFO under a byte budget.
///
/// The file name is derived from the warm key —
/// `<config fingerprint>-<warm cycle in hex>.ckpt` — so a lookup is one
/// path construction and two campaigns (or two service lifetimes)
/// sharing a cell's configuration share one file: the prefix is
/// simulated once per *configuration*, not once per process.
///
/// File layout (all little-endian, via the `persist` byte codec):
///
/// | field          | type        | covers                               |
/// |----------------|-------------|--------------------------------------|
/// | magic `"TCKP"` | `u32`       | this is a checkpoint file at all     |
/// | version        | `u32`       | layout compatibility                 |
/// | store sequence | `u64`       | FIFO eviction order across restarts  |
/// | warm cycle     | `u64`       | key match (belt)                     |
/// | key fingerprint| `str`       | key match (braces)                   |
/// | snapshot       | (to the end)| `MachineSnapshot::save_bytes`: its   |
/// |                |             | header, its FNV-64, its state        |
///
/// The one checksum is the snapshot's own, over its header and every
/// state byte, and it is recomputed exactly once per read, where the
/// snapshot's bytes are parsed: it catches arbitrary corruption (bit
/// rot, torn writes, short reads) at scan and at load, *before*
/// anything is decoded. Decoding happens where the state is used — in
/// [`crate::CmpSimulator::try_restore`], which refuses foreign
/// shapes with structured errors — and the warm-start path then
/// re-encodes the restored machine and compares, which catches anything
/// that decodes cleanly but is not the state that was stored. A failure
/// at any layer quarantines the file and the run falls back to a fresh
/// simulation.
pub struct DiskStore {
    fs: Fs,
    root: PathBuf,
    quarantine_dir: PathBuf,
    cfg: DiskConfig,
    inner: Mutex<DiskInner>,
}

/// A parsed `.ckpt` file; its snapshot's checksum held when parsed.
struct CkptFile {
    seq: u64,
    key: WarmKey,
    snap: MachineSnapshot,
}

fn encode_file(seq: u64, key: &WarmKey, snap: &MachineSnapshot) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(MAGIC);
    w.u32(VERSION);
    w.u64(seq);
    w.u64(key.1);
    w.str(&key.0);
    snap.save(&mut w);
    w.into_bytes()
}

/// Parse a `.ckpt` file's bytes; parsing the snapshot verifies its
/// checksum. Structured errors, never a panic, whatever the input.
fn parse_file(bytes: &[u8]) -> Result<CkptFile, String> {
    let mut r = ByteReader::new(bytes);
    if r.u32().map_err(|e| e.to_string())? != MAGIC {
        return Err("bad magic (not a checkpoint file, or a torn header)".to_string());
    }
    let version = r.u32().map_err(|e| e.to_string())?;
    if version != VERSION {
        return Err(format!(
            "layout version {version} (this build reads {VERSION})"
        ));
    }
    let seq = r.u64().map_err(|e| e.to_string())?;
    let warm_cycle = r.u64().map_err(|e| e.to_string())?;
    let key_fp = r.string().map_err(|e| e.to_string())?;
    let snap = MachineSnapshot::load(&mut r).map_err(|e| e.to_string())?;
    r.finish().map_err(|e| e.to_string())?;
    Ok(CkptFile {
        seq,
        key: (key_fp, warm_cycle),
        snap,
    })
}

fn file_stem(key: &WarmKey) -> String {
    format!("{}-{:016x}", key.0, key.1)
}

impl DiskStore {
    /// Open (or create) a store rooted at `root`. Scans existing
    /// `.ckpt` files — header and checksum, again at each load, since
    /// the file may rot in between — rebuilding the index and the FIFO
    /// order from their store sequences. Unparseable files are
    /// quarantined immediately; leftover `.tmp` spill residue from a
    /// crashed predecessor is deleted; the byte budget is enforced on
    /// what remains.
    pub fn open(fs: Fs, root: impl Into<PathBuf>, cfg: DiskConfig) -> io::Result<DiskStore> {
        let root = root.into();
        let quarantine_dir = root.join("quarantine");
        fs.create_dir_all(&quarantine_dir)?;
        let store = DiskStore {
            fs,
            root,
            quarantine_dir,
            cfg,
            inner: Mutex::new(DiskInner {
                index: HashMap::new(),
                spilling: HashSet::new(),
                order: VecDeque::new(),
                next_seq: 1,
                resident_bytes: 0,
                counters: DiskCounters::default(),
                quarantine: VecDeque::new(),
                quarantine_bytes: 0,
                quarantine_seq: 1,
                quarantine_warned: false,
            }),
        };
        store.scan()?;
        Ok(store)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DiskInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn path_for(&self, key: &WarmKey) -> PathBuf {
        self.root.join(format!("{}.ckpt", file_stem(key)))
    }

    fn scan(&self) -> io::Result<()> {
        // Seed the quarantine ledger first so scan-time quarantines
        // append after what a predecessor left (names are `q<seq>-…`,
        // zero-padded, so lexicographic order is age order).
        let mut quarantined: Vec<(PathBuf, u64)> = Vec::new();
        if let Ok(rd) = std::fs::read_dir(&self.quarantine_dir) {
            for e in rd.flatten() {
                let bytes = e.metadata().map(|m| m.len()).unwrap_or(0);
                quarantined.push((e.path(), bytes));
            }
        }
        quarantined.sort();
        {
            let mut inner = self.lock();
            for (path, bytes) in quarantined {
                let seq = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .and_then(|n| n.strip_prefix('q'))
                    .and_then(|n| n.split('-').next())
                    .and_then(|n| n.parse::<u64>().ok())
                    .unwrap_or(0);
                inner.quarantine_seq = inner.quarantine_seq.max(seq + 1);
                inner.quarantine_bytes += bytes;
                inner.quarantine.push_back((path, bytes));
            }
        }

        let mut found: Vec<PathBuf> = Vec::new();
        for e in std::fs::read_dir(&self.root)?.flatten() {
            let path = e.path();
            if !path.is_file() {
                continue;
            }
            match path.extension().and_then(|x| x.to_str()) {
                Some("ckpt") => found.push(path),
                // A `.tmp` here is the residue of a spill the previous
                // process never completed: worthless, delete it.
                Some("tmp") => {
                    let _ = self.fs.remove_file(&path);
                }
                _ => {}
            }
        }
        found.sort();
        let mut entries: Vec<(u64, WarmKey, u64)> = Vec::new();
        for path in found {
            // The scan reads through the fault seam too: an injected
            // short read or bit flip here quarantines the file exactly
            // as a load-time one would.
            let verdict = self
                .fs
                .read(&path)
                .map_err(|e| format!("reading: {e}"))
                .and_then(|bytes| parse_file(&bytes).map(|f| (f.key, f.seq, bytes.len() as u64)));
            match verdict {
                Ok((key, seq, bytes)) => {
                    if self.path_for(&key) != path {
                        self.quarantine_file(&path, "file name does not match its header key");
                        continue;
                    }
                    entries.push((seq, key, bytes));
                }
                Err(reason) => self.quarantine_file(&path, &reason),
            }
        }
        entries.sort_by_key(|(seq, _, _)| *seq);
        {
            let mut inner = self.lock();
            for (seq, key, bytes) in entries {
                inner.next_seq = inner.next_seq.max(seq + 1);
                inner.resident_bytes += bytes;
                inner.order.push_back(key.clone());
                inner.index.insert(key, DiskEntry { bytes });
            }
        }
        self.evict_to_budget();
        Ok(())
    }

    /// Whether a file for `key` is resident (index only; verification
    /// happens at load).
    pub fn contains(&self, key: &WarmKey) -> bool {
        self.lock().index.contains_key(key)
    }

    /// Spill `snap` under `key`: encode, write to a temp file, fsync,
    /// rename into place, then evict the oldest files beyond the byte
    /// budget. A key already resident or being spilled is a dedup skip
    /// (first simulation of a configuration wins — across campaigns,
    /// concurrent workers and restarts). Any write-path failure removes
    /// the temp residue, counts a store error and logs loudly; the
    /// caller's run is never failed by a spill.
    pub fn store(&self, key: &WarmKey, snap: &MachineSnapshot) {
        // Check and reserve the key under one lock: two workers missing
        // the same cell at once must not both spill it.
        let seq = {
            let mut inner = self.lock();
            if inner.index.contains_key(key) || !inner.spilling.insert(key.clone()) {
                inner.counters.dedup_skips += 1;
                return;
            }
            let seq = inner.next_seq;
            inner.next_seq += 1;
            seq
        };
        let bytes = encode_file(seq, key, snap);
        let path = self.path_for(key);
        let tmp = self.root.join(format!("{}.{}.tmp", file_stem(key), seq));
        let spill = (|| -> io::Result<()> {
            let mut f = self.fs.create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync()?;
            drop(f);
            self.fs.rename(&tmp, &path)
        })();
        if spill.is_err() {
            // Torn/ENOSPC residue must not look like a checkpoint
            // later; a rename-then-crash leaves a *complete* file
            // behind that the next scan will adopt — also fine.
            let _ = self.fs.remove_file(&tmp);
        }
        let mut inner = self.lock();
        inner.spilling.remove(key);
        match spill {
            Ok(()) => {
                inner.counters.stores += 1;
                inner.resident_bytes += bytes.len() as u64;
                inner.order.push_back(key.clone());
                inner.index.insert(
                    key.clone(),
                    DiskEntry {
                        bytes: bytes.len() as u64,
                    },
                );
                drop(inner);
                self.evict_to_budget();
            }
            Err(e) => {
                inner.counters.store_errors += 1;
                drop(inner);
                eprintln!(
                    "checkpoint spill failed for {} (run continues, nothing stored): {e}",
                    path.display()
                );
            }
        }
    }

    /// Look up `key`. A hit has passed the file header, the key match
    /// and the snapshot's checksum; on any verification failure
    /// (torn, bit-flipped, wrong key, unreadable) the file is
    /// quarantined first. Never panics, never returns unverified state.
    pub fn load(&self, key: &WarmKey) -> CacheLoad {
        let path = self.path_for(key);
        {
            let mut inner = self.lock();
            if !inner.index.contains_key(key) {
                inner.counters.misses += 1;
                return CacheLoad::Miss;
            }
        }
        // Reads go through the fault seam: short reads and bit flips
        // land here and must be caught below.
        let bytes = match self.fs.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // Evicted or removed behind our back; a miss, not an
                // error.
                self.forget(key);
                self.lock().counters.misses += 1;
                return CacheLoad::Miss;
            }
            Err(e) => {
                self.quarantine_key(key, &format!("reading: {e}"));
                return CacheLoad::Quarantined;
            }
        };
        let verdict = parse_file(&bytes).and_then(|f| {
            if f.key != *key {
                return Err(format!(
                    "header key {}-{:016x} does not match the requested key",
                    f.key.0, f.key.1
                ));
            }
            Ok(f.snap)
        });
        match verdict {
            Ok(snap) => {
                self.lock().counters.hits += 1;
                CacheLoad::Hit(Box::new(snap))
            }
            Err(reason) => {
                self.quarantine_key(key, &reason);
                CacheLoad::Quarantined
            }
        }
    }

    /// [`DiskStore::load`] for a caller that owns a snapshot to
    /// overwrite: on [`DiskLoad::Hit`], `out` is the stored snapshot.
    pub fn load_into(&self, key: &WarmKey, out: &mut MachineSnapshot) -> DiskLoad {
        match self.load(key) {
            CacheLoad::Hit(snap) => {
                *out = *snap;
                DiskLoad::Hit
            }
            CacheLoad::Miss => DiskLoad::Miss,
            CacheLoad::Quarantined => DiskLoad::Quarantined,
        }
    }

    /// Forget `key`'s index entry (file already gone).
    fn forget(&self, key: &WarmKey) {
        let mut inner = self.lock();
        if let Some(entry) = inner.index.remove(key) {
            inner.resident_bytes = inner.resident_bytes.saturating_sub(entry.bytes);
            inner.order.retain(|k| k != key);
        }
    }

    /// Throw out the checkpoint under `key`, counted like a load-time
    /// quarantine. Loads call it on a failed check, and so does
    /// [`crate::supervisor::run_supervised_cached`] when a verified hit
    /// still will not restore.
    pub fn quarantine_key(&self, key: &WarmKey, reason: &str) {
        let path = self.path_for(key);
        self.forget(key);
        self.lock().counters.quarantined += 1;
        self.quarantine_file(&path, reason);
    }

    /// Move a failed artifact into the quarantine directory (keeping it
    /// for forensics rather than deleting evidence), then prune the
    /// quarantine to its bounds, oldest first. Quarantine operations
    /// use the real rename/remove paths — cleanup must stay reliable
    /// even under an armed fault seam.
    fn quarantine_file(&self, path: &Path, reason: &str) {
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let qseq = {
            let mut inner = self.lock();
            let q = inner.quarantine_seq;
            inner.quarantine_seq += 1;
            q
        };
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("unnamed.ckpt");
        let dest = self.quarantine_dir.join(format!("q{qseq:08}-{name}"));
        eprintln!(
            "quarantined checkpoint {} -> {}: {reason}",
            path.display(),
            dest.display()
        );
        match std::fs::rename(path, &dest) {
            Ok(()) => {
                let mut inner = self.lock();
                inner.quarantine_bytes += bytes;
                inner.quarantine.push_back((dest, bytes));
            }
            Err(e) => {
                // Could not preserve it; removing is still mandatory so
                // the corrupt file cannot be re-adopted by a restart.
                let _ = std::fs::remove_file(path);
                eprintln!(
                    "could not move {} to quarantine ({e}); removed instead",
                    path.display()
                );
            }
        }
        self.prune_quarantine();
    }

    /// Enforce the quarantine bounds: drop the oldest artifacts beyond
    /// the file-count or byte cap. Warns loudly the first time pruning
    /// discards evidence.
    fn prune_quarantine(&self) {
        let mut inner = self.lock();
        let mut pruned = 0u64;
        while inner.quarantine.len() > self.cfg.quarantine_max_files
            || inner.quarantine_bytes > self.cfg.quarantine_max_bytes
        {
            let Some((path, bytes)) = inner.quarantine.pop_front() else {
                break;
            };
            inner.quarantine_bytes = inner.quarantine_bytes.saturating_sub(bytes);
            inner.counters.quarantine_pruned += 1;
            pruned += 1;
            let _ = std::fs::remove_file(&path);
        }
        if pruned > 0 && !inner.quarantine_warned {
            inner.quarantine_warned = true;
            eprintln!(
                "checkpoint quarantine exceeded its bounds ({} files / {} bytes): \
                 pruning oldest artifacts; corruption is frequent enough that \
                 evidence is being discarded — investigate the storage or the \
                 armed fault campaign",
                self.cfg.quarantine_max_files, self.cfg.quarantine_max_bytes
            );
        }
    }

    /// Evict oldest-stored files until the byte budget holds (the
    /// newest file is always kept: a budget smaller than one checkpoint
    /// must not make the store useless).
    fn evict_to_budget(&self) {
        let mut inner = self.lock();
        while inner.resident_bytes > self.cfg.byte_budget && inner.order.len() > 1 {
            let Some(key) = inner.order.pop_front() else {
                break;
            };
            if let Some(entry) = inner.index.remove(&key) {
                inner.resident_bytes = inner.resident_bytes.saturating_sub(entry.bytes);
                inner.counters.evicted += 1;
                let _ = self.fs.remove_file(self.path_for(&key));
            }
        }
    }

    /// Lifetime counters, with residency filled in.
    pub fn counters(&self) -> DiskCounters {
        let inner = self.lock();
        let mut c = inner.counters;
        c.resident_files = inner.index.len() as u64;
        c.resident_bytes = inner.resident_bytes;
        c
    }

    /// Quarantined artifacts currently kept: `(count, bytes)`.
    pub fn quarantine_usage(&self) -> (usize, u64) {
        let inner = self.lock();
        (inner.quarantine.len(), inner.quarantine_bytes)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

/// An in-memory map of snapshots. Nothing in the workspace
/// uses it: it stays only because the frozen `benchmark/` package times
/// its `load` for the `core.ckpt_mem_hit_us` ledger row. The next
/// `benchmark` PR drops it together with that row.
#[doc(hidden)]
pub struct CheckpointCache {
    map: Mutex<HashMap<WarmKey, MachineSnapshot>>,
}

impl CheckpointCache {
    /// An empty map; `capacity` is ignored.
    pub fn new(_capacity: usize) -> Self {
        CheckpointCache {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Store `snap` under `key`; a key already present keeps its entry.
    pub fn store(&self, key: WarmKey, snap: MachineSnapshot) {
        self.lock().entry(key).or_insert(snap);
    }

    /// Copy out the snapshot under `key`.
    pub fn load(&self, key: &WarmKey) -> CacheLoad {
        match self.lock().get(key) {
            Some(snap) => CacheLoad::Hit(Box::new(snap.clone())),
            None => CacheLoad::Miss,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<WarmKey, MachineSnapshot>> {
        self.map.lock().unwrap_or_else(|p| p.into_inner())
    }
}
