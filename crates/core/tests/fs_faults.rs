//! The durability contract of the checkpoint store, exercised
//! against the seeded fault seam ([`cmp_common::fsx`]) and against
//! hand-corrupted files:
//!
//! * every injected fault class — torn write, ENOSPC, short read, bit
//!   flip, rename-then-crash — ends in one of exactly two outcomes: a
//!   **bit-identical** warm start, or a structured fallback (store
//!   error / quarantine) with the run continuing fresh. Never a panic,
//!   never silently wrong state;
//! * a restarted store rebuilds its index from disk, adopts completed
//!   spills, deletes `.tmp` residue, and warms the next run from the
//!   previous process's checkpoints without changing a single bit;
//! * corruption is quarantined (kept for forensics) under hard count
//!   and byte bounds, pruned oldest-first;
//! * the byte budget evicts oldest-first and never the newest file;
//! * one configuration spills once, however many campaigns, concurrent
//!   workers or restarts share it.

use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Duration;

use addr_compression::CompressionScheme;
use cmp_common::fsx::{Fs, FsFaultConfig};
use tcmp_core::supervisor::{run_supervised_cached, warm_key, RunPolicy};
use tcmp_core::{CmpSimulator, DiskConfig, DiskLoad, DiskStore, InterconnectChoice, SimConfig};
use wire_model::wires::VlWidth;
use workloads::profile::AppProfile;

const SEED: u64 = 0xD5A1_F00D;
const SCALE: f64 = 0.002;
const WARM: u64 = 20_000;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcmp-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn tiny_cfg() -> SimConfig {
    SimConfig::new(
        InterconnectChoice::Heterogeneous(VlWidth::FourBytes),
        CompressionScheme::Dbrc {
            entries: 16,
            low_bytes: 1,
        },
    )
}

fn app() -> AppProfile {
    workloads::apps::fft()
}

/// FFT's snapshot at the warm point.
fn warm_snapshot(cfg: &SimConfig) -> tcmp_core::MachineSnapshot {
    warm_snapshot_of(cfg, &app())
}

/// `a`'s simulator advanced to the warm point, snapshotted there.
fn warm_snapshot_of(cfg: &SimConfig, a: &AppProfile) -> tcmp_core::MachineSnapshot {
    let mut sim = CmpSimulator::new(cfg.clone(), a, SEED, SCALE);
    while sim.cycle() < WARM {
        assert!(sim.step().expect("prefix steps"), "prefix must not finish");
    }
    sim.snapshot()
}

fn policy() -> RunPolicy {
    RunPolicy {
        wall_deadline: Some(Duration::from_secs(300)),
        ..RunPolicy::default()
    }
}

/// Spill on one store, reopen a second store on the same root (a
/// process restart), and the warm start it serves is bit-identical:
/// same digest, same re-encoded bytes, and a supervised run warmed
/// from it produces exactly the cold run's numbers.
#[test]
fn warm_start_survives_restart_bit_identically() {
    let root = scratch_dir("restart");
    let cfg = tiny_cfg();
    let a = app();
    let key = warm_key(&cfg, &a, SEED, SCALE, WARM);

    // Cold reference: no cache at all.
    let (cold, _) = run_supervised_cached(cfg.clone(), &a, SEED, SCALE, &policy(), None)
        .expect("cold run completes");

    // First lifetime: simulate the prefix, spill to disk.
    {
        let store = DiskStore::open(Fs::real(), &root, DiskConfig::default()).expect("open");
        let (first, _) = run_supervised_cached(
            cfg.clone(),
            &a,
            SEED,
            SCALE,
            &policy(),
            Some((&store, WARM)),
        )
        .expect("first run completes");
        assert_eq!(first.cycles, cold.cycles, "caching never changes numbers");
        let d = store.counters();
        assert_eq!(d.stores, 1, "one spill");
    }

    // Second lifetime, same root. The disk file must warm the run and
    // the result must match the cold one bit for bit.
    let store = DiskStore::open(Fs::real(), &root, DiskConfig::default()).expect("reopen");
    assert!(store.contains(&key), "restart scan adopts the spill");
    let (second, warm) = run_supervised_cached(
        cfg.clone(),
        &a,
        SEED,
        SCALE,
        &policy(),
        Some((&store, WARM)),
    )
    .expect("second run completes");
    assert_eq!(
        warm.label(),
        "warmed",
        "the restarted process warm-starts from disk"
    );
    assert_eq!(second.cycles, cold.cycles);
    assert_eq!(second.time_s.to_bits(), cold.time_s.to_bits());
    assert_eq!(second.network_messages, cold.network_messages);
    let d = store.counters();
    assert_eq!((d.hits, d.quarantined), (1, 0));
    // The verified state also re-encodes to the digest it was stored
    // under: nothing drifted on the way through the file.
    let mut template = warm_snapshot(&cfg);
    let direct = warm_snapshot(&cfg);
    assert!(matches!(
        store.load_into(&key, &mut template),
        DiskLoad::Hit
    ));
    assert_eq!(template.digest(), direct.digest());
    assert_eq!(template.save_bytes(), direct.save_bytes());
}

/// The fault matrix: each injectable class, armed at certainty, against
/// the spill and load sites, for FFT and MP3D. The invariant under
/// every fault is the same — no panic, and either a verified
/// bit-identical hit or a structured fallback that leaves the store
/// usable: a faulted spill is a counted store error, a faulted read a
/// counted quarantine.
#[test]
fn every_fault_class_degrades_to_structured_fallback_never_panic() {
    let cfg = tiny_cfg();
    // (spec, expect_spill_to_fail)
    let classes: &[(&str, bool)] = &[
        ("seed=1,torn=1,max=1", true),
        ("seed=2,enospc=1,max=1", true),
        // Rename-then-crash reports failure but the complete file lands
        // on disk; the store counts an error and the next scan adopts
        // the orphan — both outcomes are legitimate.
        ("seed=3,rename=1,max=1", true),
        ("seed=4,short=1,max=1", false),
        ("seed=5,flip=1,max=1", false),
    ];
    for a in [app(), workloads::apps::mp3d()] {
        let key = warm_key(&cfg, &a, SEED, SCALE, WARM);
        let good = warm_snapshot_of(&cfg, &a);
        for (spec, spill_fails) in classes {
            let root = scratch_dir(&format!(
                "fault-{}-{}",
                a.name,
                spec.split(',').nth(1).unwrap().replace('=', "")
            ));
            let fs = Fs::faulty(FsFaultConfig::parse(spec).expect("spec parses"));
            let spec = format!("{spec} on {}", a.name);
            let store = DiskStore::open(fs, &root, DiskConfig::default())
                .unwrap_or_else(|e| panic!("{spec}: open must survive an armed seam: {e}"));

            store.store(&key, &good);
            let c = store.counters();
            if *spill_fails {
                assert_eq!(
                    (c.stores, c.store_errors),
                    (0, 1),
                    "{spec}: the faulted spill is a counted store error"
                );
                assert!(
                    !root.join(format!("{}-{:016x}.ckpt", key.0, key.1)).exists()
                        || spec.contains("rename"),
                    "{spec}: no torn checkpoint may be left in place"
                );
            } else {
                assert_eq!((c.stores, c.store_errors), (1, 0), "{spec}: spill is clean");
            }

            // Load through the (possibly exhausted) seam. With max=1 the
            // fault budget is spent on the write classes, so those see
            // either a miss (nothing persisted) or, for rename-crash, a
            // miss now and an orphan adopted at next scan; the read
            // classes (short, flip) corrupt this read and MUST
            // quarantine.
            let mut template = warm_snapshot_of(&cfg, &a);
            match store.load_into(&key, &mut template) {
                DiskLoad::Hit => {
                    assert!(*spill_fails, "{spec}: a faulted read must not hit");
                    assert_eq!(
                        template.save_bytes(),
                        good.save_bytes(),
                        "{spec}: a hit must be bit-identical"
                    );
                }
                DiskLoad::Miss => assert!(
                    *spill_fails,
                    "{spec}: a clean spill must not be lost on load"
                ),
                DiskLoad::Quarantined => {
                    let c = store.counters();
                    assert_eq!(c.quarantined, 1, "{spec}: quarantine is counted");
                    let (files, bytes) = store.quarantine_usage();
                    assert!(
                        files == 1 && bytes > 0,
                        "{spec}: the corrupt artifact is preserved for forensics"
                    );
                }
            }

            // After the fault budget is spent the store must work: spill
            // and warm a fresh key end to end.
            store.store(&key, &good);
            let mut template = warm_snapshot_of(&cfg, &a);
            match store.load_into(&key, &mut template) {
                DiskLoad::Hit => assert_eq!(template.digest(), good.digest()),
                other => panic!(
                    "{spec}: post-budget store+load must hit, got {}",
                    match other {
                        DiskLoad::Miss => "miss",
                        DiskLoad::Quarantined => "quarantined",
                        DiskLoad::Hit => unreachable!(),
                    }
                ),
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

/// Hand-corrupted files — truncation, bit rot, wrong magic, a file
/// renamed under the wrong key — are all quarantined with the caller
/// falling back to a miss-equivalent, and a restart scan applies the
/// same judgement to what it finds on disk.
#[test]
fn hand_corrupted_files_are_quarantined_on_load_and_on_scan() {
    let cfg = tiny_cfg();
    let a = app();
    let key = warm_key(&cfg, &a, SEED, SCALE, WARM);
    let good = warm_snapshot(&cfg);
    let path_of = |root: &PathBuf| root.join(format!("{}-{:016x}.ckpt", key.0, key.1));

    type Corruption = (&'static str, fn(&mut Vec<u8>));
    let corruptions: &[Corruption] = &[
        ("truncate", |b| b.truncate(b.len() / 2)),
        ("bitrot", |b| {
            let mid = b.len() / 2;
            b[mid] ^= 0x40;
        }),
        ("magic", |b| b[0] ^= 0xFF),
    ];
    for (tag, corrupt) in corruptions {
        let root = scratch_dir(&format!("corrupt-{tag}"));
        {
            let store = DiskStore::open(Fs::real(), &root, DiskConfig::default()).unwrap();
            store.store(&key, &good);
        }
        let path = path_of(&root);
        let mut bytes = std::fs::read(&path).expect("read spill");
        corrupt(&mut bytes);
        std::fs::write(&path, &bytes).expect("corrupt spill");

        // A scan-time detection (short of injected read faults the scan
        // reads clean bytes, so it sees the corruption immediately)…
        let store = DiskStore::open(Fs::real(), &root, DiskConfig::default()).unwrap();
        assert!(
            !store.contains(&key),
            "{tag}: scan must not adopt a corrupt file"
        );
        // …moves the artifact to quarantine and leaves the slot empty.
        let (files, _) = store.quarantine_usage();
        assert_eq!(files, 1, "{tag}: artifact preserved");
        assert!(!path.exists(), "{tag}: corrupt file removed from the store");
        let mut template = warm_snapshot(&cfg);
        assert!(
            matches!(store.load_into(&key, &mut template), DiskLoad::Miss),
            "{tag}: after quarantine the key is a plain miss"
        );
    }

    // A structurally valid file filed under the wrong name: the header
    // key wins and the file is quarantined at scan.
    let root = scratch_dir("corrupt-wrongname");
    {
        let store = DiskStore::open(Fs::real(), &root, DiskConfig::default()).unwrap();
        store.store(&key, &good);
    }
    let wrong = root.join(format!("{}-{:016x}.ckpt", key.0, key.1 + 1));
    std::fs::rename(path_of(&root), &wrong).expect("misfile");
    let store = DiskStore::open(Fs::real(), &root, DiskConfig::default()).unwrap();
    assert!(!store.contains(&(key.0.clone(), key.1 + 1)));
    assert_eq!(store.quarantine_usage().0, 1);
}

/// The quarantine is bounded: beyond the configured file count the
/// oldest artifacts are pruned (and counted), never the newest.
#[test]
fn quarantine_is_pruned_oldest_first_under_its_bounds() {
    let root = scratch_dir("qbound");
    let cfg = tiny_cfg();
    let a = app();
    let good = warm_snapshot(&cfg);
    let disk_cfg = DiskConfig {
        quarantine_max_files: 2,
        ..DiskConfig::default()
    };
    let store = DiskStore::open(Fs::real(), &root, disk_cfg).unwrap();
    for i in 0..5u64 {
        let key = warm_key(&cfg, &a, SEED + i, SCALE, WARM);
        store.store(&key, &good);
        let path = root.join(format!("{}-{:016x}.ckpt", key.0, key.1));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let mut template = warm_snapshot(&cfg);
        assert!(matches!(
            store.load_into(&key, &mut template),
            DiskLoad::Quarantined
        ));
    }
    let c = store.counters();
    assert_eq!(c.quarantined, 5);
    assert_eq!(c.quarantine_pruned, 3, "three oldest pruned");
    let (files, _) = store.quarantine_usage();
    assert_eq!(files, 2, "bound holds");
    let kept: Vec<String> = std::fs::read_dir(root.join("quarantine"))
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(kept.len(), 2);
    assert!(
        kept.iter().all(|n| n.starts_with("q0000000")),
        "sequence-stamped names: {kept:?}"
    );
    let mut sorted = kept.clone();
    sorted.sort();
    assert!(
        sorted[0].as_str() > "q00000003",
        "the survivors are the newest artifacts: {sorted:?}"
    );
}

/// FIFO byte-budget eviction: oldest spills go first, the newest is
/// kept even when it alone exceeds the budget.
#[test]
fn byte_budget_evicts_oldest_and_never_the_newest() {
    let root = scratch_dir("evict");
    let cfg = tiny_cfg();
    let a = app();
    let good = warm_snapshot(&cfg);
    let one_file = {
        let probe = scratch_dir("evict-probe");
        let store = DiskStore::open(Fs::real(), &probe, DiskConfig::default()).unwrap();
        store.store(&warm_key(&cfg, &a, SEED, SCALE, WARM), &good);
        store.counters().resident_bytes
    };
    assert!(one_file > 0);
    // Room for two files, not three.
    let disk_cfg = DiskConfig {
        byte_budget: one_file * 2 + one_file / 2,
        ..DiskConfig::default()
    };
    let store = DiskStore::open(Fs::real(), &root, disk_cfg).unwrap();
    let keys: Vec<_> = (0..3u64)
        .map(|i| warm_key(&cfg, &a, SEED + i, SCALE, WARM))
        .collect();
    for key in &keys {
        store.store(key, &good);
    }
    let c = store.counters();
    assert_eq!(c.evicted, 1, "one eviction to fit the third spill");
    assert!(!store.contains(&keys[0]), "oldest evicted");
    assert!(store.contains(&keys[1]) && store.contains(&keys[2]));

    // A budget smaller than a single checkpoint still keeps the newest.
    let tiny_root = scratch_dir("evict-tiny");
    let tiny = DiskStore::open(
        Fs::real(),
        &tiny_root,
        DiskConfig {
            byte_budget: 1,
            ..DiskConfig::default()
        },
    )
    .unwrap();
    tiny.store(&keys[0], &good);
    tiny.store(&keys[1], &good);
    assert!(
        tiny.contains(&keys[1]),
        "the newest spill survives any budget"
    );
    assert!(!tiny.contains(&keys[0]));
}

/// One configuration simulates its prefix once, ever: a second store of
/// the same key — same campaign, another campaign, or after a restart —
/// is a counted dedup skip, and `.tmp` residue from a crashed spill is
/// swept at scan.
#[test]
fn spills_dedup_by_key_and_scan_sweeps_tmp_residue() {
    let root = scratch_dir("dedup");
    let cfg = tiny_cfg();
    let a = app();
    let key = warm_key(&cfg, &a, SEED, SCALE, WARM);
    let good = warm_snapshot(&cfg);
    {
        let store = DiskStore::open(Fs::real(), &root, DiskConfig::default()).unwrap();
        store.store(&key, &good);
        store.store(&key, &good);
        let c = store.counters();
        assert_eq!((c.stores, c.dedup_skips), (1, 1));
    }
    // A crashed predecessor's torn spill…
    let residue = root.join("deadbeef00000000-0000000000004e20.1.tmp");
    std::fs::write(&residue, b"half a checkpoint").unwrap();
    let store = DiskStore::open(Fs::real(), &root, DiskConfig::default()).unwrap();
    assert!(!residue.exists(), "scan sweeps .tmp residue");
    // …while the completed spill is adopted and still dedups.
    store.store(&key, &good);
    let c = store.counters();
    assert_eq!((c.stores, c.dedup_skips, c.resident_files), (0, 1, 1));
}

/// Concurrent stores of one key — two campaigns missing a shared cell
/// at the same moment — spill it once: the others are dedup skips, the
/// resident byte count is the one file's length, and no `.tmp` residue
/// is left behind.
#[test]
fn concurrent_stores_of_one_key_spill_it_once() {
    const THREADS: usize = 4;
    let root = scratch_dir("race");
    let cfg = tiny_cfg();
    let key = warm_key(&cfg, &app(), SEED, SCALE, WARM);
    let good = warm_snapshot(&cfg);
    let store = DiskStore::open(Fs::real(), &root, DiskConfig::default()).unwrap();
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                start.wait();
                store.store(&key, &good);
            });
        }
    });
    let c = store.counters();
    assert_eq!(c.stores, 1, "one spill");
    assert_eq!(
        c.dedup_skips,
        THREADS as u64 - 1,
        "the rest are dedup skips"
    );
    assert_eq!(c.resident_files, 1);
    let file = root.join(format!("{}-{:016x}.ckpt", key.0, key.1));
    assert_eq!(
        c.resident_bytes,
        std::fs::metadata(&file).expect("the spilled file").len(),
        "resident bytes count the one file once"
    );
    let residue: Vec<_> = std::fs::read_dir(&root)
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
        .collect();
    assert!(residue.is_empty(), "no .tmp residue: {residue:?}");
}

/// CSV finalisation through the seam is atomic under injected faults:
/// a torn write or ENOSPC surfaces as an error while the target path
/// holds either the previous complete rendering or nothing — never a
/// prefix.
#[test]
fn csv_finalisation_is_atomic_under_injected_faults() {
    let root = scratch_dir("csv");
    let mut t = tcmp_core::report::TableBuilder::new("Demo", &["app", "value"]);
    t.row(vec!["FFT".into(), "0.78".into()]);
    let target = root.join("results.csv");

    // Establish a good version first.
    t.write_csv_stamped_on(&Fs::real(), &target, "stamp-v1")
        .expect("clean write");
    let v1 = std::fs::read_to_string(&target).unwrap();
    assert!(v1.starts_with("# stamp-v1"));

    for spec in ["seed=11,torn=1,max=1", "seed=12,enospc=1,max=1"] {
        let fs = Fs::faulty(FsFaultConfig::parse(spec).unwrap());
        let err = t
            .write_csv_stamped_on(&fs, &target, "stamp-v2")
            .expect_err("injected fault must surface as an error");
        assert!(!err.to_string().is_empty());
        assert_eq!(
            std::fs::read_to_string(&target).unwrap(),
            v1,
            "{spec}: the previous complete CSV survives a faulted rewrite"
        );
    }

    // Budget spent: the rewrite goes through and replaces atomically.
    let fs = Fs::faulty(FsFaultConfig::parse("seed=11,torn=1,max=0").unwrap());
    t.write_csv_stamped_on(&fs, &target, "stamp-v3").unwrap();
    assert!(std::fs::read_to_string(&target)
        .unwrap()
        .starts_with("# stamp-v3"));
}
