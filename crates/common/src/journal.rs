//! Durable campaign journal: crash-resumable bookkeeping for long
//! matrix sweeps.
//!
//! A multi-hour Figure-6/7 sweep must survive an OOM kill, a Ctrl-C or
//! a wedged cell without throwing away the finished work. The journal
//! makes every campaign binary restartable:
//!
//! * an **append-only JSONL file** (`journal.jsonl`) records one line
//!   per cell event — `start`, `finish` (with the cell's result row) or
//!   `fail` — flushed and fsynced per record, so the on-disk state is
//!   never more than one line behind the process;
//! * replaying the journal classifies every cell as *completed*
//!   (a `finish` record carries its result), *failed* (terminal `fail`)
//!   or *interrupted* (a `start` with no matching outcome — the cell
//!   that was mid-flight when the process died). A resumed campaign
//!   re-runs only the failed and interrupted cells;
//! * a **meta record** stamps the campaign with a schema version, the
//!   git SHA of the producing build and a hash of the run
//!   configuration; [`Journal::resume`] refuses to mix results from a
//!   different code revision or configuration;
//! * [`write_atomic`] gives every results writer tmp-file-then-rename
//!   semantics, so a crash mid-write can never leave a torn CSV
//!   behind.
//!
//! The journal is generic: cell keys are opaque strings and result rows
//! are opaque [`Json`] values, so this crate stays dependency-free and
//! the simulator crates decide what a row contains.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use crate::fsx::{Fs, FsFile};

/// Name of the journal file inside a campaign directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Journal schema version; bumped on incompatible record changes.
pub const JOURNAL_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------------

/// A minimal JSON value.
///
/// Numbers are kept as their raw token text ([`Json::Num`]), so a `u64`
/// above 2^53 or an exact `f64` shortest representation round-trips
/// bit-identically through serialise → parse → serialise — the property
/// the crash/resume tests pin.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number as its raw token text (lossless round-trip).
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    /// Key/value pairs in insertion order (rendering is deterministic).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number from a `u64` (exact).
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A number from an `f64` using Rust's shortest round-trip
    /// representation, so parsing it back yields the identical bits.
    pub fn f64(v: f64) -> Json {
        Json::Num(format!("{v:?}"))
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number parsed as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The array items (`None` for non-arrays).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render as compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(s) => out.push_str(s),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON value from `text` (the whole string must be
    /// consumed apart from trailing whitespace).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'+' | b'-' | b'.'))
        {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number token".to_string())?;
        if token.is_empty() || token.parse::<f64>().is_err() {
            return Err(format!("invalid number {token:?} at byte {start}"));
        }
        Ok(Json::Num(token.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "non-utf8 string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("invalid escape {other:?}")),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Atomic result writes
// ---------------------------------------------------------------------------

/// Crash-safe file write: the contents land in `<path>.tmp`, are
/// fsynced, and replace `path` with a single rename. A reader (or a
/// resumed campaign) therefore sees either the old complete file or the
/// new complete file — never a torn write. Routes through the real
/// filesystem backend; fault campaigns use [`crate::fsx::Fs::write_atomic`]
/// directly.
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    Fs::real().write_atomic(path, contents)
}

// ---------------------------------------------------------------------------
// The journal proper
// ---------------------------------------------------------------------------

/// Identity stamp of a campaign: which code produced it, under which
/// configuration. [`Journal::resume`] refuses a mismatch, so rows from
/// different builds or sweeps can never be silently mixed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignMeta {
    /// Git revision of the producing build (`"unknown"` outside a
    /// checkout).
    pub git_sha: String,
    /// Hash of the run configuration (machine + spec list).
    pub config_hash: String,
    /// Total cells in the sweep (informational).
    pub cells: usize,
}

/// FNV-1a 64-bit over a canonical description string — the
/// configuration fingerprint carried in [`CampaignMeta::config_hash`].
pub fn fingerprint(text: &str) -> String {
    format!("{:016x}", crate::hash::fnv64(text.as_bytes()))
}

/// What replaying a journal found for each cell.
#[derive(Clone, Debug, Default)]
pub struct JournalReplay {
    /// Cells with a `finish` record, keyed by cell id, with their rows.
    pub completed: BTreeMap<String, Json>,
    /// Cells whose last record is a terminal `fail`:
    /// `(attempts, error text)`. Re-run on resume.
    pub failed: BTreeMap<String, (u64, String)>,
    /// Cells with a `start` but no outcome — mid-flight when the
    /// process died. Re-run on resume.
    pub interrupted: Vec<String>,
}

impl JournalReplay {
    /// Cells the resumed campaign can skip.
    pub fn skippable(&self) -> usize {
        self.completed.len()
    }
}

/// Why a journal could not be opened for resume.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(io::Error),
    /// The directory holds no journal to resume.
    Missing(PathBuf),
    /// The journal was produced by different code or a different
    /// configuration.
    MetaMismatch {
        field: &'static str,
        journal: String,
        current: String,
    },
    /// A non-final record failed to parse, to verify against its crc
    /// or to decode as one of the four records (final truncated lines
    /// are tolerated: they are the expected residue of a kill
    /// mid-append).
    Corrupt { line: usize, reason: String },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Missing(dir) => write!(
                f,
                "no campaign journal at {} — start a fresh run instead of --resume",
                dir.join(JOURNAL_FILE).display()
            ),
            JournalError::MetaMismatch {
                field,
                journal,
                current,
            } => write!(
                f,
                "campaign {field} mismatch: journal was written by {journal:?} but this run \
                 is {current:?}; refusing to mix results from different code or configs"
            ),
            JournalError::Corrupt { line, reason } => {
                write!(f, "corrupt journal record at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The append-only campaign journal. One record per line; every append
/// is flushed and fsynced before the writer returns, so a SIGKILL loses
/// at most the record being written — which replay then classifies as
/// an interrupted cell. Every record carries a `crc` field (FNV-1a 64
/// of the record without it), so replay detects a bit-rotted record —
/// not just a torn one — instead of silently resurrecting a mutated
/// result row; once the meta record has one, a record without one is
/// refused too.
#[derive(Debug)]
pub struct Journal {
    file: FsFile,
    /// What replay found when this journal was opened (empty for a
    /// fresh campaign).
    pub replay: JournalReplay,
}

impl Journal {
    /// Start a fresh campaign in `dir` (created if missing). Fails if a
    /// journal already exists there — resuming must be explicit.
    pub fn create(dir: &Path, meta: &CampaignMeta) -> Result<Journal, JournalError> {
        Journal::create_on(&Fs::real(), dir, meta)
    }

    /// [`Journal::create`] through an explicit filesystem seam, so the
    /// campaign service (and the fault campaigns) inject disk faults
    /// into every append.
    pub fn create_on(fs: &Fs, dir: &Path, meta: &CampaignMeta) -> Result<Journal, JournalError> {
        fs.create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        if path.exists() {
            return Err(JournalError::Io(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "{} already holds a campaign journal; use --resume or a fresh directory",
                    dir.display()
                ),
            )));
        }
        let file = fs.create_new_append(&path)?;
        let mut j = Journal {
            file,
            replay: JournalReplay::default(),
        };
        j.append(Record::Meta {
            version: JOURNAL_VERSION,
            git_sha: meta.git_sha.clone(),
            config_hash: meta.config_hash.clone(),
            cells: meta.cells,
        })?;
        Ok(j)
    }

    /// Reopen an existing campaign: validate its meta stamp against
    /// `meta`, replay every record, and return the journal positioned
    /// for appending.
    pub fn resume(dir: &Path, meta: &CampaignMeta) -> Result<Journal, JournalError> {
        Journal::resume_on(&Fs::real(), dir, meta)
    }

    /// [`Journal::resume`] through an explicit filesystem seam. The
    /// replay read is subject to short-read / bit-flip injection; a
    /// truncated tail is tolerated (torn final line), a corrupted
    /// interior record is a structured [`JournalError::Corrupt`].
    pub fn resume_on(fs: &Fs, dir: &Path, meta: &CampaignMeta) -> Result<Journal, JournalError> {
        let path = dir.join(JOURNAL_FILE);
        if !path.exists() {
            return Err(JournalError::Missing(dir.to_path_buf()));
        }
        let text = fs.read_to_string(&path)?;
        let replay = replay_records(&text, meta)?;
        let file = fs.open_append(&path)?;
        Ok(Journal { file, replay })
    }

    fn append(&mut self, record: Record) -> io::Result<()> {
        let mut line = stamp_crc(record.to_json()).render();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }

    /// Record that `cell` (attempt `attempt`, 1-based) is starting.
    pub fn record_start(&mut self, cell: &str, attempt: u32) -> io::Result<()> {
        self.append(Record::Start {
            cell: cell.to_string(),
            attempt,
        })
    }

    /// Record that `cell` finished, with its result row.
    pub fn record_finish(&mut self, cell: &str, row: Json) -> io::Result<()> {
        self.append(Record::Finish {
            cell: cell.to_string(),
            row,
        })
    }

    /// Record that `cell` failed terminally after `attempts` tries.
    /// This *releases* the cell: it is no longer "in progress", so a
    /// resumed campaign re-runs it rather than considering it stuck.
    pub fn record_fail(&mut self, cell: &str, attempts: u32, error: &str) -> io::Result<()> {
        self.append(Record::Fail {
            cell: cell.to_string(),
            attempts,
            error: error.to_string(),
        })
    }
}

/// One journal line, before its `crc` is stamped on. Writer and
/// replayer share this one description of the four records.
#[derive(Debug, PartialEq)]
enum Record {
    Meta {
        version: u64,
        git_sha: String,
        config_hash: String,
        cells: usize,
    },
    Start {
        cell: String,
        attempt: u32,
    },
    Finish {
        cell: String,
        row: Json,
    },
    Fail {
        cell: String,
        attempts: u32,
        error: String,
    },
}

crate::json_tagged!(Record, "event" {
    "meta" => Meta { version, git_sha, config_hash, cells },
    "start" => Start { cell, attempt },
    "finish" => Finish { cell, row },
    "fail" => Fail { cell, attempts, error },
});

/// Append a `crc` field — the [`fingerprint`] of the record rendered
/// without it — to a record object.
fn stamp_crc(record: Json) -> Json {
    let crc = fingerprint(&record.render());
    match record {
        Json::Obj(mut fields) => {
            fields.push(("crc".into(), Json::Str(crc)));
            Json::Obj(fields)
        }
        other => other,
    }
}

/// Verify and strip a record's `crc` field, reporting whether it had
/// one. A present-but-wrong crc is the signature of bit rot and returns
/// `Err` with the reason.
fn check_crc(record: Json) -> Result<(Json, bool), String> {
    let Json::Obj(mut fields) = record else {
        return Ok((record, false));
    };
    let Some(at) = fields.iter().position(|(k, _)| k == "crc") else {
        return Ok((Json::Obj(fields), false));
    };
    let (_, crc) = fields.remove(at);
    let stripped = Json::Obj(fields);
    let expected = fingerprint(&stripped.render());
    match crc.as_str() {
        Some(found) if found == expected => Ok((stripped, true)),
        _ => Err(format!(
            "record checksum mismatch (expected {expected}, found {})",
            crc.as_str().unwrap_or("<non-string>")
        )),
    }
}

/// Parse, crc-verify and decode one journal line. The meta record
/// decides `crc_required`: a journal whose meta record carries a crc was
/// written by a build that stamps every record, so a later record
/// without one has lost it to damage and is refused. A journal with no
/// crc anywhere predates the stamp and still replays.
fn decode_line(line: &str, crc_required: &mut bool) -> Result<Record, String> {
    let (record, checked) = check_crc(Json::parse(line)?)?;
    let record = Record::from_json(&record)?;
    if matches!(record, Record::Meta { .. }) {
        *crc_required = checked;
    } else if *crc_required && !checked {
        return Err("record carries no crc in a checksummed journal".to_string());
    }
    Ok(record)
}

fn replay_records(text: &str, meta: &CampaignMeta) -> Result<JournalReplay, JournalError> {
    let lines: Vec<&str> = text.lines().collect();
    let mut replay = JournalReplay::default();
    let mut started: Vec<String> = Vec::new();
    let mut saw_meta = false;
    let mut crc_required = false;
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = match decode_line(line, &mut crc_required) {
            Ok(r) => r,
            // A torn final line is the expected residue of a kill
            // mid-append; anything earlier is real corruption. (A crc
            // mismatch on the final line is the same residue: the tail
            // of a torn append can still parse as JSON.)
            Err(_) if i + 1 == lines.len() => continue,
            Err(reason) => {
                return Err(JournalError::Corrupt {
                    line: i + 1,
                    reason,
                })
            }
        };
        match record {
            Record::Meta {
                version,
                git_sha,
                config_hash,
                ..
            } => {
                saw_meta = true;
                check_meta("version", version.to_string(), &JOURNAL_VERSION.to_string())?;
                check_meta("git_sha", git_sha, &meta.git_sha)?;
                check_meta("config_hash", config_hash, &meta.config_hash)?;
            }
            Record::Start { cell, .. } => started.push(cell),
            Record::Finish { cell, row } => {
                started.retain(|c| *c != cell);
                replay.failed.remove(&cell);
                replay.completed.insert(cell, row);
            }
            Record::Fail {
                cell,
                attempts,
                error,
            } => {
                started.retain(|c| *c != cell);
                replay.failed.insert(cell, (u64::from(attempts), error));
            }
        }
    }
    if !saw_meta {
        return Err(JournalError::Corrupt {
            line: 1,
            reason: "journal has no meta record".to_string(),
        });
    }
    started.sort();
    started.dedup();
    // a cell both completed (earlier attempt) and restarted: the restart
    // wins — it must re-run
    for cell in &started {
        replay.completed.remove(cell);
    }
    replay.interrupted = started;
    Ok(replay)
}

fn check_meta(field: &'static str, journal: String, current: &str) -> Result<(), JournalError> {
    if journal != current {
        return Err(JournalError::MetaMismatch {
            field,
            journal,
            current: current.to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write as _;

    fn meta() -> CampaignMeta {
        CampaignMeta {
            git_sha: "abc123".into(),
            config_hash: "deadbeef".into(),
            cells: 4,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tcmp_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn json_round_trips_losslessly() {
        let v = Json::Obj(vec![
            ("a".into(), Json::u64(u64::MAX)),
            ("b".into(), Json::f64(0.1 + 0.2)),
            ("s".into(), Json::str("quote \" slash \\ nl \n tab \t")),
            (
                "arr".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::f64(-1.5e-300)]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = v.render();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, v);
        assert_eq!(back.render(), text, "second render is identical");
        assert_eq!(back.get("a").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(back.get("b").unwrap().as_f64(), Some(0.1 + 0.2));
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(Json::parse("{\"a\":").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("nope").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn write_atomic_replaces_whole_file() {
        let dir = tmpdir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rows.csv");
        write_atomic(&path, "first\n").unwrap();
        write_atomic(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        assert!(
            !path.with_file_name("rows.csv.tmp").exists(),
            "tmp file is consumed by the rename"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_replay_classifies_cells() {
        let dir = tmpdir("replay");
        let mut j = Journal::create(&dir, &meta()).unwrap();
        j.record_start("cell-a", 1).unwrap();
        j.record_finish("cell-a", Json::Obj(vec![("x".into(), Json::u64(7))]))
            .unwrap();
        j.record_start("cell-b", 1).unwrap();
        j.record_fail("cell-b", 1, "watchdog").unwrap();
        j.record_start("cell-c", 1).unwrap(); // killed mid-flight
        drop(j);

        let j = Journal::resume(&dir, &meta()).unwrap();
        assert_eq!(j.replay.skippable(), 1);
        assert_eq!(
            j.replay.completed["cell-a"].get("x").unwrap().as_u64(),
            Some(7)
        );
        assert_eq!(j.replay.failed["cell-b"].1, "watchdog");
        assert_eq!(j.replay.interrupted, vec!["cell-c".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_final_line_is_tolerated() {
        let dir = tmpdir("torn");
        let mut j = Journal::create(&dir, &meta()).unwrap();
        j.record_start("cell-a", 1).unwrap();
        j.record_finish("cell-a", Json::Null).unwrap();
        drop(j);
        // simulate a kill mid-append: half a record, no newline
        let path = dir.join(JOURNAL_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"event\":\"finish\",\"cell\":\"cell-b\",\"ro")
            .unwrap();
        drop(f);
        let j = Journal::resume(&dir, &meta()).unwrap();
        assert_eq!(j.replay.skippable(), 1, "torn record is ignored");
        assert!(j.replay.interrupted.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_interior_record_is_refused() {
        // Only a torn *final* line is an expected crash residue. A
        // mangled record with valid records after it means the file
        // itself is damaged — replaying around it could silently drop
        // or resurrect cells, so resume must refuse with a structured
        // error naming the line.
        let dir = tmpdir("interior");
        let mut j = Journal::create(&dir, &meta()).unwrap();
        j.record_start("cell-a", 1).unwrap();
        j.record_finish("cell-a", Json::Null).unwrap();
        j.record_start("cell-b", 1).unwrap();
        drop(j);
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 4, "meta + three records");
        // Bit-rot the finish record (line 3), leaving the later start
        // intact so the damage is interior, not a torn tail.
        lines[2] = lines[2].replace("\"finish\"", "\"fin")[..lines[2].len() - 9].to_string();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        match Journal::resume(&dir, &meta()) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected interior corruption refusal, got {other:?}"),
        }
        // An unknown event is the same class of damage.
        let forged = lines[..2].join("\n")
            + "\n{\"event\":\"fnish\",\"cell\":\"cell-a\"}\n"
            + &lines[3]
            + "\n";
        std::fs::write(&path, forged).unwrap();
        match Journal::resume(&dir, &meta()) {
            Err(JournalError::Corrupt { line, reason }) => {
                assert_eq!(line, 3);
                assert!(reason.contains("fnish"), "reason names the event: {reason}");
            }
            other => panic!("expected unknown-event refusal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_refuses_foreign_campaigns() {
        let dir = tmpdir("meta");
        drop(Journal::create(&dir, &meta()).unwrap());
        let other = CampaignMeta {
            git_sha: "fff999".into(),
            ..meta()
        };
        match Journal::resume(&dir, &other) {
            Err(JournalError::MetaMismatch { field, .. }) => assert_eq!(field, "git_sha"),
            other => panic!("expected a meta mismatch, got {other:?}"),
        }
        let other = CampaignMeta {
            config_hash: "0000".into(),
            ..meta()
        };
        assert!(matches!(
            Journal::resume(&dir, &other),
            Err(JournalError::MetaMismatch {
                field: "config_hash",
                ..
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_journal_and_resume_requires_one() {
        let dir = tmpdir("exists");
        drop(Journal::create(&dir, &meta()).unwrap());
        assert!(Journal::create(&dir, &meta()).is_err());
        let empty = tmpdir("empty");
        assert!(matches!(
            Journal::resume(&empty, &meta()),
            Err(JournalError::Missing(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restarted_cell_reruns_even_after_an_earlier_finish() {
        let dir = tmpdir("restart");
        let mut j = Journal::create(&dir, &meta()).unwrap();
        j.record_start("cell-a", 1).unwrap();
        j.record_finish("cell-a", Json::Null).unwrap();
        j.record_start("cell-a", 1).unwrap(); // re-run began, then kill
        drop(j);
        let j = Journal::resume(&dir, &meta()).unwrap();
        assert!(j.replay.completed.is_empty());
        assert_eq!(j.replay.interrupted, vec!["cell-a".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_mid_campaign_fails_structured_and_resume_replays_cleanly() {
        use crate::fsx::{Fs, FsFaultConfig};
        let dir = tmpdir("enospc");
        // A healthy campaign journals one finished cell...
        let mut j = Journal::create(&dir, &meta()).unwrap();
        j.record_start("cell-a", 1).unwrap();
        j.record_finish("cell-a", Json::Obj(vec![("x".into(), Json::u64(7))]))
            .unwrap();
        drop(j);
        // ...then the disk fills: every further append fails with a
        // structured StorageFull error, never a panic.
        let full = Fs::faulty(FsFaultConfig {
            seed: 42,
            enospc: 1.0,
            ..FsFaultConfig::default()
        });
        let mut j = Journal::resume_on(&full, &dir, &meta()).unwrap();
        assert_eq!(j.replay.skippable(), 1);
        let err = j.record_start("cell-b", 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        let err = j.record_finish("cell-b", Json::Null).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        drop(j);
        // A restart on a recovered disk replays cleanly from the last
        // complete record: cell-a finished, nothing else.
        let j = Journal::resume(&dir, &meta()).unwrap();
        assert_eq!(j.replay.skippable(), 1);
        assert!(j.replay.interrupted.is_empty());
        assert!(j.replay.failed.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_append_mid_record_fails_structured_and_resume_tolerates_residue() {
        use crate::fsx::{Fs, FsFaultConfig};
        let dir = tmpdir("tornappend");
        let mut j = Journal::create(&dir, &meta()).unwrap();
        j.record_start("cell-a", 1).unwrap();
        j.record_finish("cell-a", Json::u64(1)).unwrap();
        drop(j);
        // The torn append persists a strict prefix of the record — the
        // on-disk residue of a crash mid-write — and reports an error.
        let torn = Fs::faulty(FsFaultConfig {
            seed: 7,
            torn_write: 1.0,
            ..FsFaultConfig::default()
        });
        let mut j = Journal::resume_on(&torn, &dir, &meta()).unwrap();
        assert!(j.record_finish("cell-b", Json::u64(2)).is_err());
        drop(j);
        // Replay tolerates the torn final line and keeps every record
        // before it.
        let j = Journal::resume(&dir, &meta()).unwrap();
        assert_eq!(j.replay.skippable(), 1);
        assert!(!j.replay.completed.contains_key("cell-b"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_rotted_record_is_caught_by_the_crc() {
        use crate::fsx::{Fs, FsFaultConfig};
        let dir = tmpdir("bitrot");
        let mut j = Journal::create(&dir, &meta()).unwrap();
        j.record_start("cell-a", 1).unwrap();
        j.record_finish("cell-a", Json::Obj(vec![("x".into(), Json::u64(1000))]))
            .unwrap();
        j.record_start("cell-b", 1).unwrap();
        j.record_fail("cell-b", 1, "watchdog").unwrap();
        drop(j);
        // Resume through a bit-flipping fs until an injected flip lands
        // on a record and corrupts it. Every outcome must be either a
        // clean replay (flip hit a digit the crc catches → Corrupt) or
        // a structured refusal — never a silently mutated result row.
        let mut caught = false;
        for seed in 0..200u64 {
            let fs = Fs::faulty(FsFaultConfig {
                seed,
                bit_flip: 1.0,
                ..FsFaultConfig::default()
            });
            match Journal::resume_on(&fs, &dir, &meta()) {
                Ok(j) => {
                    // The flip landed in the (ignorable) torn-tail
                    // position or produced a record that still crc-
                    // verified — which means it verified *unchanged*.
                    if let Some(row) = j.replay.completed.get("cell-a") {
                        assert_eq!(row.get("x").unwrap().as_u64(), Some(1000));
                    }
                }
                Err(JournalError::Corrupt { .. }) | Err(JournalError::MetaMismatch { .. }) => {
                    caught = true;
                }
                Err(JournalError::Io(_)) | Err(JournalError::Missing(_)) => {}
            }
        }
        assert!(caught, "some flips must be caught as structured corruption");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The four records, byte for byte as the build before the field
    /// table wrote them (`crc` included), and back.
    #[test]
    fn record_bytes_are_pinned() {
        let records = [
            (
                Record::Meta {
                    version: 1,
                    git_sha: "abc123".into(),
                    config_hash: "deadbeef".into(),
                    cells: 4,
                },
                r#"{"event":"meta","version":1,"git_sha":"abc123","config_hash":"deadbeef","cells":4,"crc":"92c8bda5903421ce"}"#,
            ),
            (
                Record::Start {
                    cell: "FFT|baseline".into(),
                    attempt: 1,
                },
                r#"{"event":"start","cell":"FFT|baseline","attempt":1,"crc":"fb00b0e6ad469b80"}"#,
            ),
            (
                Record::Finish {
                    cell: "FFT|baseline".into(),
                    row: Json::Obj(vec![
                        ("x".into(), Json::u64(7)),
                        ("y".into(), Json::f64(0.1 + 0.2)),
                    ]),
                },
                r#"{"event":"finish","cell":"FFT|baseline","row":{"x":7,"y":0.30000000000000004},"crc":"8f0f1d9ffc9b7326"}"#,
            ),
            (
                Record::Fail {
                    cell: "MP3D|baseline".into(),
                    attempts: 3,
                    error: "watchdog: no \"progress\"".into(),
                },
                r#"{"event":"fail","cell":"MP3D|baseline","attempts":3,"error":"watchdog: no \"progress\"","crc":"ba3a0f75bb049710"}"#,
            ),
        ];
        for (record, line) in records {
            assert_eq!(stamp_crc(record.to_json()).render(), line);
            assert_eq!(decode_line(line, &mut false), Ok(record));
        }
    }

    /// Rewrite line `n` (1-based) of the journal in `dir`.
    fn edit_line(dir: &Path, n: usize, edit: impl Fn(&str) -> String) {
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, l)| if i + 1 == n { edit(l) } else { l.to_string() })
            .collect();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    }

    fn strip_crc(line: &str) -> String {
        let at = line.find(",\"crc\":").expect("record carries a crc");
        line[..at].to_string() + "}"
    }

    #[test]
    fn record_that_lost_its_crc_is_refused_in_a_checksummed_journal() {
        let dir = tmpdir("lostcrc");
        let mut j = Journal::create(&dir, &meta()).unwrap();
        j.record_start("cell-a", 1).unwrap();
        j.record_finish("cell-a", Json::Obj(vec![("x".into(), Json::u64(1000))]))
            .unwrap();
        j.record_start("cell-b", 1).unwrap();
        drop(j);
        // Damage that takes out the crc key and a digit of the row: the
        // forged line is well-formed JSON and a well-formed finish record.
        edit_line(&dir, 3, |l| strip_crc(l).replace("1000", "2000"));
        match Journal::resume(&dir, &meta()) {
            Err(JournalError::Corrupt { line, reason }) => {
                assert_eq!(line, 3);
                assert!(reason.contains("crc"), "{reason}");
            }
            other => panic!("a crc-less interior record must be refused, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_written_before_the_crc_existed_still_replays() {
        let dir = tmpdir("precrc");
        let mut j = Journal::create(&dir, &meta()).unwrap();
        j.record_start("cell-a", 1).unwrap();
        j.record_finish("cell-a", Json::Obj(vec![("x".into(), Json::u64(7))]))
            .unwrap();
        j.record_start("cell-b", 1).unwrap();
        j.record_fail("cell-b", 2, "watchdog").unwrap();
        drop(j);
        for n in 1..=5 {
            edit_line(&dir, n, strip_crc);
        }
        let j = Journal::resume(&dir, &meta()).unwrap();
        assert_eq!(
            j.replay.completed["cell-a"].get("x").unwrap().as_u64(),
            Some(7)
        );
        assert_eq!(j.replay.failed["cell-b"], (2, "watchdog".to_string()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An interior record that verifies against its crc but is not one
    /// of the four records is damage like any other, not a line to skip.
    #[test]
    fn verified_record_that_does_not_decode_is_refused() {
        for (forged, names) in [
            (r#"{"event":"start","attempt":1}"#, "cell"),
            (r#"{"event":"fail","cell":"cell-a"}"#, "attempts"),
            (
                r#"{"event":"start","cell":"cell-a","attempt":4294967296}"#,
                "attempt",
            ),
        ] {
            let dir = tmpdir("undecodable");
            let mut j = Journal::create(&dir, &meta()).unwrap();
            j.record_start("cell-a", 1).unwrap();
            j.record_start("cell-b", 1).unwrap();
            drop(j);
            edit_line(&dir, 2, |_| {
                stamp_crc(Json::parse(forged).unwrap()).render()
            });
            match Journal::resume(&dir, &meta()) {
                Err(JournalError::Corrupt { line, reason }) => {
                    assert_eq!(line, 2);
                    assert!(reason.contains(names), "{reason}");
                }
                other => panic!("{forged} must be refused, got {other:?}"),
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
        assert_eq!(fingerprint("").len(), 16);
    }
}
