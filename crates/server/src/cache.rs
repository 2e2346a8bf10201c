//! The content-addressed result cache.
//!
//! Finished experiments persist to `<dir>/<key>.json`, where `key` is
//! [`dcr_bench::runspec::cache_key`] — SHA-256 over the canonical JSON of
//! `(code version, spec)`. The key construction carries the whole cache
//! contract:
//!
//! * **stable under field reordering** — the spec is re-serialized from
//!   its typed form and canonicalized (keys sorted) before hashing, so
//!   two submissions of the same run hash identically no matter how the
//!   client ordered its JSON fields;
//! * **invalidated by any semantic change** — seed, trial count, `p_jam`,
//!   fidelity, every field of the spec feeds the hash;
//! * **invalidated by code changes** — the key includes
//!   [`dcr_bench::runspec::code_version`], a hash of the sources the
//!   server was compiled from, so a rebuilt server never serves results
//!   computed by different code. Stale entries are simply never looked up
//!   again; they are garbage, not corruption.
//!
//! Writes go through a temp file and an atomic rename, so a crash
//! mid-write leaves no half-entry that a later lookup could trust.

use dcr_bench::runspec::ExperimentSpec;
use dcr_sim::prelude::ProbeRecord;
use dcr_stats::ExperimentReport;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Everything the server persists for one finished experiment — enough
/// to answer both `GET /experiments/:id` and an SSE replay without
/// re-executing a single slot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheEntry {
    /// The content key (also the experiment id and the file stem).
    pub key: String,
    /// Code version the result was computed under (diagnostic only; the
    /// key already commits to it).
    pub code_version: String,
    /// The spec as executed.
    pub spec: ExperimentSpec,
    /// The structured result.
    pub report: ExperimentReport,
    /// Probe events captured from trial 0.
    pub events: Vec<ProbeRecord>,
    /// Rendered human-readable summary.
    pub text: String,
}

/// A directory of [`CacheEntry`] files keyed by content hash.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    fn path_of(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Load the entry for `key`, if one exists and parses. A corrupt or
    /// unreadable file behaves as a miss: the run recomputes and the
    /// store overwrites it.
    pub fn load(&self, key: &str) -> Option<CacheEntry> {
        if !valid_key(key) {
            return None;
        }
        let raw = std::fs::read_to_string(self.path_of(key)).ok()?;
        serde_json::from_str(&raw).ok()
    }

    /// Persist `entry` under its key (atomic: temp file + rename).
    pub fn store(&self, entry: &CacheEntry) -> std::io::Result<()> {
        let json = serde_json::to_string(entry)
            .map_err(|e| std::io::Error::other(format!("serialize cache entry: {e:?}")))?;
        let tmp = self.dir.join(format!("{}.json.tmp", entry.key));
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, self.path_of(&entry.key))
    }

    /// The cache directory (for log lines).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn checkpoint_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.ckpt.json"))
    }

    /// Persist a serialized engine checkpoint under `<key>.ckpt.json`
    /// (atomic: temp file + rename). Keys are content hashes of the
    /// checkpoint itself, so an overwrite always writes identical bytes.
    pub fn store_checkpoint(&self, key: &str, json: &str) -> std::io::Result<()> {
        if !valid_key(key) {
            return Err(std::io::Error::other("invalid checkpoint key"));
        }
        let tmp = self.dir.join(format!("{key}.ckpt.json.tmp"));
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, self.checkpoint_path(key))
    }

    /// Append one single-line JSON record to the append-only branch
    /// lineage log (`<dir>/lineage.log`): which checkpoint was forked
    /// from which experiment, at what slot, into which branches.
    pub fn append_lineage(&self, line: &str) -> std::io::Result<()> {
        use std::io::Write;
        debug_assert!(!line.contains('\n'), "lineage records are one line each");
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join("lineage.log"))?;
        writeln!(f, "{line}")
    }
}

/// Keys are lowercase hex SHA-256 strings; anything else never touches
/// the filesystem (ids come in off the URL, so this is also the path
/// traversal guard).
pub fn valid_key(key: &str) -> bool {
    key.len() == 64
        && key
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_validated() {
        assert!(valid_key(&"a".repeat(64)));
        assert!(!valid_key(&"A".repeat(64)));
        assert!(!valid_key("../../etc/passwd"));
        assert!(!valid_key(&"a".repeat(63)));
    }
}
