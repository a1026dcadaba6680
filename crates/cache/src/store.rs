//! The on-disk content-addressed store behind `--cache-dir`.
//!
//! Layout (all inside one cache directory):
//!
//! ```text
//! <cache-dir>/
//!   index.bin        header: magic, format version, analyzer version,
//!                    LRU clock; then one row per entry
//!                    (tier, fingerprint, size, last-used)
//!   fn-<hex32>.bin   tier-1: one memoized per-function outcome
//!   rp-<hex32>.bin   tier-2: one rendered whole-corpus report
//! ```
//!
//! Every entry file carries its own magic, format version, payload length
//! and a trailing content checksum; a truncated, bit-flipped or
//! wrong-version entry fails validation and is **treated as a miss** (and
//! deleted), never an error. The index header pins the analyzer version —
//! opening the store with a different version wipes it wholesale, which is
//! how analyzer upgrades invalidate stale results. Entries whose options
//! differ never collide because the options digest is folded into every
//! fingerprint by the caller.
//!
//! Eviction is LRU by a monotonic clock persisted in the index: whenever
//! [`CacheStore::flush`] finds the store over its size cap, least-recently
//! used entries are deleted until it fits.
//!
//! One directory may be shared by several processes (sharded sweeps run
//! many `ffisafe` children over one `--cache-dir`). Entry writes are
//! atomic and content-addressed, so concurrency can only race on
//! `index.bin` — and a lost index row merely turns the entry into a valid
//! *orphan*, which the next [`CacheStore::open`] validates and adopts back
//! into the index (invalid orphans are deleted). No entry a process wrote
//! is ever silently lost to an index race.

use crate::codec::{Decoder, Encoder};
use ffisafe_support::{Fingerprint, FingerprintHasher, MetricsRegistry};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Magic prefix of entry files.
const ENTRY_MAGIC: [u8; 4] = *b"FFSE";
/// Magic prefix of the index file.
const INDEX_MAGIC: [u8; 4] = *b"FFSX";
/// Bump when the entry/index binary layout changes.
const FORMAT_VERSION: u32 = 1;
/// Default size cap: plenty for per-function outcomes of large corpora.
const DEFAULT_CAP_BYTES: u64 = 256 * 1024 * 1024;
/// Number of independent index shards. Must be a power of two. Lookups
/// lock only the shard addressed by the fingerprint's top bits, so
/// parallel workers hitting different keys never serialize.
const INDEX_SHARDS: usize = 16;

/// Which cache tier an entry belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Tier 1: memoized per-function inference outcomes.
    Function,
    /// Tier 2: rendered whole-corpus reports.
    Report,
}

impl Tier {
    fn prefix(self) -> &'static str {
        match self {
            Tier::Function => "fn",
            Tier::Report => "rp",
        }
    }

    pub(crate) fn as_u8(self) -> u8 {
        match self {
            Tier::Function => 0,
            Tier::Report => 1,
        }
    }

    fn from_u8(v: u8) -> Option<Tier> {
        match v {
            0 => Some(Tier::Function),
            1 => Some(Tier::Report),
            _ => None,
        }
    }
}

/// Hit/miss/eviction counters for one store lifetime, plus the store's
/// current occupancy (entry count and live bytes) at the moment
/// [`CacheStore::stats`] was called.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Tier-1 lookups that replayed a memoized function outcome.
    pub fn_hits: usize,
    /// Tier-1 lookups that fell through to a live inference worker.
    pub fn_misses: usize,
    /// Tier-2 lookups that served a whole rendered report.
    pub report_hits: usize,
    /// Tier-2 lookups that fell through to a full analysis.
    pub report_misses: usize,
    /// Entries deleted by the LRU size-cap sweep.
    pub evictions: usize,
    /// Entries dropped because validation failed (corrupt/truncated).
    pub corrupt: usize,
    /// Entries currently indexed (occupancy, not a counter).
    pub entries: usize,
    /// Total indexed payload-file bytes (occupancy, not a counter).
    pub live_bytes: u64,
}

impl CacheStats {
    /// Feeds these counters into a [`MetricsRegistry`] under the
    /// `ffisafe_cache_store_*` family (see README "Observability").
    pub fn feed_metrics(&self, reg: &mut MetricsRegistry) {
        reg.inc_counter(
            "ffisafe_cache_store_fn_hits_total",
            "Store-level tier-1 lookups that replayed a memoized outcome",
            &[],
            self.fn_hits as u64,
        );
        reg.inc_counter(
            "ffisafe_cache_store_fn_misses_total",
            "Store-level tier-1 lookups that fell through to a worker",
            &[],
            self.fn_misses as u64,
        );
        reg.inc_counter(
            "ffisafe_cache_store_report_hits_total",
            "Store-level tier-2 lookups that served a whole report",
            &[],
            self.report_hits as u64,
        );
        reg.inc_counter(
            "ffisafe_cache_store_report_misses_total",
            "Store-level tier-2 lookups that fell through to a full analysis",
            &[],
            self.report_misses as u64,
        );
        reg.inc_counter(
            "ffisafe_cache_store_evictions_total",
            "Entries deleted by the LRU size-cap sweep",
            &[],
            self.evictions as u64,
        );
        reg.inc_counter(
            "ffisafe_cache_store_corrupt_total",
            "Entries dropped because validation failed",
            &[],
            self.corrupt as u64,
        );
        reg.set_gauge(
            "ffisafe_cache_store_entries",
            "Entries currently indexed",
            &[],
            self.entries as f64,
        );
        reg.set_gauge(
            "ffisafe_cache_store_live_bytes",
            "Total indexed payload-file bytes",
            &[],
            self.live_bytes as f64,
        );
    }
}

#[derive(Clone, Copy, Debug)]
struct EntryMeta {
    size: u64,
    last_used: u64,
}

/// Run-lifetime hit/miss counters, updated lock-free so concurrent
/// lookups on different index shards never contend on accounting.
#[derive(Debug, Default)]
struct Counters {
    fn_hits: AtomicUsize,
    fn_misses: AtomicUsize,
    report_hits: AtomicUsize,
    report_misses: AtomicUsize,
    evictions: AtomicUsize,
    corrupt: AtomicUsize,
}

/// A two-tier content-addressed cache rooted at one directory.
///
/// The in-memory index is sharded by fingerprint prefix: every lookup or
/// insert locks exactly one of [`INDEX_SHARDS`] independent maps, so a
/// single `CacheStore` can be shared (`Arc<CacheStore>`) across many
/// worker threads without funneling tier-1 traffic through one mutex.
/// Only [`CacheStore::flush`] and [`CacheStore::wipe`] take all shard
/// locks at once (in index order, so they cannot deadlock against the
/// single-shard operations).
#[derive(Debug)]
pub struct CacheStore {
    dir: PathBuf,
    analyzer_version: String,
    cap_bytes: AtomicU64,
    clock: AtomicU64,
    shards: Vec<Mutex<HashMap<(u8, Fingerprint), EntryMeta>>>,
    counters: Counters,
}

/// Index shard addressed by a fingerprint's top bits (its key prefix).
fn shard_of(fp: Fingerprint) -> usize {
    (fp.0 >> 60) as usize & (INDEX_SHARDS - 1)
}

/// Locks a shard, recovering from poison: the maps hold only metadata
/// whose loss degrades to a cache miss, never to wrong results.
fn lock_shard(
    shard: &Mutex<HashMap<(u8, Fingerprint), EntryMeta>>,
) -> MutexGuard<'_, HashMap<(u8, Fingerprint), EntryMeta>> {
    shard.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl CacheStore {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// `analyzer_version` identifies the producer; if the on-disk index was
    /// written by a different version — or is missing or unreadable — every
    /// existing entry is deleted and the store starts empty.
    pub fn open(dir: &Path, analyzer_version: &str) -> io::Result<CacheStore> {
        std::fs::create_dir_all(dir)?;
        let store = CacheStore {
            dir: dir.to_path_buf(),
            analyzer_version: analyzer_version.to_string(),
            cap_bytes: AtomicU64::new(DEFAULT_CAP_BYTES),
            clock: AtomicU64::new(0),
            shards: (0..INDEX_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            counters: Counters::default(),
        };
        if !store.load_index() {
            store.wipe();
        } else {
            store.adopt_orphans();
        }
        // Persist the index right away if it is not on disk. Entry files
        // next to a *missing* index read as an interrupted unversioned
        // store and trigger a wipe, so without this a second process
        // opening a fresh directory could destroy entries the first
        // process had already written but not yet flushed.
        if !dir.join("index.bin").exists() {
            store.write_index()?;
        }
        Ok(store)
    }

    /// The directory this store is rooted at.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The analyzer version this store was opened with.
    pub fn analyzer_version(&self) -> &str {
        &self.analyzer_version
    }

    /// Overrides the size cap enforced by [`CacheStore::flush`].
    pub fn set_cap_bytes(&self, cap: u64) {
        self.cap_bytes.store(cap, Ordering::Relaxed);
    }

    /// Counters accumulated since the store was opened, with the current
    /// occupancy (entry count, live bytes) filled in at call time.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut live_bytes) = (0usize, 0u64);
        for shard in &self.shards {
            let map = lock_shard(shard);
            entries += map.len();
            live_bytes += map.values().map(|m| m.size).sum::<u64>();
        }
        CacheStats {
            fn_hits: self.counters.fn_hits.load(Ordering::Relaxed),
            fn_misses: self.counters.fn_misses.load(Ordering::Relaxed),
            report_hits: self.counters.report_hits.load(Ordering::Relaxed),
            report_misses: self.counters.report_misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            corrupt: self.counters.corrupt.load(Ordering::Relaxed),
            entries,
            live_bytes,
        }
    }

    /// Number of entries currently indexed.
    pub fn entry_count(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).len()).sum()
    }

    /// Total indexed payload-file bytes.
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| lock_shard(s).values().map(|m| m.size).sum::<u64>()).sum()
    }

    /// Whether an entry is indexed (no validation, no LRU touch).
    pub fn contains(&self, tier: Tier, fp: Fingerprint) -> bool {
        lock_shard(&self.shards[shard_of(fp)]).contains_key(&(tier.as_u8(), fp))
    }

    fn entry_path(&self, tier: Tier, fp: Fingerprint) -> PathBuf {
        self.dir.join(format!("{}-{}.bin", tier.prefix(), fp.to_hex()))
    }

    fn count_get(&self, tier: Tier, hit: bool) {
        let counter = match (tier, hit) {
            (Tier::Function, true) => &self.counters.fn_hits,
            (Tier::Function, false) => &self.counters.fn_misses,
            (Tier::Report, true) => &self.counters.report_hits,
            (Tier::Report, false) => &self.counters.report_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up an entry. A hit returns the validated payload and touches
    /// the LRU clock; any validation failure deletes the entry and reports
    /// a miss. Locks only the entry's own index shard.
    pub fn get(&self, tier: Tier, fp: Fingerprint) -> Option<Vec<u8>> {
        let key = (tier.as_u8(), fp);
        let shard = &self.shards[shard_of(fp)];
        if !lock_shard(shard).contains_key(&key) {
            self.count_get(tier, false);
            return None;
        }
        // The file read happens outside the shard lock: entries are
        // content-addressed, so the worst a concurrent remove can do is
        // turn this into a miss.
        let path = self.entry_path(tier, fp);
        match std::fs::read(&path).ok().and_then(|bytes| validate_entry(&bytes)) {
            Some(payload) => {
                let clock = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(meta) = lock_shard(shard).get_mut(&key) {
                    meta.last_used = clock;
                }
                self.count_get(tier, true);
                Some(payload)
            }
            None => {
                lock_shard(shard).remove(&key);
                let _ = std::fs::remove_file(&path);
                self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                self.count_get(tier, false);
                None
            }
        }
    }

    /// Inserts (or replaces) an entry. The write is atomic: a temp file is
    /// renamed into place, so readers never observe a half-written entry.
    pub fn put(&self, tier: Tier, fp: Fingerprint, payload: &[u8]) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(payload.len() + 32);
        bytes.extend_from_slice(&ENTRY_MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        let sum = Fingerprint::of_bytes(payload);
        bytes.extend_from_slice(&sum.0.to_le_bytes());
        bytes.extend_from_slice(&sum.1.to_le_bytes());

        let path = self.entry_path(tier, fp);
        write_atomic(&path, &bytes)?;
        let clock = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        lock_shard(&self.shards[shard_of(fp)])
            .insert((tier.as_u8(), fp), EntryMeta { size: bytes.len() as u64, last_used: clock });
        Ok(())
    }

    /// Enforces the size cap (evicting LRU entries) and persists the index.
    ///
    /// Takes every shard lock (in order) for the duration, so the evicted
    /// set and the persisted index are a consistent snapshot.
    pub fn flush(&self) -> io::Result<()> {
        let mut maps: Vec<_> = self.shards.iter().map(lock_shard).collect();
        let cap = self.cap_bytes.load(Ordering::Relaxed);
        loop {
            let total: u64 = maps.iter().flat_map(|m| m.values()).map(|m| m.size).sum();
            if total <= cap {
                break;
            }
            let Some((shard_idx, &key)) = maps
                .iter()
                .enumerate()
                .flat_map(|(i, m)| m.iter().map(move |(k, meta)| (i, k, meta.last_used)))
                .min_by_key(|&(_, _, last_used)| last_used)
                .map(|(i, k, _)| (i, k))
            else {
                break;
            };
            let (tier_u8, fp) = key;
            let tier = Tier::from_u8(tier_u8).expect("only valid tiers are inserted");
            let _ = std::fs::remove_file(self.entry_path(tier, fp));
            maps[shard_idx].remove(&key);
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.write_index_locked(&maps)
    }

    /// Deletes every entry file and resets the index.
    pub fn wipe(&self) {
        let mut maps: Vec<_> = self.shards.iter().map(lock_shard).collect();
        if let Ok(read) = std::fs::read_dir(&self.dir) {
            for dirent in read.flatten() {
                let name = dirent.file_name();
                let name = name.to_string_lossy();
                let is_cache_file = name == "index.bin"
                    || ((name.starts_with("fn-") || name.starts_with("rp-"))
                        && name.ends_with(".bin"));
                if is_cache_file {
                    let _ = std::fs::remove_file(dirent.path());
                }
            }
        }
        for map in &mut maps {
            map.clear();
        }
        self.clock.store(0, Ordering::Relaxed);
    }

    /// Loads `index.bin`. Returns `false` when the store must be wiped
    /// (missing/corrupt index, format or analyzer-version mismatch). An
    /// empty directory with no index loads as an empty store.
    fn load_index(&self) -> bool {
        let path = self.dir.join("index.bin");
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            // No index at all: fresh only if there are no orphaned entries.
            Err(_) => return !self.has_entry_files(),
        };
        let Some((version, clock, entries)) = decode_index(&bytes) else {
            return false;
        };
        if version != self.analyzer_version {
            return false;
        }
        self.clock.store(clock, Ordering::Relaxed);
        for (key, meta) in entries {
            lock_shard(&self.shards[shard_of(key.1)]).insert(key, meta);
        }
        true
    }

    /// Reconciles entry files present on disk but absent from the index.
    ///
    /// Such orphans arise two ways: a run died between `put` and `flush`,
    /// or — since sweeps shard one `--cache-dir` across concurrent
    /// `ffisafe` processes — a sibling process's index flush raced ours
    /// and dropped rows for entries that are perfectly valid on disk. The
    /// entry files are self-validating (magic, version, length, checksum)
    /// and content-addressed, and only same-version producers ever write
    /// next to a matching index (a version mismatch wipes wholesale), so a
    /// *valid* orphan is always safe to **adopt** back into the index;
    /// only files failing validation are deleted. Adoption is what keeps
    /// shared-store occupancy deterministic and warm sweeps complete no
    /// matter how concurrent index writes interleaved. Adopted entries
    /// join at the cold end of the LRU (`last_used = 0`), so under cap
    /// pressure they are the first to go.
    ///
    /// Runs automatically at [`CacheStore::open`]; long-lived stores (a
    /// sweep parent, a `cache-serve` daemon) may call it again to pick up
    /// entries written by sibling processes since.
    pub fn adopt_orphans(&self) {
        let Ok(read) = std::fs::read_dir(&self.dir) else { return };
        for dirent in read.flatten() {
            let name = dirent.file_name();
            let name = name.to_string_lossy();
            let Some((prefix, rest)) = name.split_once('-') else { continue };
            let tier = match prefix {
                "fn" => Tier::Function,
                "rp" => Tier::Report,
                _ => continue,
            };
            let Some(hex) = rest.strip_suffix(".bin") else { continue };
            let Some(fp) = Fingerprint::parse_hex(hex) else {
                // An entry-shaped name that does not address anything can
                // never be indexed or evicted — delete it so it cannot
                // leak disk past the size cap.
                let _ = std::fs::remove_file(dirent.path());
                continue;
            };
            if self.contains(tier, fp) {
                continue;
            }
            let bytes = std::fs::read(dirent.path()).unwrap_or_default();
            match validate_entry(&bytes) {
                Some(_) => {
                    let size = bytes.len() as u64;
                    lock_shard(&self.shards[shard_of(fp)])
                        .insert((tier.as_u8(), fp), EntryMeta { size, last_used: 0 });
                }
                None => {
                    let _ = std::fs::remove_file(dirent.path());
                    self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn has_entry_files(&self) -> bool {
        std::fs::read_dir(&self.dir)
            .map(|read| {
                read.flatten().any(|dirent| {
                    let name = dirent.file_name();
                    let name = name.to_string_lossy();
                    (name.starts_with("fn-") || name.starts_with("rp-")) && name.ends_with(".bin")
                })
            })
            .unwrap_or(false)
    }

    fn write_index(&self) -> io::Result<()> {
        let maps: Vec<_> = self.shards.iter().map(lock_shard).collect();
        self.write_index_locked(&maps)
    }

    fn write_index_locked(
        &self,
        maps: &[MutexGuard<'_, HashMap<(u8, Fingerprint), EntryMeta>>],
    ) -> io::Result<()> {
        let mut e = Encoder::new();
        e.put_u32(u32::from_le_bytes(INDEX_MAGIC));
        e.put_u32(FORMAT_VERSION);
        e.put_str(&self.analyzer_version);
        e.put_u64(self.clock.load(Ordering::Relaxed));
        // Stable order keeps repeated flushes byte-identical.
        let mut rows: Vec<((u8, Fingerprint), EntryMeta)> =
            maps.iter().flat_map(|m| m.iter().map(|(k, v)| (*k, *v))).collect();
        rows.sort_by_key(|(k, _)| *k);
        e.put_len(rows.len());
        for ((tier, fp), meta) in rows {
            e.put_u8(tier);
            e.put_u64(fp.0);
            e.put_u64(fp.1);
            e.put_u64(meta.size);
            e.put_u64(meta.last_used);
        }
        write_atomic(&self.dir.join("index.bin"), &e.into_bytes())
    }
}

/// Validates one entry file, returning its payload.
fn validate_entry(bytes: &[u8]) -> Option<Vec<u8>> {
    let mut d = Decoder::new(bytes);
    if d.get_u32().ok()? != u32::from_le_bytes(ENTRY_MAGIC) {
        return None;
    }
    if d.get_u32().ok()? != FORMAT_VERSION {
        return None;
    }
    let len = d.get_len().ok()?;
    if d.remaining() != len + 16 {
        return None;
    }
    let payload = bytes[bytes.len() - 16 - len..bytes.len() - 16].to_vec();
    let mut tail = Decoder::new(&bytes[bytes.len() - 16..]);
    let sum = Fingerprint(tail.get_u64().ok()?, tail.get_u64().ok()?);
    if Fingerprint::of_bytes(&payload) != sum {
        return None;
    }
    Some(payload)
}

#[allow(clippy::type_complexity)]
fn decode_index(bytes: &[u8]) -> Option<(String, u64, HashMap<(u8, Fingerprint), EntryMeta>)> {
    let mut d = Decoder::new(bytes);
    if d.get_u32().ok()? != u32::from_le_bytes(INDEX_MAGIC) {
        return None;
    }
    if d.get_u32().ok()? != FORMAT_VERSION {
        return None;
    }
    let version = d.get_str().ok()?;
    let clock = d.get_u64().ok()?;
    let n = d.get_len().ok()?;
    let mut entries = HashMap::with_capacity(n);
    for _ in 0..n {
        let tier = d.get_u8().ok()?;
        Tier::from_u8(tier)?;
        let fp = Fingerprint(d.get_u64().ok()?, d.get_u64().ok()?);
        let size = d.get_u64().ok()?;
        let last_used = d.get_u64().ok()?;
        entries.insert((tier, fp), EntryMeta { size, last_used });
    }
    d.finish().ok()?;
    Some((version, clock, entries))
}

/// Writes `bytes` to `path` via a same-directory temp file + rename.
///
/// The temp name carries the process id *and* a process-wide sequence
/// number: threads of one daemon can write the same key concurrently, and
/// a shared temp path would let one thread rename the other's half-written
/// file into place.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let parent = path.parent().unwrap_or_else(|| Path::new("."));
    let stem = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = parent.join(format!(".{}.tmp-{}-{}", stem, std::process::id(), seq));
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// A convenience fingerprint over several labelled parts (used by tests).
pub fn fingerprint_parts(parts: &[&[u8]]) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    for p in parts {
        h.write_u64(p.len() as u64);
        h.write_bytes(p);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ffisafe-cache-store-{}-{}",
            tag,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fp(n: u64) -> Fingerprint {
        Fingerprint(n, n.wrapping_mul(0x9e37_79b9))
    }

    #[test]
    fn put_get_roundtrip_and_persistence() {
        let dir = temp_store_dir("roundtrip");
        let store = CacheStore::open(&dir, "v1").unwrap();
        assert_eq!(store.get(Tier::Function, fp(1)), None);
        store.put(Tier::Function, fp(1), b"outcome-bytes").unwrap();
        store.put(Tier::Report, fp(1), b"report-bytes").unwrap();
        assert_eq!(store.get(Tier::Function, fp(1)).unwrap(), b"outcome-bytes");
        // same fingerprint, different tier: distinct entries
        assert_eq!(store.get(Tier::Report, fp(1)).unwrap(), b"report-bytes");
        store.flush().unwrap();
        assert_eq!(store.stats().fn_hits, 1);
        assert_eq!(store.stats().fn_misses, 1);

        // reopen: index persisted both entries
        let store = CacheStore::open(&dir, "v1").unwrap();
        assert_eq!(store.entry_count(), 2);
        assert_eq!(store.get(Tier::Function, fp(1)).unwrap(), b"outcome-bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyzer_version_change_wipes_everything() {
        let dir = temp_store_dir("version");
        let store = CacheStore::open(&dir, "v1").unwrap();
        store.put(Tier::Function, fp(1), b"old").unwrap();
        store.flush().unwrap();
        drop(store);

        let store = CacheStore::open(&dir, "v2").unwrap();
        assert_eq!(store.entry_count(), 0);
        assert_eq!(store.get(Tier::Function, fp(1)), None);
        // the stale entry file itself is gone, not merely unindexed
        assert!(!dir.join(format!("fn-{}.bin", fp(1).to_hex())).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_truncated_entries_are_misses() {
        let dir = temp_store_dir("corrupt");
        let store = CacheStore::open(&dir, "v1").unwrap();
        store.put(Tier::Function, fp(1), b"payload-one").unwrap();
        store.put(Tier::Function, fp(2), b"payload-two").unwrap();
        store.flush().unwrap();

        // bit-flip one entry, truncate the other
        let p1 = dir.join(format!("fn-{}.bin", fp(1).to_hex()));
        let mut bytes = std::fs::read(&p1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&p1, &bytes).unwrap();
        let p2 = dir.join(format!("fn-{}.bin", fp(2).to_hex()));
        let bytes = std::fs::read(&p2).unwrap();
        std::fs::write(&p2, &bytes[..bytes.len() / 2]).unwrap();

        let store = CacheStore::open(&dir, "v1").unwrap();
        assert_eq!(store.get(Tier::Function, fp(1)), None);
        assert_eq!(store.get(Tier::Function, fp(2)), None);
        assert_eq!(store.stats().corrupt, 2);
        assert_eq!(store.stats().fn_misses, 2);
        // the bad files were dropped; a re-put works again
        store.put(Tier::Function, fp(1), b"fresh").unwrap();
        assert_eq!(store.get(Tier::Function, fp(1)).unwrap(), b"fresh");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn valid_orphans_next_to_a_valid_index_are_adopted_at_open() {
        let dir = temp_store_dir("orphan-next-to-index");
        let store = CacheStore::open(&dir, "v1").unwrap();
        store.put(Tier::Function, fp(1), b"indexed").unwrap();
        store.flush().unwrap();
        // A sibling process's index flush raced ours (or a run died between
        // put and flush): the entry is on disk and valid, just unindexed.
        store.put(Tier::Function, fp(2), b"orphan").unwrap();
        drop(store);

        let store = CacheStore::open(&dir, "v1").unwrap();
        assert_eq!(store.entry_count(), 2, "valid orphans are adopted, not lost");
        assert_eq!(store.get(Tier::Function, fp(1)).unwrap(), b"indexed");
        assert_eq!(store.get(Tier::Function, fp(2)).unwrap(), b"orphan");
        // Adopted entries are indexed, so they are visible to the size cap…
        assert!(store.total_bytes() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_orphans_are_deleted_at_open_and_adoptees_are_coldest() {
        let dir = temp_store_dir("orphan-invalid");
        let store = CacheStore::open(&dir, "v1").unwrap();
        store.put(Tier::Function, fp(1), b"indexed").unwrap();
        store.flush().unwrap();
        store.put(Tier::Function, fp(2), b"orphan-valid").unwrap();
        drop(store);
        // a truncated orphan must not be adopted
        let bad = dir.join(format!("fn-{}.bin", fp(3).to_hex()));
        std::fs::write(&bad, b"FFSE-too-short").unwrap();

        let store = CacheStore::open(&dir, "v1").unwrap();
        assert_eq!(store.entry_count(), 2);
        assert!(!bad.exists(), "invalid orphan deleted");
        assert_eq!(store.stats().corrupt, 1);
        assert_eq!(store.stats().entries, 2, "stats() reports occupancy");
        assert_eq!(store.stats().live_bytes, store.total_bytes());
        // under cap pressure the adopted (last_used = 0) entry goes first
        store.set_cap_bytes(50);
        store.flush().unwrap();
        assert!(store.contains(Tier::Function, fp(1)), "indexed entry survives");
        assert!(!store.contains(Tier::Function, fp(2)), "adoptee evicted first");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_persists_an_index_immediately_so_siblings_cannot_wipe() {
        let dir = temp_store_dir("fresh-index");
        let store = CacheStore::open(&dir, "v1").unwrap();
        assert!(dir.join("index.bin").exists(), "fresh open writes the (empty) index");
        // process A writes an entry but has not flushed yet…
        let a = store;
        a.put(Tier::Function, fp(7), b"in-flight").unwrap();
        // …when process B opens the same directory: the persisted index
        // keeps B from reading "entries without an index" as an
        // interrupted store, and A's entry is adopted, not destroyed.
        let b = CacheStore::open(&dir, "v1").unwrap();
        assert_eq!(b.get(Tier::Function, fp(7)).unwrap(), b"in-flight");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_index_with_orphan_entries_wipes() {
        // An index-less directory containing entry files can only come
        // from an unknown producer (open() persists an index up front),
        // so nothing in it can be trusted: wipe.
        let dir = temp_store_dir("orphans");
        let store = CacheStore::open(&dir, "v1").unwrap();
        store.put(Tier::Function, fp(7), b"orphan").unwrap();
        drop(store);
        std::fs::remove_file(dir.join("index.bin")).unwrap();

        let store = CacheStore::open(&dir, "v1").unwrap();
        assert_eq!(store.entry_count(), 0);
        assert!(!dir.join(format!("fn-{}.bin", fp(7).to_hex())).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_shaped_files_with_unparseable_names_are_deleted_at_open() {
        let dir = temp_store_dir("badname");
        let store = CacheStore::open(&dir, "v1").unwrap();
        drop(store);
        let junk = dir.join("fn-not-hex-at-all.bin");
        std::fs::write(&junk, b"whatever").unwrap();
        let unrelated = dir.join("README");
        std::fs::write(&unrelated, b"keep me").unwrap();

        let _ = CacheStore::open(&dir, "v1").unwrap();
        assert!(!junk.exists(), "unaddressable entry-shaped files cannot be evicted; delete");
        assert!(unrelated.exists(), "non-entry files are left alone");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let dir = temp_store_dir("lru");
        let store = CacheStore::open(&dir, "v1").unwrap();
        let payload = vec![0u8; 100];
        for i in 0..10u64 {
            store.put(Tier::Function, fp(i), &payload).unwrap();
        }
        // touch the two oldest so they become the most recent
        assert!(store.get(Tier::Function, fp(0)).is_some());
        assert!(store.get(Tier::Function, fp(1)).is_some());
        // cap to roughly 4 entries (each file = payload + 32B header/sum)
        store.set_cap_bytes(4 * 132);
        store.flush().unwrap();
        assert!(store.entry_count() <= 4);
        assert!(store.contains(Tier::Function, fp(0)), "recently used survives");
        assert!(store.contains(Tier::Function, fp(1)), "recently used survives");
        assert!(!store.contains(Tier::Function, fp(2)), "cold entry evicted");
        assert!(store.stats().evictions >= 6);
        // evicted files are really gone
        assert!(!dir.join(format!("fn-{}.bin", fp(2).to_hex())).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_puts_of_one_key_all_succeed() {
        // Regression: temp names used to be per-process only, so two
        // threads writing one key shared a temp path — one rename failed
        // or moved the other thread's half-written file into place.
        let dir = temp_store_dir("concurrent-put");
        let store = CacheStore::open(&dir, "v1").unwrap();
        let payload = vec![0xabu8; 64 * 1024];
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        store.put(Tier::Function, fp(42), &payload)
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap().expect("every concurrent put succeeds");
            }
        });
        assert_eq!(store.get(Tier::Function, fp(42)).unwrap(), payload);
        assert_eq!(store.stats().corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_parts_separates_fields() {
        assert_ne!(fingerprint_parts(&[b"ab", b"c"]), fingerprint_parts(&[b"a", b"bc"]));
        assert_eq!(fingerprint_parts(&[b"ab", b"c"]), fingerprint_parts(&[b"ab", b"c"]));
    }
}
