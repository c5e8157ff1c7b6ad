//! The content-addressed result store.
//!
//! Results live in an in-memory `BTreeMap` keyed by the 128-bit job
//! [`Digest`]; a cache may additionally be backed by a directory holding
//! a **sharded, log-structured** store: [`SHARD_COUNT`] append-only
//! segment files, each owning the digests whose top hex digit matches
//! the shard id. A segment is a sequence of length-prefixed entries
//! (`axcc1 <32-hex digest> <body len>\n` followed by exactly that many
//! bytes of encoded [`Record`]); an in-memory per-shard index from
//! digest to byte range is rebuilt by scanning the segment the first
//! time the shard is touched. Later entries for the same digest win
//! during the scan, so an append is also an overwrite — there is no
//! in-place mutation anywhere in the format.
//!
//! Because the address is a content hash of *all* inputs including the
//! engine version, entries never go stale — a stale input simply hashes
//! elsewhere — so there is no eviction machinery; segments are compacted
//! (latest entry per digest, temp file + rename) only when they outgrow
//! the rotation threshold. A cold sweep therefore creates O(shards)
//! files regardless of job count.
//!
//! Disk I/O is strictly best-effort: a segment whose tail was truncated
//! by a killed process is healed by truncating back to the last whole
//! entry (the lost tail re-runs as misses), an entry whose body fails to
//! decode is dropped from the index (miss, recompute, re-append), and
//! write failures are swallowed — a broken cache directory may cost
//! time, never correctness.

use crate::record::Record;
use axcc_core::fingerprint::Digest;
use std::collections::BTreeMap;
use std::fs;
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of segment shards in an on-disk store: the shard id is the
/// leading hex digit of the digest.
pub const SHARD_COUNT: usize = 16;

/// Default segment size above which a shard is compacted and rewritten.
const DEFAULT_ROTATE_BYTES: u64 = 8 * 1024 * 1024;

/// Leading magic token of every segment entry header.
const ENTRY_MAGIC: &str = "axcc1";

/// Monotonic suffix source for temp-file names, so concurrent rotations
/// in one process never collide. (Cross-process uniqueness comes from the
/// process id in the name.)
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Byte range of one indexed record body inside its segment file.
#[derive(Debug, Clone, Copy)]
struct Span {
    offset: u64,
    len: u32,
}

/// One segment shard: lazily opened, then an index over the segment file.
#[derive(Debug, Default)]
struct Shard {
    opened: bool,
    index: BTreeMap<Digest, Span>,
    /// Current segment length in bytes (append position).
    bytes: u64,
}

/// The on-disk half of a cache: a directory of segment shards.
#[derive(Debug)]
struct DiskStore {
    dir: PathBuf,
    rotate_bytes: u64,
    shards: Vec<Mutex<Shard>>,
}

/// Per-shard occupancy as reported by [`ResultCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Live (indexed) entries in the shard.
    pub entries: usize,
    /// Current segment file size in bytes, including superseded entries.
    pub segment_bytes: u64,
}

/// Counters and occupancy for one cache, as rendered by
/// `axcc sweep --cache-stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered (from memory or disk).
    pub hits: u64,
    /// Lookups that found nothing (the job re-ran).
    pub misses: u64,
    /// Corruption repairs: truncated segment tails and entries whose body
    /// failed to decode, both healed into plain misses.
    pub heal_events: u64,
    /// Entries currently held in memory.
    pub mem_entries: usize,
    /// Per-shard occupancy; empty for purely in-memory caches.
    pub shards: Vec<ShardStats>,
}

impl CacheStats {
    /// Total live entries across all disk shards.
    pub fn disk_entries(&self) -> usize {
        self.shards.iter().map(|s| s.entries).sum()
    }

    /// Total segment bytes across all disk shards.
    pub fn segment_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.segment_bytes).sum()
    }
}

/// In-memory + optional on-disk record store, shared across worker
/// threads.
#[derive(Debug)]
pub struct ResultCache {
    mem: Mutex<BTreeMap<Digest, Record>>,
    disk: Option<DiskStore>,
    hits: AtomicU64,
    misses: AtomicU64,
    heals: AtomicU64,
}

impl ResultCache {
    fn with_disk_opt(disk: Option<DiskStore>) -> Self {
        ResultCache {
            mem: Mutex::new(BTreeMap::new()),
            disk,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            heals: AtomicU64::new(0),
        }
    }

    /// Purely in-memory cache (lives as long as the process).
    pub fn in_memory() -> Self {
        Self::with_disk_opt(None)
    }

    /// Cache backed by `dir` (created on first write). Entries persist
    /// across processes, which is what makes warm re-runs of the
    /// experiment suite near-free.
    pub fn with_disk(dir: PathBuf) -> Self {
        Self::with_disk_rotate_at(dir, DEFAULT_ROTATE_BYTES)
    }

    /// [`with_disk`](Self::with_disk) with an explicit segment rotation
    /// threshold, for tests that need to exercise compaction without
    /// writing megabytes.
    pub fn with_disk_rotate_at(dir: PathBuf, rotate_bytes: u64) -> Self {
        let shards = (0..SHARD_COUNT)
            .map(|_| Mutex::new(Shard::default()))
            .collect();
        Self::with_disk_opt(Some(DiskStore {
            dir,
            rotate_bytes,
            shards,
        }))
    }

    /// Look up a record; disk hits are promoted into memory.
    ///
    /// An indexed entry whose body no longer decodes (bit rot, a stray
    /// editor) is dropped from the index and treated as a miss, so the
    /// re-computed result can be appended again — otherwise a corrupt
    /// entry would shadow its own address forever and every warm run
    /// would silently pay for the same re-computation.
    pub fn get(&self, digest: &Digest) -> Option<Record> {
        if let Some(rec) = self.lock_mem().get(digest) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(rec.clone());
        }
        let Some(rec) = self.disk_get(digest) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.lock_mem().insert(*digest, rec.clone());
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(rec)
    }

    /// Store a record under its content address.
    pub fn put(&self, digest: Digest, record: Record) {
        self.put_batch(vec![(digest, record)]);
    }

    /// Store a batch of records, paying the shard locks and the segment
    /// appends once per shard instead of once per record. This is the
    /// write path of chunked dispatch: a worker flushes its whole chunk
    /// here in one call.
    pub fn put_batch(&self, entries: Vec<(Digest, Record)>) {
        if entries.is_empty() {
            return;
        }
        if let Some(disk) = &self.disk {
            // Group by shard so each segment is appended to exactly once.
            let mut by_shard: Vec<Vec<&(Digest, Record)>> =
                (0..SHARD_COUNT).map(|_| Vec::new()).collect();
            for entry in &entries {
                by_shard[shard_of(&entry.0)].push(entry);
            }
            for (id, group) in by_shard.iter().enumerate() {
                if !group.is_empty() {
                    disk.append(id, group, &self.heals);
                }
            }
        }
        let mut mem = self.lock_mem();
        for (digest, record) in entries {
            mem.insert(digest, record);
        }
    }

    /// Number of entries currently held in memory.
    pub fn len(&self) -> usize {
        self.lock_mem().len()
    }

    /// Whether the in-memory store is empty.
    pub fn is_empty(&self) -> bool {
        self.lock_mem().is_empty()
    }

    /// Counters and per-shard occupancy. Opens (scans) any shard not yet
    /// touched, so the numbers reflect the directory, not just this
    /// process's traffic.
    pub fn stats(&self) -> CacheStats {
        let mut shards = Vec::new();
        if let Some(disk) = &self.disk {
            for id in 0..SHARD_COUNT {
                let mut shard = disk.lock_shard(id);
                disk.ensure_open(id, &mut shard, &self.heals);
                shards.push(ShardStats {
                    entries: shard.index.len(),
                    segment_bytes: shard.bytes,
                });
            }
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            heal_events: self.heals.load(Ordering::Relaxed),
            mem_entries: self.len(),
            shards,
        }
    }

    /// Disk half of [`get`](Self::get): index lookup, then a seek+read of
    /// the body bytes.
    fn disk_get(&self, digest: &Digest) -> Option<Record> {
        let disk = self.disk.as_ref()?;
        let id = shard_of(digest);
        let mut shard = disk.lock_shard(id);
        disk.ensure_open(id, &mut shard, &self.heals);
        let span = *shard.index.get(digest)?;
        let Some(rec) = disk.read_span(id, span) else {
            // Heal-by-forgetting: drop the poisoned index entry so the
            // recomputed result can take the address back.
            shard.index.remove(digest);
            self.heals.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        Some(rec)
    }

    /// Lock the map, recovering from poisoning: a worker that panicked
    /// mid-insert leaves the map structurally intact (inserts are
    /// atomic at this level), so the data is still usable.
    fn lock_mem(&self) -> MutexGuard<'_, BTreeMap<Digest, Record>> {
        self.mem.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shard owning `digest`: its leading hex digit.
fn shard_of(digest: &Digest) -> usize {
    (digest.hi >> 60) as usize
}

impl DiskStore {
    fn segment_path(&self, id: usize) -> PathBuf {
        self.dir.join(format!("shard-{id:02x}.seg"))
    }

    /// Lock one shard, recovering from poisoning (the index is only ever
    /// updated after a successful write, so it is structurally sound).
    fn lock_shard(&self, id: usize) -> MutexGuard<'_, Shard> {
        self.shards[id]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// First-touch opening: scan the segment into the index (truncating a
    /// corrupt tail).
    fn ensure_open(&self, id: usize, shard: &mut Shard, heals: &AtomicU64) {
        if shard.opened {
            return;
        }
        shard.opened = true;
        self.scan_segment(id, shard, heals);
    }

    /// Build the index by walking the segment's entries; on the first
    /// malformed header or short body, truncate the file back to the end
    /// of the last whole entry (one heal event) — the lost tail simply
    /// re-runs as misses.
    fn scan_segment(&self, id: usize, shard: &mut Shard, heals: &AtomicU64) {
        let path = self.segment_path(id);
        let Ok(bytes) = fs::read(&path) else {
            return;
        };
        let mut pos: usize = 0;
        loop {
            if pos == bytes.len() {
                shard.bytes = pos as u64;
                return;
            }
            let Some((digest, body_len, body_start)) = parse_entry_header(&bytes, pos) else {
                break;
            };
            let body_end = body_start + body_len;
            if body_end > bytes.len() {
                break;
            }
            shard.index.insert(
                digest,
                Span {
                    offset: body_start as u64,
                    len: body_len as u32,
                },
            );
            pos = body_end;
        }
        // Corrupt tail: keep the healthy prefix, drop the rest.
        heals.fetch_add(1, Ordering::Relaxed);
        shard.bytes = pos as u64;
        if let Ok(f) = fs::OpenOptions::new().write(true).open(&path) {
            let _ = f.set_len(pos as u64);
        }
    }

    /// Append a group of records to shard `id` in one buffered segment
    /// write, updating the index on success and rotating if the segment
    /// outgrew the threshold. Best-effort: a full disk degrades to an
    /// in-memory cache, silently.
    fn append(&self, id: usize, group: &[&(Digest, Record)], heals: &AtomicU64) {
        let mut shard = self.lock_shard(id);
        self.ensure_open(id, &mut shard, heals);
        if fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let mut buf = Vec::new();
        let mut spans = Vec::with_capacity(group.len());
        for (digest, record) in group.iter().copied() {
            let body = record.encode();
            let header = format!("{ENTRY_MAGIC} {} {}\n", digest.to_hex(), body.len());
            let offset = shard.bytes + (buf.len() + header.len()) as u64;
            buf.extend_from_slice(header.as_bytes());
            buf.extend_from_slice(body.as_bytes());
            spans.push((
                *digest,
                Span {
                    offset,
                    len: body.len() as u32,
                },
            ));
        }
        let written = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.segment_path(id))
            .and_then(|mut f| f.write_all(&buf))
            .is_ok();
        if written {
            shard.bytes += buf.len() as u64;
            for (digest, span) in spans {
                shard.index.insert(digest, span);
            }
        }
        if shard.bytes > self.rotate_bytes {
            self.rotate(id, &mut shard);
        }
    }

    /// Seek+read one indexed body and decode it.
    fn read_span(&self, id: usize, span: Span) -> Option<Record> {
        let mut f = fs::File::open(self.segment_path(id)).ok()?;
        f.seek(SeekFrom::Start(span.offset)).ok()?;
        let mut body = vec![0u8; span.len as usize];
        f.read_exact(&mut body).ok()?;
        Record::decode(std::str::from_utf8(&body).ok()?)
    }

    /// Compaction: rewrite the segment with only the live (indexed)
    /// entries, via temp file + rename so a concurrent reader never sees
    /// a half-written segment. Best-effort — on any failure the oversized
    /// segment simply keeps growing until the next rotation attempt.
    fn rotate(&self, id: usize, shard: &mut Shard) {
        let mut live: Vec<(Digest, Record)> = Vec::with_capacity(shard.index.len());
        for (digest, span) in &shard.index {
            let Some(rec) = self.read_span(id, *span) else {
                return;
            };
            live.push((*digest, rec));
        }
        let mut buf = Vec::new();
        let mut index = BTreeMap::new();
        for (digest, record) in &live {
            let body = record.encode();
            let header = format!("{ENTRY_MAGIC} {} {}\n", digest.to_hex(), body.len());
            index.insert(
                *digest,
                Span {
                    offset: (buf.len() + header.len()) as u64,
                    len: body.len() as u32,
                },
            );
            buf.extend_from_slice(header.as_bytes());
            buf.extend_from_slice(body.as_bytes());
        }
        let suffix = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".rotate-{id:02x}-{}-{suffix}", std::process::id()));
        if fs::write(&tmp, &buf).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        if fs::rename(&tmp, self.segment_path(id)).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        shard.index = index;
        shard.bytes = buf.len() as u64;
    }
}

/// Parse one `axcc1 <32-hex digest> <len>\n` header starting at `pos`;
/// returns the digest, body length, and the offset where the body starts.
fn parse_entry_header(bytes: &[u8], pos: usize) -> Option<(Digest, usize, usize)> {
    // Headers are short; cap the newline scan so a garbage blob cannot
    // make us walk the whole segment.
    let window_end = bytes.len().min(pos + 64);
    let nl = bytes[pos..window_end].iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&bytes[pos..pos + nl]).ok()?;
    let mut parts = line.split(' ');
    if parts.next() != Some(ENTRY_MAGIC) {
        return None;
    }
    let digest = Digest::from_hex(parts.next()?)?;
    let body_len: usize = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((digest, body_len, pos + nl + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcc_core::fingerprint::Fingerprint;
    use std::path::Path;

    fn digest_of(tag: &str) -> Digest {
        tag.digest()
    }

    fn record_of(v: f64) -> Record {
        let mut r = Record::new();
        r.push_f64(v);
        r
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("axcc-sweep-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn segment_files(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(dir)
            .map(|rd| {
                rd.flatten()
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|e| e == "seg"))
                    .collect()
            })
            .unwrap_or_default();
        files.sort();
        files
    }

    #[test]
    fn memory_get_put() {
        let cache = ResultCache::in_memory();
        let d = digest_of("k1");
        assert!(cache.get(&d).is_none());
        cache.put(d, record_of(1.5));
        assert_eq!(cache.get(&d), Some(record_of(1.5)));
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(stats.shards.is_empty());
    }

    #[test]
    fn disk_round_trip_through_segments() {
        let dir = temp_dir("segrt");
        let cache = ResultCache::with_disk(dir.clone());
        let d = digest_of("disk-key");
        cache.put(d, record_of(f64::INFINITY));

        // A fresh cache over the same directory sees the entry…
        let warm = ResultCache::with_disk(dir.clone());
        let rec = warm.get(&d).unwrap();
        assert_eq!(rec.reader().f64().unwrap(), f64::INFINITY);
        // …and the directory holds segment files, not per-digest files.
        assert_eq!(segment_files(&dir).len(), 1);
        assert!(!dir.join(d.to_hex()).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_put_lands_every_entry_in_one_pass() {
        let dir = temp_dir("batch");
        let cache = ResultCache::with_disk(dir.clone());
        let entries: Vec<(Digest, Record)> = (0..64)
            .map(|i| (digest_of(&format!("b{i}")), record_of(i as f64)))
            .collect();
        cache.put_batch(entries.clone());
        // Cold-run peak file count is O(shards), not O(jobs).
        assert!(segment_files(&dir).len() <= SHARD_COUNT);
        let warm = ResultCache::with_disk(dir.clone());
        for (d, r) in &entries {
            assert_eq!(warm.get(d).as_ref(), Some(r));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_record_body_heals_as_a_miss() {
        let dir = temp_dir("garbage");
        let cache = ResultCache::with_disk(dir.clone());
        let d = digest_of("poisoned");
        cache.put(d, record_of(2.0));
        // Overwrite the segment with a validly framed entry whose body
        // does not decode as a Record.
        let seg = segment_files(&dir).pop().unwrap();
        let body = "not a record";
        fs::write(
            &seg,
            format!("{ENTRY_MAGIC} {} {}\n{body}", d.to_hex(), body.len()),
        )
        .unwrap();

        let cold = ResultCache::with_disk(dir.clone());
        assert!(cold.get(&d).is_none(), "undecodable body is a miss");
        assert_eq!(cold.stats().heal_events, 1);
        // Recompute-and-persist round-trips: the next put re-appends and
        // a fresh cache reads it back.
        cold.put(d, record_of(2.25));
        let recovered = ResultCache::with_disk(dir.clone());
        assert_eq!(recovered.get(&d), Some(record_of(2.25)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_healed_and_earlier_entries_survive() {
        let dir = temp_dir("tail");
        let cache = ResultCache::with_disk(dir.clone());
        let keep_a = digest_of("keep-a");
        let keep_b = digest_of("keep-b");
        let lost = digest_of("lost");
        // Force all three into one shard by brute-forcing tags? No —
        // put each, then truncate every segment by a few bytes; only the
        // shard(s) holding a final entry lose it.
        cache.put(keep_a, record_of(1.0));
        cache.put(keep_b, record_of(2.0));
        cache.put(lost, record_of(3.0));
        let lost_shard = shard_of(&lost);
        let seg = dir.join(format!("shard-{lost_shard:02x}.seg"));
        let len = fs::metadata(&seg).unwrap().len();
        // Chop mid-body: the last entry in that shard no longer parses.
        fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        let cold = ResultCache::with_disk(dir.clone());
        assert!(cold.get(&lost).is_none(), "chopped entry is a miss");
        assert!(cold.stats().heal_events >= 1);
        // Entries in other shards (and any whole prefix of the chopped
        // shard) still read back.
        for (d, v) in [(keep_a, 1.0), (keep_b, 2.0)] {
            if shard_of(&d) != lost_shard {
                assert_eq!(cold.get(&d), Some(record_of(v)));
            }
        }
        // The healed shard accepts appends again.
        cold.put(lost, record_of(3.5));
        let recovered = ResultCache::with_disk(dir.clone());
        assert_eq!(recovered.get(&lost), Some(record_of(3.5)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_segments_rotate_and_stay_readable() {
        let dir = temp_dir("rotate");
        let cache = ResultCache::with_disk_rotate_at(dir.clone(), 256);
        let d = digest_of("churny");
        // Re-put the same address many times: the segment grows with
        // superseded entries until rotation compacts it to one.
        for i in 0..64 {
            cache.put(d, record_of(i as f64));
        }
        let stats = cache.stats();
        let shard = &stats.shards[shard_of(&d)];
        assert_eq!(shard.entries, 1);
        assert!(
            shard.segment_bytes <= 256,
            "rotation should have compacted the segment ({} bytes)",
            shard.segment_bytes
        );
        assert_eq!(cache.get(&d), Some(record_of(63.0)));
        // No temp files left behind, still O(shards) files total.
        let files: Vec<_> = fs::read_dir(&dir).unwrap().flatten().collect();
        assert!(files.len() <= SHARD_COUNT);
        let warm = ResultCache::with_disk(dir.clone());
        assert_eq!(warm.get(&d), Some(record_of(63.0)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_entries_override_earlier_ones_on_scan() {
        let dir = temp_dir("override");
        let d = digest_of("versioned");
        {
            let cache = ResultCache::with_disk(dir.clone());
            cache.put(d, record_of(1.0));
            cache.put(d, record_of(2.0));
        }
        let warm = ResultCache::with_disk(dir.clone());
        assert_eq!(warm.get(&d), Some(record_of(2.0)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_report_shard_occupancy() {
        let dir = temp_dir("stats");
        let cache = ResultCache::with_disk(dir.clone());
        let entries: Vec<(Digest, Record)> = (0..32)
            .map(|i| (digest_of(&format!("s{i}")), record_of(i as f64)))
            .collect();
        cache.put_batch(entries);
        let stats = cache.stats();
        assert_eq!(stats.shards.len(), SHARD_COUNT);
        assert_eq!(stats.disk_entries(), 32);
        assert!(stats.segment_bytes() > 0);
        assert_eq!(stats.mem_entries, 32);
        let _ = fs::remove_dir_all(&dir);
    }
}
