//! The content-addressed result store.
//!
//! A cache is [`SHARD_COUNT`] shards, each owning the 128-bit job
//! [`Digest`]s whose leading hex digit is the shard id. A shard's one
//! copy of its entries is an in-memory **segment**: a log of
//! length-prefixed entries (`axcc1 <32-hex digest> <body len>\n`
//! followed by exactly that many bytes of encoded [`Record`]) plus an
//! index from digest to the body's byte range in that log. Every lookup
//! is answered from it — an index probe and a decode, no syscall. Later
//! entries for the same digest win, so an append is also an overwrite;
//! nothing is mutated in place.
//!
//! A cache may be backed by a directory holding one segment file per
//! shard in the same format. The first touch of a shard reads its file
//! into the in-memory segment; every append extends the in-memory segment
//! and then writes the same bytes to the end of the file, which is thus a
//! mirror that the next process reads back. A handle never reads a file
//! again after that first scan, so another handle appending to or
//! compacting the same directory cannot change what this one returns.
//!
//! Because the address is a content hash of *all* inputs including the
//! engine version, entries never go stale — a stale input simply hashes
//! elsewhere — so there is no eviction machinery; a segment is compacted
//! (latest entry per digest) only when it outgrows the rotation
//! threshold, and its file is then replaced by the compacted copy (temp
//! file + rename). A cold sweep therefore creates O(shards) files
//! regardless of job count.
//!
//! File I/O is strictly best-effort: a segment whose tail was truncated
//! by a killed process is healed by truncating back to the last whole
//! entry (the lost tail re-runs as misses), an entry whose body fails to
//! decode is dropped from the index (miss, recompute, re-append), and
//! write failures are swallowed — the in-memory segment already holds
//! the entry, so a broken cache directory may cost the next process
//! time, never correctness.

use crate::record::Record;
use axcc_core::fingerprint::Digest;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of segment shards in a store: the shard id is the leading hex
/// digit of the digest.
pub const SHARD_COUNT: usize = 16;

/// Default segment size above which a shard is compacted and rewritten.
const DEFAULT_ROTATE_BYTES: u64 = 8 * 1024 * 1024;

/// Leading magic token of every segment entry header.
const ENTRY_MAGIC: &str = "axcc1";

/// Monotonic suffix source for temp-file names, so concurrent rotations
/// in one process never collide. (Cross-process uniqueness comes from the
/// process id in the name.)
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One shard's entries: the segment log and the index into it.
#[derive(Debug, Default)]
struct Segment {
    /// Whether the shard's file has been read in (a cache without a
    /// directory has none to read).
    opened: bool,
    bytes: Vec<u8>,
    /// Digest → byte range of its latest body in `bytes`.
    index: BTreeMap<Digest, Range<usize>>,
    /// The length the last compaction left `bytes` at, if that was still
    /// over the rotation threshold (0 otherwise): live entries alone
    /// outgrow it, so the next compaction waits for another threshold's
    /// worth of appends instead of rewriting the shard on every put.
    compacted_over: u64,
}

/// One shard and the lock that orders its file writes.
#[derive(Debug, Default)]
struct Shard {
    /// The lookup state; [`ResultCache::get`] takes only this lock.
    segment: Mutex<Segment>,
    /// Held across this handle's writes to the shard's file, so appends
    /// and compactions reach the file in the order they reached the
    /// segment while `segment` stays free for lookups.
    file: Mutex<()>,
}

/// One shard's share of a batch, framed as segment entries.
#[derive(Debug, Default)]
struct Framed {
    bytes: Vec<u8>,
    /// Each entry's digest and the byte range of its body in `bytes`.
    bodies: Vec<(Digest, Range<usize>)>,
}

/// Per-shard occupancy as reported by [`ResultCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Live (indexed) entries in the shard.
    pub entries: usize,
    /// Current segment size in bytes, including superseded entries; the
    /// segment file mirrors it.
    pub segment_bytes: u64,
}

/// Counters and occupancy for one cache, as rendered by
/// `axcc sweep --cache-stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered.
    pub hits: u64,
    /// Lookups that found nothing (the job re-ran).
    pub misses: u64,
    /// Corruption repairs: truncated segment tails and entries whose body
    /// failed to decode, both healed into plain misses.
    pub heal_events: u64,
    /// Live entries (latest per digest) across all shards.
    pub live_entries: usize,
    /// Per-shard occupancy; empty for caches without a directory.
    pub shards: Vec<ShardStats>,
}

impl CacheStats {
    /// Total segment bytes across all shards.
    pub fn segment_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.segment_bytes).sum()
    }
}

/// Sharded record store, optionally mirrored to a directory, shared
/// across worker threads.
#[derive(Debug)]
pub struct ResultCache {
    dir: Option<PathBuf>,
    rotate_bytes: u64,
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
    heals: AtomicU64,
}

impl ResultCache {
    fn new(dir: Option<PathBuf>, rotate_bytes: u64) -> Self {
        ResultCache {
            dir,
            rotate_bytes,
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            heals: AtomicU64::new(0),
        }
    }

    /// Purely in-memory cache (lives as long as the process).
    pub fn in_memory() -> Self {
        Self::new(None, DEFAULT_ROTATE_BYTES)
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
        Self::new(Some(dir), rotate_bytes)
    }

    /// Look up a record, decoding it from the shard's in-memory segment.
    ///
    /// An indexed entry whose body no longer decodes (bit rot, a stray
    /// editor) is dropped from the index and treated as a miss, so the
    /// re-computed result can be appended again — otherwise a corrupt
    /// entry would shadow its own address forever and every warm run
    /// would silently pay for the same re-computation.
    pub fn get(&self, digest: &Digest) -> Option<Record> {
        let id = shard_of(digest);
        let mut segment = lock(&self.shards[id].segment);
        self.open(id, &mut segment);
        let found = segment.index.get(digest).map(|range| {
            segment
                .bytes
                .get(range.clone())
                .and_then(|body| Record::decode(std::str::from_utf8(body).ok()?))
        });
        match found {
            Some(Some(record)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(record)
            }
            Some(None) => {
                // Heal-by-forgetting: drop the poisoned index entry so the
                // recomputed result can take the address back.
                segment.index.remove(digest);
                self.heals.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
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
        // Frame each shard's entries before taking a lock.
        let mut groups: Vec<Framed> = (0..SHARD_COUNT).map(|_| Framed::default()).collect();
        for (digest, record) in &entries {
            let group = &mut groups[shard_of(digest)];
            let body = push_entry(&mut group.bytes, digest, record.encode().as_bytes());
            group.bodies.push((*digest, body));
        }
        for (id, group) in groups.into_iter().enumerate() {
            if !group.bodies.is_empty() {
                self.append(id, group);
            }
        }
    }

    /// Number of live entries (opens every shard, like
    /// [`stats`](Self::stats)).
    pub fn len(&self) -> usize {
        self.stats().live_entries
    }

    /// Whether the cache holds no live entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters and per-shard occupancy. Opens (scans) any shard not yet
    /// touched, so the numbers reflect the directory, not just this
    /// process's traffic.
    pub fn stats(&self) -> CacheStats {
        let mut live_entries = 0;
        let mut shards = Vec::new();
        for (id, shard) in self.shards.iter().enumerate() {
            let mut segment = lock(&shard.segment);
            self.open(id, &mut segment);
            live_entries += segment.index.len();
            if self.dir.is_some() {
                shards.push(ShardStats {
                    entries: segment.index.len(),
                    segment_bytes: segment.bytes.len() as u64,
                });
            }
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            heal_events: self.heals.load(Ordering::Relaxed),
            live_entries,
            shards,
        }
    }

    fn segment_path(&self, id: usize) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        Some(dir.join(format!("shard-{id:02x}.seg")))
    }

    /// First touch: read the shard's file into its segment and index
    /// every whole entry. On the first malformed header or short body the
    /// file is truncated back to the end of the last whole entry (one heal
    /// event) — the lost tail simply re-runs as misses.
    fn open(&self, id: usize, segment: &mut Segment) {
        if segment.opened {
            return;
        }
        segment.opened = true;
        let Some(path) = self.segment_path(id) else {
            return;
        };
        let Ok(bytes) = fs::read(&path) else {
            return;
        };
        segment.bytes = bytes;
        let mut pos = 0;
        while pos < segment.bytes.len() {
            let Some((digest, body)) = parse_entry(&segment.bytes, pos) else {
                break;
            };
            pos = body.end;
            segment.index.insert(digest, body);
        }
        if pos < segment.bytes.len() {
            // Corrupt tail: keep the healthy prefix, drop the rest.
            self.heals.fetch_add(1, Ordering::Relaxed);
            segment.bytes.truncate(pos);
            if let Ok(f) = fs::OpenOptions::new().write(true).open(&path) {
                let _ = f.set_len(pos as u64);
            }
        }
    }

    /// Add a shard's framed entries to its segment, compacting it once it
    /// outgrows the threshold (see `Segment::compacted_over`), and mirror
    /// the change to the file after releasing the segment lock.
    fn append(&self, id: usize, group: Framed) {
        let shard = &self.shards[id];
        let _file = lock(&shard.file);
        let compacted = {
            let mut segment = lock(&shard.segment);
            self.open(id, &mut segment);
            let base = segment.bytes.len();
            segment.bytes.extend_from_slice(&group.bytes);
            for (digest, body) in group.bodies {
                segment
                    .index
                    .insert(digest, base + body.start..base + body.end);
            }
            if segment.bytes.len() as u64 > self.rotate_bytes + segment.compacted_over {
                segment.compact();
                let len = segment.bytes.len() as u64;
                segment.compacted_over = if len > self.rotate_bytes { len } else { 0 };
                self.dir.is_some().then(|| segment.bytes.clone())
            } else {
                None
            }
        };
        let (Some(dir), Some(path)) = (&self.dir, self.segment_path(id)) else {
            return;
        };
        if fs::create_dir_all(dir).is_err() {
            return;
        }
        match compacted {
            Some(bytes) => replace_file(dir, id, &path, &bytes),
            None => {
                let _ = fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(&path)
                    .and_then(|mut f| f.write_all(&group.bytes));
            }
        }
    }
}

impl Segment {
    /// Rewrite the log with only the live (indexed) entries, in digest
    /// order.
    fn compact(&mut self) {
        let mut bytes = Vec::new();
        let mut index = BTreeMap::new();
        for (digest, body) in &self.index {
            let body = self.bytes.get(body.clone()).unwrap_or_default();
            index.insert(*digest, push_entry(&mut bytes, digest, body));
        }
        self.bytes = bytes;
        self.index = index;
    }
}

/// Replace a segment file with `bytes` via temp file + rename, so a
/// concurrent reader never sees a half-written segment. Best-effort — on
/// any failure the old file stays, and every entry it holds is still
/// well-formed.
fn replace_file(dir: &Path, id: usize, path: &Path, bytes: &[u8]) {
    let suffix = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".rotate-{id:02x}-{}-{suffix}", std::process::id()));
    if fs::write(&tmp, bytes)
        .and_then(|()| fs::rename(&tmp, path))
        .is_err()
    {
        let _ = fs::remove_file(&tmp);
    }
}

/// Lock a mutex, recovering from poisoning: segments and indexes are only
/// changed by whole pushes and swaps, so a panicking holder leaves them
/// structurally sound.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shard owning `digest`: its leading hex digit.
fn shard_of(digest: &Digest) -> usize {
    (digest.hi >> 60) as usize
}

/// Append one entry (header, then `body`) to `buf`; returns the body's
/// byte range in `buf`.
fn push_entry(buf: &mut Vec<u8>, digest: &Digest, body: &[u8]) -> Range<usize> {
    // Writing into a `Vec` cannot fail.
    let _ = writeln!(buf, "{ENTRY_MAGIC} {digest} {}", body.len());
    let start = buf.len();
    buf.extend_from_slice(body);
    start..buf.len()
}

/// Parse the whole entry starting at `pos` — an `axcc1 <32-hex digest>
/// <len>\n` header and exactly `len` body bytes: its digest and the byte
/// range of its body; `None` if the header is malformed or the body is
/// cut off.
fn parse_entry(bytes: &[u8], pos: usize) -> Option<(Digest, Range<usize>)> {
    let header = bytes.get(pos..)?.strip_prefix(ENTRY_MAGIC.as_bytes())?;
    let header = header.strip_prefix(b" ")?;
    let (hex, header) = header.split_at_checked(32)?;
    let digest = Digest::from_hex(std::str::from_utf8(hex).ok()?)?;
    let header = header.strip_prefix(b" ")?;
    // A header is at most 64 bytes; capping the newline scan keeps a
    // garbage blob from making us walk the whole segment.
    let digits = header.iter().take(25).position(|&b| b == b'\n')?;
    let body_len: usize = std::str::from_utf8(&header[..digits]).ok()?.parse().ok()?;
    let start = bytes.len() - header.len() + digits + 1;
    let end = start.checked_add(body_len)?;
    (end <= bytes.len()).then_some((digest, start..end))
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

    /// Three digests sharing one shard, in digest order.
    fn same_shard_digests(tag: &str) -> [Digest; 3] {
        let first = digest_of(&format!("{tag}-0"));
        let mut found: Vec<Digest> = (0..)
            .map(|i| digest_of(&format!("{tag}-{i}")))
            .filter(|d| shard_of(d) == shard_of(&first))
            .take(3)
            .collect();
        found.sort();
        [found[0], found[1], found[2]]
    }

    #[test]
    fn a_rotation_by_another_handle_never_returns_another_digests_record() {
        let dir = temp_dir("foreign-rotate");
        let [lo, mid, hi] = same_shard_digests("foreign-rotate");
        let writer = ResultCache::with_disk(dir.clone());
        writer.put(hi, record_of(1.0));
        writer.put(mid, record_of(2.0));
        // R indexes the shard: hi's body sits at the start of the segment.
        let reader = ResultCache::with_disk(dir.clone());
        assert_eq!(reader.get(&mid), Some(record_of(2.0)));
        // Another handle compacts the shard: the segment is rewritten in
        // digest order, so lo's equal-length body now starts where hi's did.
        ResultCache::with_disk_rotate_at(dir.clone(), 1).put(lo, record_of(3.0));
        assert_eq!(reader.get(&hi), Some(record_of(1.0)));
        let _ = fs::remove_dir_all(&dir);
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

    #[cfg(unix)]
    #[test]
    fn a_shard_whose_live_entries_outgrow_the_threshold_is_not_rewritten_on_every_put() {
        use std::os::unix::fs::MetadataExt;
        let dir = temp_dir("live-over");
        let cache = ResultCache::with_disk_rotate_at(dir.clone(), 256);
        let id = shard_of(&digest_of("live-over-0"));
        let path = dir.join(format!("shard-{id:02x}.seg"));
        let file = || fs::metadata(&path).map(|m| (m.ino(), m.len())).ok();
        // Unique digests in one shard: compaction can drop nothing.
        let digests: Vec<Digest> = (0..)
            .map(|i| digest_of(&format!("live-over-{i}")))
            .filter(|d| shard_of(d) == id)
            .take(40)
            .collect();
        let mut next = digests.iter().enumerate();
        // Fill until a put compacts the shard (the file is replaced, so its
        // inode changes) and leaves it over the threshold.
        loop {
            let (i, d) = next.next().expect("the shard outgrows 256 bytes");
            let before = file();
            cache.put(*d, record_of(i as f64));
            let (inode, len) = file().expect("the segment file exists");
            if before.is_some_and(|(b, _)| b != inode) && len > 256 {
                break;
            }
        }
        // Less than another threshold's worth of puts appends to the same
        // file instead of compacting and rewriting it on every put.
        let (inode, start) = file().unwrap();
        for (i, d) in next.by_ref().take(3) {
            cache.put(*d, record_of(i as f64));
            assert_eq!(file().unwrap().0, inode, "put {i} rewrote the segment file");
        }
        assert!(file().unwrap().1 - start < 256);
        // Another threshold's worth compacts again.
        let rewritten = next.any(|(i, d)| {
            cache.put(*d, record_of(i as f64));
            file().unwrap().0 != inode
        });
        assert!(rewritten, "the segment was never compacted again");
        // Every record put, in digest-list order, reads back from a fresh
        // handle.
        let put = cache.len();
        let warm = ResultCache::with_disk(dir.clone());
        assert_eq!(warm.len(), put);
        for (i, d) in digests[..put].iter().enumerate() {
            assert_eq!(warm.get(d), Some(record_of(i as f64)));
        }
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
        assert_eq!(stats.shards.iter().map(|s| s.entries).sum::<usize>(), 32);
        assert!(stats.segment_bytes() > 0);
        assert_eq!(stats.live_entries, 32);
        let _ = fs::remove_dir_all(&dir);
    }
}
