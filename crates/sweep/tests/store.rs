//! Round-trip properties of the sharded log-structured result store:
//! arbitrary records append, reopen, index, and read back bit-identical
//! (NaN payloads and escaping included), and a segment whose tail was
//! chopped mid-entry heals into plain misses while every surviving entry
//! still decodes to its exact original bits — at sampled cuts and at
//! every byte offset of one segment. A model-based test drives random
//! operation sequences (puts, reopens, compactions, damage, a second
//! handle compacting under the first) against a `BTreeMap`.

use axcc_core::fingerprint::{Digest, Fingerprint};
use axcc_sweep::{Record, ResultCache};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique per-case scratch directories (proptest reruns cases).
static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("axcc-store-prop-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A record carrying arbitrary float bit patterns (NaNs, infinities,
/// subnormals — whatever the strategy drew) plus a string field that
/// exercises the codec's escaping.
fn record_from(bits: &[u64], note: &str) -> Record {
    let mut r = Record::new();
    r.push_usize(bits.len());
    for &b in bits {
        r.push_f64(f64::from_bits(b));
    }
    r.push_str(note);
    r
}

/// Deterministic note text from a seed, over an alphabet that includes
/// the codec's two escaped characters (backslash and newline).
fn note_from(seed: u64) -> String {
    const ALPHABET: [char; 8] = ['a', 'z', '0', ' ', '\\', '\n', '.', '-'];
    (0..8)
        .map(|i| ALPHABET[((seed >> (i * 8)) & 7) as usize])
        .collect()
}

fn entries_from(payloads: &[(Vec<u64>, u64)]) -> Vec<(Digest, Record)> {
    payloads
        .iter()
        .enumerate()
        .map(|(i, (bits, seed))| {
            (
                format!("store-prop-{i}").digest(),
                record_from(bits, &note_from(*seed)),
            )
        })
        .collect()
}

fn segment_paths(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "seg"))
                .collect()
        })
        .unwrap_or_default();
    paths.sort();
    paths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// append → reopen → index → read back: every field bit-identical.
    #[test]
    fn random_records_round_trip_bit_identically(
        payloads in proptest::collection::vec(
            (proptest::collection::vec(any::<u64>(), 0..6), any::<u64>()),
            1..48,
        ),
    ) {
        let dir = fresh_dir("rt");
        let entries = entries_from(&payloads);
        let cache = ResultCache::with_disk(dir.clone());
        cache.put_batch(entries.clone());
        drop(cache);

        let reopened = ResultCache::with_disk(dir.clone());
        for (digest, record) in &entries {
            let got = reopened.get(digest);
            prop_assert_eq!(got.as_ref(), Some(record));
        }
        // The layout invariant that makes 10⁵-job sweeps feasible:
        // entry count is unbounded, file count is O(shards).
        prop_assert!(segment_paths(&dir).len() <= axcc_sweep::SHARD_COUNT);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Chopping a segment mid-entry loses only the damaged tail: every
    /// lookup either misses (healed) or returns the exact original bits,
    /// and the healed shard accepts re-appends that then read back.
    #[test]
    fn truncated_tail_recovers_as_misses(
        payloads in proptest::collection::vec(
            (proptest::collection::vec(any::<u64>(), 1..5), any::<u64>()),
            2..24,
        ),
        cut in 1u64..200,
    ) {
        let dir = fresh_dir("cut");
        let entries = entries_from(&payloads);
        {
            let cache = ResultCache::with_disk(dir.clone());
            cache.put_batch(entries.clone());
        }
        // Truncate the largest segment by `cut` bytes (clamped to its
        // size): its final entry is damaged mid-body or mid-header.
        let victim = segment_paths(&dir)
            .into_iter()
            .max_by_key(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .expect("store has at least one segment");
        let len = std::fs::metadata(&victim).expect("segment metadata").len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .expect("segment is writable")
            .set_len(len.saturating_sub(cut))
            .expect("truncate segment");

        let reopened = ResultCache::with_disk(dir.clone());
        let mut lost = 0usize;
        for (digest, record) in &entries {
            match reopened.get(digest) {
                Some(got) => prop_assert_eq!(&got, record, "surviving entries are bit-identical"),
                None => lost += 1,
            }
        }
        prop_assert!(lost >= 1, "shrinking a segment must damage its last entry");
        prop_assert!(reopened.stats().heal_events >= 1, "the chop is a heal event");

        // Heal-and-recompute: re-append everything, read it all back.
        reopened.put_batch(entries.clone());
        for (digest, record) in &entries {
            let got = reopened.get(digest);
            prop_assert_eq!(got.as_ref(), Some(record));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The whole entries at the head of a segment, in file order — each
/// entry's digest and the byte range of its body, read from the `axcc1
/// <digest> <body len>` headers — and the end offset of the last one.
fn whole_entries(segment: &[u8]) -> (Vec<(Digest, Range<usize>)>, usize) {
    let mut entries = Vec::new();
    let mut pos = 0;
    while let Some(nl) = segment[pos..].iter().position(|&b| b == b'\n') {
        let Ok(header) = std::str::from_utf8(&segment[pos..pos + nl]) else {
            break;
        };
        let fields: Vec<&str> = header.split(' ').collect();
        let [_, digest, body_len] = fields.as_slice() else {
            break;
        };
        let (Some(digest), Ok(body_len)) = (Digest::from_hex(digest), body_len.parse::<usize>())
        else {
            break;
        };
        let body = pos + nl + 1..pos + nl + 1 + body_len;
        if body.end > segment.len() {
            break;
        }
        pos = body.end;
        entries.push((digest, body));
    }
    (entries, pos)
}

/// `(digest, end offset)` of each entry in a segment, in file order;
/// `None` unless the segment is a whole number of well-formed entries.
fn entry_ends(segment: &[u8]) -> Option<Vec<(Digest, usize)>> {
    let (entries, end) = whole_entries(segment);
    (end == segment.len()).then(|| entries.into_iter().map(|(d, body)| (d, body.end)).collect())
}

/// Truncating a segment at *every* byte offset, not a sample of cuts:
/// after each cut the reopened store returns exactly the entries that
/// end at or before the cut, bit-identical, and misses the rest. A cut
/// strictly inside an entry is a heal event and the file shrinks back to
/// the last whole entry; a cut on an entry boundary leaves a clean,
/// shorter segment. Re-appending then restores every entry.
#[test]
fn truncation_at_every_byte_offset_heals() {
    // Records whose digests share shard 0, so one segment holds them all.
    let entries: Vec<(Digest, Record)> = (0u64..)
        .map(|i| (format!("store-every-cut-{i}").digest(), i))
        .filter(|(digest, _)| digest.hi >> 60 == 0)
        .take(5)
        .map(|(digest, i)| {
            let bits: Vec<u64> = (0..=i % 3)
                .map(|k| (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ k)
                .collect();
            (
                digest,
                record_from(&bits, &note_from(i.wrapping_mul(0x0101_0101))),
            )
        })
        .collect();
    let dir = fresh_dir("every-cut");
    ResultCache::with_disk(dir.clone()).put_batch(entries.clone());
    let segments = segment_paths(&dir);
    assert_eq!(segments.len(), 1, "every entry lives in one shard");
    let victim = &segments[0];
    let original = std::fs::read(victim).expect("read segment");
    let ends = entry_ends(&original).expect("segment parses into whole entries");
    assert_eq!(ends.len(), entries.len());

    for cut in 0..original.len() {
        std::fs::write(victim, &original[..cut]).expect("write truncated segment");
        let reopened = ResultCache::with_disk(dir.clone());
        let whole = ends.iter().filter(|&&(_, end)| end <= cut).count();
        for (k, (digest, _)) in ends.iter().enumerate() {
            let (_, record) = entries
                .iter()
                .find(|(d, _)| d == digest)
                .expect("segment entry was written by this test");
            let got = reopened.get(digest);
            if k < whole {
                assert_eq!(got.as_ref(), Some(record), "cut {cut}: entry {k} survives");
            } else {
                assert_eq!(got, None, "cut {cut}: entry {k} is lost");
            }
        }
        let kept = if whole == 0 { 0 } else { ends[whole - 1].1 };
        let heals = reopened.stats().heal_events;
        if cut == kept {
            assert_eq!(heals, 0, "cut {cut} lies on an entry boundary");
        } else {
            assert!(heals >= 1, "cut {cut} is inside an entry: a heal event");
        }
        let healed_len = std::fs::metadata(victim).expect("segment metadata").len();
        assert_eq!(
            healed_len, kept as u64,
            "cut {cut}: healed to the last whole entry"
        );

        reopened.put_batch(entries.clone());
        for (digest, record) in &entries {
            assert_eq!(
                reopened.get(digest).as_ref(),
                Some(record),
                "cut {cut}: re-append"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One step of the model-based store test.
#[derive(Debug, Clone)]
enum Op {
    /// The live handle stores the next version of key `k`.
    Put(usize),
    /// The live handle stores the next versions of several keys (repeats
    /// allowed: the later one wins) in one batch.
    PutBatch(Vec<usize>),
    /// The live handle looks key `k` up.
    Get(usize),
    /// The live handle is replaced by a new one over the same directory.
    Reopen,
    /// A killed writer: the shard's segment file loses its last `cut`
    /// bytes, then the live handle is reopened.
    TornTail { shard: usize, cut: usize },
    /// Bit rot: one entry's body (the `entry`-th, modulo the count) is
    /// overwritten with same-length garbage, then the live handle is
    /// reopened.
    Garbage { shard: usize, entry: usize },
    /// Another handle, compacting on every append, stores a key of its
    /// own in the shard — rewriting the segment file under the live
    /// handle.
    ForeignCompact { shard: usize },
}

/// The model test's shards and keys per shard.
const MODEL_SHARDS: [u64; 2] = [0, 1];
const KEYS_PER_SHARD: usize = 6;

fn op_strategy() -> impl Strategy<Value = Op> {
    let keys = MODEL_SHARDS.len() * KEYS_PER_SHARD;
    let shards = MODEL_SHARDS.len();
    prop_oneof![
        (0..keys).prop_map(Op::Put),
        (0..keys).prop_map(Op::Put),
        proptest::collection::vec(0..keys, 1..6).prop_map(Op::PutBatch),
        (0..keys).prop_map(Op::Get),
        (0..keys).prop_map(Op::Get),
        Just(Op::Reopen),
        (0..shards, 1usize..120).prop_map(|(shard, cut)| Op::TornTail { shard, cut }),
        (0..shards, 0usize..64).prop_map(|(shard, entry)| Op::Garbage { shard, entry }),
        (0..shards).prop_map(|shard| Op::ForeignCompact { shard }),
    ]
}

/// The first `n` digests of `"{prefix}-{i}"` tags that land in `shard`.
fn shard_digests(prefix: &str, shard: u64, n: usize) -> Vec<(String, Digest)> {
    (0u64..)
        .map(|i| format!("{prefix}-{i:03}"))
        .map(|tag| {
            let digest = tag.digest();
            (tag, digest)
        })
        .filter(|(_, digest)| digest.hi >> 60 == shard)
        .take(n)
        .collect()
}

/// Version `v` of the record stored under `tag`. Every tag has the same
/// width, so bodies of different digests have equal lengths — the case in
/// which reading one entry at another's offset would decode cleanly.
fn versioned(tag: &str, v: u64) -> Record {
    let mut r = Record::new();
    r.push_str(tag);
    r.push_f64(v as f64);
    r
}

/// What a fresh scan of a (possibly damaged) segment file yields: the
/// latest whole entry per digest, decoded, and absent where that body
/// does not decode.
fn reference_view(segment: &[u8]) -> BTreeMap<Digest, Record> {
    let mut latest = BTreeMap::new();
    for (digest, body) in whole_entries(segment).0 {
        latest.insert(digest, body);
    }
    latest
        .into_iter()
        .filter_map(|(digest, body)| {
            let text = std::str::from_utf8(&segment[body]).ok()?;
            Some((digest, Record::decode(text)?))
        })
        .collect()
}

/// The model-based store test's state: the live handle and what it must
/// answer.
struct Harness {
    dir: PathBuf,
    rotate_at: u64,
    live: ResultCache,
    /// The live handle's exact expected answers.
    model: BTreeMap<Digest, Record>,
    /// Entries another handle stored: the live handle may or may not see
    /// them (it sees one once it reads the shard after the write, unless
    /// its own compaction dropped it), but never anything else.
    foreign: BTreeMap<Digest, Record>,
    /// Digests the live handle stored since it was opened.
    written: BTreeSet<Digest>,
}

impl Harness {
    /// Look `digest` up through the live handle and check the answer.
    fn check_get(&mut self, digest: &Digest) -> Result<(), TestCaseError> {
        let got = self.live.get(digest);
        if let Some(want) = self.model.get(digest) {
            prop_assert_eq!(got.as_ref(), Some(want), "live handle answers the model");
        } else if let Some(want) = self.foreign.get(digest) {
            if let Some(got) = got {
                prop_assert_eq!(&got, want, "a foreign entry reads back as written");
                // Seen once, the live handle keeps it for good.
                self.model.insert(*digest, got);
            }
        } else {
            prop_assert_eq!(got, None, "a digest nobody stored is a miss");
        }
        Ok(())
    }

    /// A fresh handle agrees with the live one on every entry the live
    /// one wrote; then it becomes the live handle.
    fn reopen(&mut self) -> Result<(), TestCaseError> {
        let fresh = ResultCache::with_disk_rotate_at(self.dir.clone(), self.rotate_at);
        for digest in &self.written {
            prop_assert_eq!(
                fresh.get(digest),
                self.live.get(digest),
                "fresh handle agrees"
            );
        }
        self.live = fresh;
        self.written.clear();
        Ok(())
    }

    fn segment_path(&self, shard: usize) -> PathBuf {
        self.dir
            .join(format!("shard-{:02x}.seg", MODEL_SHARDS[shard]))
    }

    /// Damage a segment file while no handle is live, then reopen: the
    /// model of that shard becomes what a fresh scan of the damaged file
    /// yields.
    fn damage(&mut self, shard: usize, f: impl FnOnce(&mut Vec<u8>)) -> Result<(), TestCaseError> {
        self.reopen()?;
        self.live = ResultCache::in_memory();
        let path = self.segment_path(shard);
        let mut bytes = std::fs::read(&path).unwrap_or_default();
        if !bytes.is_empty() {
            f(&mut bytes);
            std::fs::write(&path, &bytes)
                .map_err(|e| TestCaseError::Fail(format!("rewrite segment: {e}")))?;
        }
        let in_shard = |d: &Digest| d.hi >> 60 == MODEL_SHARDS[shard];
        self.model.retain(|d, _| !in_shard(d));
        self.foreign.retain(|d, _| !in_shard(d));
        self.model.extend(reference_view(&bytes));
        self.live = ResultCache::with_disk_rotate_at(self.dir.clone(), self.rotate_at);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random operation sequences against a `BTreeMap` model: every
    /// lookup returns the model's latest value for that digest (or, for
    /// an entry another handle stored, a miss) — never another digest's
    /// record, whatever compactions, reopenings and damage came before.
    #[test]
    fn store_matches_a_model_under_random_operations(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        rotate_at in 100u64..1500,
    ) {
        let keys: Vec<(String, Digest)> = MODEL_SHARDS
            .iter()
            .flat_map(|&shard| shard_digests("model", shard, KEYS_PER_SHARD))
            .collect();
        let dir = fresh_dir("model");
        let mut h = Harness {
            live: ResultCache::with_disk_rotate_at(dir.clone(), rotate_at),
            dir,
            rotate_at,
            model: BTreeMap::new(),
            foreign: BTreeMap::new(),
            written: BTreeSet::new(),
        };
        let mut version = 0u64;
        let mut foreign_count = 0usize;
        for op in ops {
            match op {
                Op::Put(k) => {
                    version += 1;
                    let (tag, digest) = &keys[k];
                    let record = versioned(tag, version);
                    h.live.put(*digest, record.clone());
                    h.model.insert(*digest, record);
                    h.written.insert(*digest);
                }
                Op::PutBatch(ks) => {
                    let mut batch = Vec::new();
                    for k in ks {
                        version += 1;
                        let (tag, digest) = &keys[k];
                        let record = versioned(tag, version);
                        h.model.insert(*digest, record.clone());
                        h.written.insert(*digest);
                        batch.push((*digest, record));
                    }
                    h.live.put_batch(batch);
                }
                Op::Get(k) => h.check_get(&keys[k].1)?,
                Op::Reopen => h.reopen()?,
                Op::TornTail { shard, cut } => h.damage(shard, |bytes| {
                    bytes.truncate(bytes.len().saturating_sub(cut));
                })?,
                Op::Garbage { shard, entry } => h.damage(shard, |bytes| {
                    let (entries, _) = whole_entries(bytes);
                    if let Some((_, body)) = entries.get(entry % entries.len().max(1)) {
                        bytes[body.clone()].fill(b'#');
                    }
                })?,
                Op::ForeignCompact { shard } => {
                    foreign_count += 1;
                    let (tag, digest) = shard_digests("alien", MODEL_SHARDS[shard], foreign_count)
                        .pop()
                        .expect("the tag space is unbounded");
                    let record = versioned(&tag, 0);
                    ResultCache::with_disk_rotate_at(h.dir.clone(), 1).put(digest, record.clone());
                    h.foreign.insert(digest, record);
                }
            }
        }
        let all: Vec<Digest> = keys
            .iter()
            .map(|(_, d)| *d)
            .chain(h.foreign.keys().copied())
            .collect();
        for digest in &all {
            h.check_get(digest)?;
        }
        h.reopen()?;
        for digest in &all {
            h.check_get(digest)?;
        }
        let _ = std::fs::remove_dir_all(&h.dir);
    }
}
