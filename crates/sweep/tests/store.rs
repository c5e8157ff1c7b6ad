//! Round-trip properties of the sharded log-structured result store:
//! arbitrary records append, reopen, index, and read back bit-identical
//! (NaN payloads and escaping included), and a segment whose tail was
//! chopped mid-entry heals into plain misses while every surviving entry
//! still decodes to its exact original bits — at sampled cuts and at
//! every byte offset of one segment.

use axcc_core::fingerprint::{Digest, Fingerprint};
use axcc_sweep::{Record, ResultCache};
use proptest::prelude::*;
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

/// `(digest, end offset)` of each entry in a segment, in file order,
/// read from the `axcc1 <digest> <body len>` headers; `None` unless the
/// segment is a whole number of well-formed entries.
fn entry_ends(segment: &[u8]) -> Option<Vec<(Digest, usize)>> {
    let mut ends = Vec::new();
    let mut pos = 0;
    while pos < segment.len() {
        let nl = segment[pos..].iter().position(|&b| b == b'\n')?;
        let header = std::str::from_utf8(&segment[pos..pos + nl]).ok()?;
        let fields: Vec<&str> = header.split(' ').collect();
        let [_, digest, body_len] = fields.as_slice() else {
            return None;
        };
        pos += nl + 1 + body_len.parse::<usize>().ok()?;
        ends.push((Digest::from_hex(digest)?, pos));
    }
    (pos == segment.len()).then_some(ends)
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
