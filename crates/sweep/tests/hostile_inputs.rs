//! Hostile input at the store's record boundary: `Record::decode` takes
//! arbitrary bytes, token soup, mutated valid records and hostile field
//! counts, and must answer each with a record or `None` (the typed "not a
//! record" outcome a cache treats as a miss) — never a panic or an
//! allocation failure. A record it accepts must survive a re-encode.

use axcc_sweep::Record;
use proptest::prelude::*;

/// Fragments of the on-disk form: counts, escapes, hex floats and
/// newlines, so concatenations reach every branch of the decoder.
const TOKENS: [&str; 20] = [
    "0",
    "1",
    "2",
    "3",
    "\n",
    "\\",
    "\\n",
    "\\\\",
    "\\x",
    "-",
    "+1",
    "3ff0000000000000",
    "7ff8000000000000",
    "a",
    "é",
    "\u{0}",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999",
    " ",
];

/// Decode `text`; an accepted record must re-encode to a text that
/// decodes to the same record.
fn check(text: &str) -> Result<(), TestCaseError> {
    if let Some(record) = Record::decode(text) {
        prop_assert_eq!(Record::decode(&record.encode()), Some(record));
    }
    Ok(())
}

/// A valid record with `n` fields drawn from `seed`, escapes included.
fn valid_record(n: usize, seed: u64) -> Record {
    let mut r = Record::new();
    for i in 0..n {
        match (seed >> (i % 16 * 4)) & 3 {
            0 => r.push_f64(f64::from_bits(seed.rotate_left(i as u32))),
            1 => r.push_str("line\nbreak \\ slash"),
            2 => r.push_opt_usize(None),
            _ => r.push_usize(i),
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Arbitrary bytes, decoded as the store decodes a segment span.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
        if let Ok(text) = std::str::from_utf8(&bytes) {
            check(text)?;
        }
        check(&String::from_utf8_lossy(&bytes))?;
    }

    /// Random concatenations of record fragments.
    #[test]
    fn token_soup_never_panics(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..40)) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        check(&text)?;
    }

    /// A valid record cut at an arbitrary byte and spliced with a
    /// fragment: decodes to `None` or to some record, never panics.
    #[test]
    fn mutated_records_never_panic(
        n in 0usize..6,
        seed in any::<u64>(),
        cut in 0usize..160,
        token in 0usize..TOKENS.len(),
        keep_tail in any::<bool>(),
    ) {
        let valid = valid_record(n, seed).encode();
        prop_assert_eq!(Record::decode(&valid), Some(valid_record(n, seed)));
        let mut at = cut.min(valid.len());
        while !valid.is_char_boundary(at) {
            at -= 1;
        }
        let tail = if keep_tail { &valid[at..] } else { "" };
        check(&format!("{}{}{tail}", &valid[..at], TOKENS[token]))?;
    }
}

/// Regression: `decode` reserved room for as many fields as the count
/// header claimed, so a count of `usize::MAX` panicked with a capacity
/// overflow and a count of 10¹⁴ aborted on allocation failure. A count
/// the text cannot hold now decodes to `None`.
#[test]
fn hostile_field_counts_decode_to_none() {
    for count in ["18446744073709551615", "99999999999999", "4294967296"] {
        assert_eq!(Record::decode(&format!("{count}\n")), None, "{count}");
        assert_eq!(Record::decode(&format!("{count}\na\nb\n")), None, "{count}");
    }
}
