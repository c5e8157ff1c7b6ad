//! The exact-bit cache record codec.
//!
//! Cached results must round-trip *losslessly*: several axiom scores are
//! legitimately `+∞` (e.g. convergence time of a non-converging protocol)
//! and text renderings of floats would silently corrupt them (the vendored
//! JSON writer renders non-finite numbers as `null`). A [`Record`] is
//! therefore a flat list of string fields in which every `f64` is stored
//! as the 16-hex-digit form of its IEEE-754 bit pattern — decode returns
//! the identical bits, NaN payloads included.
//!
//! The on-disk encoding is line-oriented: a count header, then one field
//! per line with `\`-escaping for embedded newlines. Any malformed file
//! decodes to `None` and is treated as a cache miss, never an error.

use std::fmt::{self, Write as _};

/// A flat, schema-less list of string fields holding one cached result.
///
/// The fields live back to back in one `String`, each followed by a `\n`
/// terminator whose offset delimits it. A record whose fields need no
/// escaping (every record of numbers) is therefore its own encoded form
/// less the count line, and building, encoding or decoding one costs two
/// allocations however many fields it has.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Record {
    /// Every field's text followed by `\n`, concatenated.
    text: String,
    /// Offset of each field's terminating `\n` in `text`.
    ends: Vec<usize>,
}

impl Record {
    /// Empty record; chain `push_*` calls to fill it.
    pub fn new() -> Self {
        Record::default()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Terminate the field whose text was just appended.
    fn end_field(&mut self) {
        self.ends.push(self.text.len());
        self.text.push('\n');
    }

    /// Append a raw string field.
    pub fn push_str(&mut self, s: &str) {
        self.text.push_str(s);
        self.end_field();
    }

    /// Append an `f64` as its exact bit pattern (16 hex digits).
    pub fn push_f64(&mut self, v: f64) {
        let bits = v.to_bits();
        for shift in (0..16).rev() {
            let nibble = ((bits >> (shift * 4)) & 0xf) as u8;
            let digit = if nibble < 10 {
                b'0' + nibble
            } else {
                b'a' + nibble - 10
            };
            self.text.push(char::from(digit));
        }
        self.end_field();
    }

    /// Append an optional `f64` (`-` marks `None`).
    pub fn push_opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.push_str("-"),
            Some(v) => self.push_f64(v),
        }
    }

    /// Append a `usize` in decimal.
    pub fn push_usize(&mut self, v: usize) {
        // Writing into a `String` cannot fail.
        let _ = write!(self.text, "{v}");
        self.end_field();
    }

    /// Append an optional `usize` (`-` marks `None`).
    pub fn push_opt_usize(&mut self, v: Option<usize>) {
        match v {
            None => self.push_str("-"),
            Some(v) => self.push_usize(v),
        }
    }

    /// Append a bool (`1`/`0`).
    pub fn push_bool(&mut self, v: bool) {
        self.push_str(if v { "1" } else { "0" });
    }

    /// Cursor for reading fields back in order.
    pub fn reader(&self) -> RecordReader<'_> {
        RecordReader {
            text: &self.text,
            ends: &self.ends,
            next: 0,
            start: 0,
        }
    }

    /// The fields in order.
    fn fields(&self) -> impl Iterator<Item = &str> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let field = self.text.get(start..end).unwrap_or_default();
            start = end + 1;
            field
        })
    }

    /// Serialize to the line-oriented on-disk form.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(21 + self.text.len());
        let _ = writeln!(out, "{}", self.len());
        // Each field brings one `\n` terminator; any other `\n` or `\\`
        // is field content that needs escaping.
        let specials = self
            .text
            .bytes()
            .filter(|&b| b == b'\\' || b == b'\n')
            .count();
        if specials == self.len() {
            out.push_str(&self.text);
            return out;
        }
        for field in self.fields() {
            for c in field.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parse the on-disk form; `None` on any malformation (truncated
    /// write, wrong count, bad escape) — callers treat that as a miss.
    pub fn decode(text: &str) -> Option<Record> {
        let (count, mut rest) = text.split_once('\n')?;
        let count: usize = count.parse().ok()?;
        // Every field takes at least its own newline, so a count above the
        // text's length is malformed; capping the reservation keeps a
        // hostile count from overflowing or exhausting the allocator.
        let mut ends = Vec::with_capacity(count.min(rest.len()));
        if !rest.contains('\\') {
            // Nothing escaped: the lines are the fields verbatim, and the
            // last field's newline must end the text.
            ends.extend(
                rest.bytes()
                    .enumerate()
                    .filter_map(|(i, b)| (b == b'\n').then_some(i)),
            );
            let whole = ends.last().map_or(0, |&end| end + 1) == rest.len();
            return (ends.len() == count && whole).then(|| Record {
                text: rest.to_string(),
                ends,
            });
        }
        let mut record = Record {
            text: String::with_capacity(rest.len()),
            ends,
        };
        for _ in 0..count {
            let (field, tail) = rest.split_once('\n')?;
            unescape_into(&mut record.text, field)?;
            record.end_field();
            rest = tail;
        }
        rest.is_empty().then_some(record)
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.fields()).finish()
    }
}

/// Append the reverse of the `encode` escaping of `s` to `out`; `None` on
/// a dangling backslash or an unknown escape.
fn unescape_into(out: &mut String, s: &str) -> Option<()> {
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            _ => return None,
        }
    }
    Some(())
}

/// In-order field cursor over a [`Record`]. Every accessor returns
/// `None` on type mismatch or exhaustion, making `from_record`
/// implementations short-circuit cleanly with `?`.
#[derive(Debug)]
pub struct RecordReader<'a> {
    text: &'a str,
    ends: &'a [usize],
    next: usize,
    /// Start offset of field `next` in `text`.
    start: usize,
}

impl<'a> RecordReader<'a> {
    /// The next field and its terminator's offset, without consuming it.
    fn peek(&self) -> Option<(&'a str, usize)> {
        let end = *self.ends.get(self.next)?;
        Some((self.text.get(self.start..end)?, end))
    }

    fn take(&mut self) -> Option<&'a str> {
        let (field, end) = self.peek()?;
        self.next += 1;
        self.start = end + 1;
        Some(field)
    }

    /// Consume the next field if it is the `None` marker `-`.
    fn take_none(&mut self) -> bool {
        let none = matches!(self.peek(), Some(("-", _)));
        if none {
            self.take();
        }
        none
    }

    /// Next field as a raw string.
    pub fn str(&mut self) -> Option<&'a str> {
        self.take()
    }

    /// Next field as an exact-bits `f64`.
    pub fn f64(&mut self) -> Option<f64> {
        let f = self.take()?;
        if f.len() != 16 {
            return None;
        }
        u64::from_str_radix(f, 16).ok().map(f64::from_bits)
    }

    /// Next field as an optional `f64`.
    pub fn opt_f64(&mut self) -> Option<Option<f64>> {
        if self.take_none() {
            return Some(None);
        }
        self.f64().map(Some)
    }

    /// Next field as a `usize`.
    pub fn usize(&mut self) -> Option<usize> {
        self.take()?.parse().ok()
    }

    /// Next field as an optional `usize`.
    pub fn opt_usize(&mut self) -> Option<Option<usize>> {
        if self.take_none() {
            return Some(None);
        }
        self.usize().map(Some)
    }

    /// Next field as a bool.
    pub fn bool(&mut self) -> Option<bool> {
        match self.take()? {
            "1" => Some(true),
            "0" => Some(false),
            _ => None,
        }
    }

    /// Whether every field has been consumed (call last in
    /// `from_record` to reject records with trailing garbage).
    pub fn exhausted(&self) -> bool {
        self.next == self.ends.len()
    }
}

/// A result type the cache can store: converts to a [`Record`] and back
/// *losslessly* (bit-exact for floats). `from_record` must be the exact
/// inverse of `to_record` and return `None` for anything else.
pub trait Cacheable: Sized {
    /// Encode this value as a flat record.
    fn to_record(&self) -> Record;
    /// Decode; `None` on any mismatch (treated as a cache miss).
    fn from_record(record: &Record) -> Option<Self>;
}

impl Cacheable for f64 {
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.push_f64(*self);
        r
    }
    fn from_record(record: &Record) -> Option<Self> {
        let mut rd = record.reader();
        let v = rd.f64()?;
        rd.exhausted().then_some(v)
    }
}

impl Cacheable for (f64, f64) {
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.push_f64(self.0);
        r.push_f64(self.1);
        r
    }
    fn from_record(record: &Record) -> Option<Self> {
        let mut rd = record.reader();
        let v = (rd.f64()?, rd.f64()?);
        rd.exhausted().then_some(v)
    }
}

impl Cacheable for (f64, f64, f64) {
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.push_f64(self.0);
        r.push_f64(self.1);
        r.push_f64(self.2);
        r
    }
    fn from_record(record: &Record) -> Option<Self> {
        let mut rd = record.reader();
        let v = (rd.f64()?, rd.f64()?, rd.f64()?);
        rd.exhausted().then_some(v)
    }
}

impl Cacheable for Vec<f64> {
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.push_usize(self.len());
        for &v in self {
            r.push_f64(v);
        }
        r
    }
    fn from_record(record: &Record) -> Option<Self> {
        let mut rd = record.reader();
        let n = rd.usize()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(rd.f64()?);
        }
        rd.exhausted().then_some(out)
    }
}

impl Cacheable for axcc_core::AxiomScores {
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.push_f64(self.efficiency);
        r.push_f64(self.fast_utilization);
        r.push_f64(self.loss_bound);
        r.push_f64(self.fairness);
        r.push_f64(self.convergence);
        r.push_f64(self.robustness);
        r.push_f64(self.tcp_friendliness);
        r.push_f64(self.latency_inflation);
        r
    }
    fn from_record(record: &Record) -> Option<Self> {
        let mut rd = record.reader();
        let v = axcc_core::AxiomScores {
            efficiency: rd.f64()?,
            fast_utilization: rd.f64()?,
            loss_bound: rd.f64()?,
            fairness: rd.f64()?,
            convergence: rd.f64()?,
            robustness: rd.f64()?,
            tcp_friendliness: rd.f64()?,
            latency_inflation: rd.f64()?,
        };
        rd.exhausted().then_some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoded bytes of every record shape this crate stores, pinned:
    /// segments written by earlier builds must keep decoding, and the
    /// same results must keep producing byte-identical segments.
    #[test]
    fn encode_bytes_are_pinned_for_every_builtin_cacheable() {
        assert_eq!(1.5f64.to_record().encode(), "1\n3ff8000000000000\n");
        assert_eq!(
            (0.5, f64::INFINITY).to_record().encode(),
            "2\n3fe0000000000000\n7ff0000000000000\n"
        );
        assert_eq!(
            (-0.0, f64::NAN, 1e300).to_record().encode(),
            "3\n8000000000000000\n7ff8000000000000\n7e37e43c8800759c\n"
        );
        assert_eq!(
            vec![f64::NEG_INFINITY, f64::MIN_POSITIVE]
                .to_record()
                .encode(),
            "3\n2\nfff0000000000000\n0010000000000000\n"
        );
        assert_eq!(Vec::<f64>::new().to_record().encode(), "1\n0\n");
        let scores = axcc_core::AxiomScores {
            efficiency: 0.97,
            fast_utilization: f64::INFINITY,
            loss_bound: 0.25,
            fairness: 1.0,
            convergence: f64::INFINITY,
            robustness: 0.5,
            tcp_friendliness: 1.25,
            latency_inflation: 1.0,
        };
        assert_eq!(scores.to_record().encode(), "8\n3fef0a3d70a3d70a\n7ff0000000000000\n3fd0000000000000\n3ff0000000000000\n7ff0000000000000\n3fe0000000000000\n3ff4000000000000\n3ff0000000000000\n");
        let mut r = Record::new();
        r.push_str("multi\nline \\ field");
        r.push_str("");
        r.push_opt_f64(None);
        r.push_opt_f64(Some(2.0));
        r.push_usize(0);
        r.push_usize(usize::MAX);
        r.push_opt_usize(None);
        r.push_opt_usize(Some(42));
        r.push_bool(true);
        r.push_bool(false);
        assert_eq!(r.encode(), "10\nmulti\\nline \\\\ field\n\n-\n4000000000000000\n0\n18446744073709551615\n-\n42\n1\n0\n");
        assert_eq!(Record::new().encode(), "0\n");
    }

    #[test]
    fn round_trips_exact_bits() {
        let values = vec![
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
        ];
        let rec = values.to_record();
        let back = Vec::<f64>::from_record(&Record::decode(&rec.encode()).unwrap()).unwrap();
        assert_eq!(values.len(), back.len());
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn strings_with_newlines_round_trip() {
        let mut r = Record::new();
        r.push_str("multi\nline \\ field");
        r.push_str("");
        r.push_bool(true);
        let decoded = Record::decode(&r.encode()).unwrap();
        let mut rd = decoded.reader();
        assert_eq!(rd.str(), Some("multi\nline \\ field"));
        assert_eq!(rd.str(), Some(""));
        assert_eq!(rd.bool(), Some(true));
        assert!(rd.exhausted());
    }

    #[test]
    fn malformed_text_decodes_to_none() {
        assert!(Record::decode("").is_none());
        assert!(Record::decode("2\nonly-one\n").is_none());
        assert!(Record::decode("1\nfield\nextra\n").is_none());
        assert!(Record::decode("1\nbad\\escape\n").is_none());
        assert!(Record::decode("not-a-count\n").is_none());
    }

    #[test]
    fn truncated_record_is_rejected_not_misread() {
        let mut r = Record::new();
        r.push_f64(1.0);
        r.push_f64(2.0);
        let text = r.encode();
        let truncated = &text[..text.len() - 5];
        assert!(Record::decode(truncated).is_none());
    }

    #[test]
    fn trailing_fields_fail_typed_decode() {
        let mut r = Record::new();
        r.push_f64(1.0);
        r.push_f64(2.0);
        assert!(f64::from_record(&r).is_none());
        assert!(<(f64, f64)>::from_record(&r).is_some());
    }

    #[test]
    fn axiom_scores_round_trip() {
        let s = axcc_core::AxiomScores {
            efficiency: 0.97,
            fast_utilization: f64::INFINITY,
            loss_bound: 0.25,
            fairness: 1.0,
            convergence: f64::INFINITY,
            robustness: 0.5,
            tcp_friendliness: 1.25,
            latency_inflation: 1.0,
        };
        let back = axcc_core::AxiomScores::from_record(&s.to_record()).unwrap();
        assert_eq!(back.fast_utilization, f64::INFINITY);
        assert_eq!(back.efficiency.to_bits(), s.efficiency.to_bits());
    }
}
