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

/// A flat, schema-less list of string fields holding one cached result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Record {
    fields: Vec<String>,
}

impl Record {
    /// Empty record; chain `push_*` calls to fill it.
    pub fn new() -> Self {
        Record { fields: Vec::new() }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Append a raw string field.
    pub fn push_str(&mut self, s: &str) {
        self.fields.push(s.to_string());
    }

    /// Append an `f64` as its exact bit pattern (16 hex digits).
    pub fn push_f64(&mut self, v: f64) {
        self.fields.push(format!("{:016x}", v.to_bits()));
    }

    /// Append an optional `f64` (`-` marks `None`).
    pub fn push_opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.fields.push("-".to_string()),
            Some(v) => self.push_f64(v),
        }
    }

    /// Append a `usize` in decimal.
    pub fn push_usize(&mut self, v: usize) {
        self.fields.push(v.to_string());
    }

    /// Append an optional `usize` (`-` marks `None`).
    pub fn push_opt_usize(&mut self, v: Option<usize>) {
        match v {
            None => self.fields.push("-".to_string()),
            Some(v) => self.push_usize(v),
        }
    }

    /// Append a bool (`1`/`0`).
    pub fn push_bool(&mut self, v: bool) {
        self.fields.push(if v { "1" } else { "0" }.to_string());
    }

    /// Cursor for reading fields back in order.
    pub fn reader(&self) -> RecordReader<'_> {
        RecordReader {
            fields: &self.fields,
            next: 0,
        }
    }

    /// Serialize to the line-oriented on-disk form.
    pub fn encode(&self) -> String {
        let mut out = format!("{}\n", self.fields.len());
        for f in &self.fields {
            let escaped = f.replace('\\', "\\\\").replace('\n', "\\n");
            out.push_str(&escaped);
            out.push('\n');
        }
        out
    }

    /// Parse the on-disk form; `None` on any malformation (truncated
    /// write, wrong count, bad escape) — callers treat that as a miss.
    pub fn decode(text: &str) -> Option<Record> {
        let mut lines = text.split('\n');
        let count: usize = lines.next()?.parse().ok()?;
        // Every field takes at least its own newline, so a count above the
        // text's length is malformed; capping the reservation keeps a
        // hostile count from overflowing or exhausting the allocator.
        let mut fields = Vec::with_capacity(count.min(text.len()));
        for _ in 0..count {
            fields.push(unescape(lines.next()?)?);
        }
        // Exactly one trailing empty segment must remain (final '\n').
        if lines.next() != Some("") || lines.next().is_some() {
            return None;
        }
        Some(Record { fields })
    }
}

/// Reverse the `encode` escaping; `None` on a dangling backslash or an
/// unknown escape.
fn unescape(s: &str) -> Option<String> {
    if !s.contains('\\') {
        return Some(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
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
    Some(out)
}

/// In-order field cursor over a [`Record`]. Every accessor returns
/// `None` on type mismatch or exhaustion, making `from_record`
/// implementations short-circuit cleanly with `?`.
#[derive(Debug)]
pub struct RecordReader<'a> {
    fields: &'a [String],
    next: usize,
}

impl<'a> RecordReader<'a> {
    fn take(&mut self) -> Option<&'a str> {
        let f = self.fields.get(self.next)?;
        self.next += 1;
        Some(f)
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
        if self.fields.get(self.next).map(String::as_str) == Some("-") {
            self.next += 1;
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
        if self.fields.get(self.next).map(String::as_str) == Some("-") {
            self.next += 1;
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
        self.next == self.fields.len()
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
