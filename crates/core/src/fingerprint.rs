//! Stable content fingerprints for experiment inputs.
//!
//! The sweep engine (`axcc-sweep`) caches scenario evaluations under a
//! content address: a 128-bit digest of everything that determines the
//! result — scenario parameters, protocol identity, metric budget, and the
//! engine version. Two runs that feed identical bytes to a
//! [`Fingerprinter`] produce identical [`Digest`]s on every platform and
//! every run, so cached results can be reused across processes; any change
//! to an input (or to the engine-version string mixed in by the runner)
//! changes the digest and forces a recompute.
//!
//! The digest is two independent FNV-1a 64-bit lanes seeded with distinct
//! offset bases. FNV-1a is not cryptographic — it does not need to be; the
//! cache is a private memo table, not a trust boundary — but 128 bits keep
//! accidental collisions out of reach for any realistic sweep size, and
//! the implementation is fully deterministic with no dependencies.
//!
//! Canonical encoding rules (the contract that makes digests stable):
//!
//! * integers are written as fixed-width little-endian bytes;
//! * `f64` values are written as their IEEE-754 bit patterns
//!   ([`f64::to_bits`]), so `-0.0`, `0.0`, infinities and NaN payloads all
//!   fingerprint distinctly and exactly;
//! * strings and byte slices are length-prefixed, so `("ab", "c")` and
//!   `("a", "bc")` cannot collide structurally;
//! * every [`Fingerprint`] impl for a sequence writes its length first.

use crate::link::LinkParams;
use crate::protocol::Protocol;

/// A 128-bit content digest: two independent 64-bit FNV-1a lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest {
    /// First FNV-1a lane (standard offset basis).
    pub hi: u64,
    /// Second FNV-1a lane (perturbed offset basis).
    pub lo: u64,
}

impl Digest {
    /// Render as 32 lowercase hex digits — the cache's on-disk file name.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parse a digest previously rendered by [`Digest::to_hex`].
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != 32 {
            return None;
        }
        let (hi, lo) = s.as_bytes().split_at(16);
        // Sixteen hex digits fill a u64 exactly, so the shifts never drop
        // a set bit.
        let word = |hex: &[u8]| {
            hex.iter().try_fold(0u64, |acc, &b| {
                Some(acc << 4 | u64::from(char::from(b).to_digit(16)?))
            })
        };
        Some(Digest {
            hi: word(hi)?,
            lo: word(lo)?,
        })
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
// Second lane: the standard offset basis XORed with an arbitrary odd
// constant, giving an independent hash of the same byte stream.
const FNV_OFFSET_B: u64 = FNV_OFFSET_A ^ 0x9e37_79b9_7f4a_7c15;

/// Incremental canonical-byte hasher producing a [`Digest`].
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    lane_a: u64,
    lane_b: u64,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

impl Fingerprinter {
    /// Start a fresh fingerprint.
    pub fn new() -> Self {
        Fingerprinter {
            lane_a: FNV_OFFSET_A,
            lane_b: FNV_OFFSET_B,
        }
    }

    /// Feed raw bytes. Prefer the typed `write_*` methods, which add the
    /// length prefixes that keep adjacent fields from colliding.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lane_a = (self.lane_a ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.lane_b = (self.lane_b ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Write one byte (used for enum discriminants / `bool`).
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Write a `u64` as fixed-width little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Write a `usize` widened to `u64`, so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Write an `f64` as its exact IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Write a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Finish and return the digest. The fingerprinter can keep being fed
    /// afterwards (finishing is non-destructive).
    pub fn finish(&self) -> Digest {
        Digest {
            hi: self.lane_a,
            lo: self.lane_b,
        }
    }
}

/// Types that can feed a canonical byte encoding of themselves to a
/// [`Fingerprinter`]. Implementations must be *stable*: the encoding may
/// only change when the semantic content changes, because cache addresses
/// are derived from it.
pub trait Fingerprint {
    /// Feed this value's canonical bytes.
    fn fingerprint(&self, fp: &mut Fingerprinter);

    /// Digest of this value alone (convenience for tests and keys).
    fn digest(&self) -> Digest {
        let mut fp = Fingerprinter::new();
        self.fingerprint(&mut fp);
        fp.finish()
    }
}

impl Fingerprint for f64 {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_f64(*self);
    }
}

impl Fingerprint for u64 {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_u64(*self);
    }
}

impl Fingerprint for usize {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_usize(*self);
    }
}

impl Fingerprint for bool {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_u8(u8::from(*self));
    }
}

impl Fingerprint for str {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str(self);
    }
}

impl Fingerprint for String {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str(self);
    }
}

impl<T: Fingerprint + ?Sized> Fingerprint for &T {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        (**self).fingerprint(fp);
    }
}

impl<T: Fingerprint> Fingerprint for Option<T> {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        match self {
            None => fp.write_u8(0),
            Some(v) => {
                fp.write_u8(1);
                v.fingerprint(fp);
            }
        }
    }
}

impl<T: Fingerprint> Fingerprint for [T] {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_usize(self.len());
        for item in self {
            item.fingerprint(fp);
        }
    }
}

impl<T: Fingerprint> Fingerprint for Vec<T> {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        self.as_slice().fingerprint(fp);
    }
}

impl<A: Fingerprint, B: Fingerprint> Fingerprint for (A, B) {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        self.0.fingerprint(fp);
        self.1.fingerprint(fp);
    }
}

impl<A: Fingerprint, B: Fingerprint, C: Fingerprint> Fingerprint for (A, B, C) {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        self.0.fingerprint(fp);
        self.1.fingerprint(fp);
        self.2.fingerprint(fp);
    }
}

impl<A: Fingerprint, B: Fingerprint, C: Fingerprint, D: Fingerprint> Fingerprint for (A, B, C, D) {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        self.0.fingerprint(fp);
        self.1.fingerprint(fp);
        self.2.fingerprint(fp);
        self.3.fingerprint(fp);
    }
}

impl Fingerprint for LinkParams {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str("LinkParams");
        fp.write_f64(self.bandwidth);
        fp.write_f64(self.prop_delay);
        fp.write_f64(self.buffer);
        fp.write_f64(self.timeout_delta);
    }
}

/// A protocol enters a content address by its display name, which embeds
/// every constructor parameter (`AIMD(1,0.5)`, `R-AIMD(1,0.8,0.01)`), so
/// two protocols with equal names run identically.
impl Fingerprint for dyn Protocol {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str(&self.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic() {
        let a = ("scenario", 3usize, 1.5f64).digest();
        let b = ("scenario", 3usize, 1.5f64).digest();
        assert_eq!(a, b);
    }

    #[test]
    fn any_field_change_alters_digest() {
        let base = ("AIMD(1,0.5)", 4usize, 0.042f64).digest();
        assert_ne!(("AIMD(1,0.5)", 4usize, 0.043f64).digest(), base);
        assert_ne!(("AIMD(1,0.5)", 5usize, 0.042f64).digest(), base);
        assert_ne!(("AIMD(2,0.5)", 4usize, 0.042f64).digest(), base);
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        assert_ne!(("ab", "c").digest(), ("a", "bc").digest());
        assert_ne!(vec![1.0f64, 2.0].digest(), vec![1.0f64, 2.0, 0.0].digest());
    }

    #[test]
    fn float_bit_patterns_are_distinguished() {
        assert_ne!(0.0f64.digest(), (-0.0f64).digest());
        assert_ne!(f64::INFINITY.digest(), f64::MAX.digest());
        assert_ne!(f64::NAN.digest(), f64::INFINITY.digest());
    }

    #[test]
    fn hex_round_trips() {
        let d = ("round", "trip").digest();
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("not-hex"), None);
        assert_eq!(Digest::from_hex("00"), None);
    }

    #[test]
    fn link_params_fingerprint_covers_all_fields() {
        let base = LinkParams::reference();
        let mut other = base;
        other.timeout_delta += 1.0;
        assert_ne!(base.digest(), other.digest());
    }

    #[test]
    fn protocol_fingerprint_is_its_length_prefixed_name() {
        #[derive(Debug, Clone)]
        struct Named;
        impl Protocol for Named {
            fn name(&self) -> String {
                "AIMD(1,0.5)".into()
            }
            fn next_window(&mut self, _: &crate::Observation) -> f64 {
                1.0
            }
            fn loss_based(&self) -> bool {
                true
            }
            fn reset(&mut self) {}
            fn clone_box(&self) -> Box<dyn Protocol> {
                Box::new(Named)
            }
        }
        let proto: Box<dyn Protocol> = Box::new(Named);
        let mut fp = Fingerprinter::new();
        proto.fingerprint(&mut fp);
        // Warm stores depend on these exact bytes: the name, length-prefixed.
        let mut want = Fingerprinter::new();
        want.write_bytes(&11u64.to_le_bytes());
        want.write_bytes(b"AIMD(1,0.5)");
        assert_eq!(fp.finish(), want.finish());
        assert_eq!(proto.digest(), "AIMD(1,0.5)".digest());
    }

    #[test]
    fn option_variants_are_distinct() {
        assert_ne!(Some(0.0f64).digest(), None::<f64>.digest());
    }
}
