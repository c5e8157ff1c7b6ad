//! The lane-parallel ChaCha8 generator and the in-place Bernoulli count
//! against a frozen scalar reference.
//!
//! `ScalarChaCha8` below is the one-block generator the workspace used
//! before the refill computed eight blocks at once, and
//! `reference_loss_fraction` is the per-draw binomial loop. Both live here
//! only as the oracle: the same script of draws must give the same outputs
//! and leave both streams at the same word position.

use axcc_fluidsim::loss::sample_loss_fraction;
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The one-block scalar ChaCha8 generator, frozen as the oracle.
#[derive(Clone)]
struct ScalarChaCha8 {
    key: [u32; 8],
    counter: u64,
    block: [u32; 16],
    index: usize,
}

fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ScalarChaCha8 {
    fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let w = next();
            pair[0] = w as u32;
            pair[1] = (w >> 32) as u32;
        }
        ScalarChaCha8 {
            key,
            counter: 0,
            block: [0; 16],
            index: 16,
        }
    }

    fn refill(&mut self) {
        let k = self.key;
        let mut s: [u32; 16] = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            k[0],
            k[1],
            k[2],
            k[3],
            k[4],
            k[5],
            k[6],
            k[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            0,
            0,
        ];
        let input = s;
        for _ in 0..4 {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for (word, inp) in s.iter_mut().zip(input) {
            *word = word.wrapping_add(inp);
        }
        self.block = s;
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }

    /// Words drawn since seeding.
    fn word_pos(&self) -> u128 {
        u128::from(self.counter) * 16 - (16 - self.index) as u128
    }
}

impl RngCore for ScalarChaCha8 {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let w = self.block[self.index];
        self.index += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

/// The per-draw Bernoulli count.
fn reference_count_below(rng: &mut ScalarChaCha8, n: u64, p: f64) -> u64 {
    let mut k = 0;
    for _ in 0..n {
        if rng.gen::<f64>() < p {
            k += 1;
        }
    }
    k
}

/// `sample_loss_fraction` with the per-draw binomial loop.
fn reference_loss_fraction(rng: &mut ScalarChaCha8, window: f64, rate: f64) -> f64 {
    if window <= 0.0 || rate <= 0.0 {
        return 0.0;
    }
    let n = window.ceil() as u64;
    let p = rate.min(1.0 - f64::EPSILON);
    let k = if n <= 1024 {
        reference_count_below(rng, n, p)
    } else {
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + sd * z).round().clamp(0.0, n as f64) as u64
    };
    (k as f64 / n as f64).min(1.0 - f64::EPSILON)
}

/// The smallest positive (subnormal) `f64`.
const MIN_SUBNORMAL: f64 = 5e-324;

#[derive(Debug, Clone, Copy)]
enum Op {
    U32,
    U64,
    F64,
    CountBelow(u64, f64),
    LossFraction(f64, f64),
}

fn arb_p() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(MIN_SUBNORMAL),
        Just(1e-4),
        Just(1.0 - f64::EPSILON),
        1e-4f64..1.0,
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::U32),
        Just(Op::U64),
        Just(Op::F64),
        // Listed twice: the batched count is the code under test.
        (0u64..=1025, arb_p()).prop_map(|(n, p)| Op::CountBelow(n, p)),
        (0u64..=1025, arb_p()).prop_map(|(n, p)| Op::CountBelow(n, p)),
        (0.0f64..1100.0, arb_p()).prop_map(|(w, p)| Op::LossFraction(w, p)),
    ]
}

/// Run `op` on both generators; `Err` describes the first mismatch.
fn step(op: Op, fast: &mut ChaCha8Rng, oracle: &mut ScalarChaCha8) -> Result<(), String> {
    let (got, want) = match op {
        Op::U32 => (u64::from(fast.next_u32()), u64::from(oracle.next_u32())),
        Op::U64 => (fast.next_u64(), oracle.next_u64()),
        Op::F64 => (fast.gen::<f64>().to_bits(), oracle.gen::<f64>().to_bits()),
        Op::CountBelow(n, p) => (fast.count_below(n, p), reference_count_below(oracle, n, p)),
        Op::LossFraction(w, p) => (
            sample_loss_fraction(fast, w, p).to_bits(),
            reference_loss_fraction(oracle, w, p).to_bits(),
        ),
    };
    if got != want {
        return Err(format!("{op:?}: got {got:#x}, oracle {want:#x}"));
    }
    if fast.get_word_pos() != oracle.word_pos() {
        return Err(format!(
            "{op:?}: word position {} vs oracle {}",
            fast.get_word_pos(),
            oracle.word_pos()
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A random script of mixed draws gives the same outputs and leaves
    /// both streams at the same position.
    #[test]
    fn random_draw_scripts_match_the_scalar_oracle(
        seed in any::<u64>(),
        script in proptest::collection::vec(arb_op(), 1..48),
    ) {
        let mut fast = ChaCha8Rng::seed_from_u64(seed);
        let mut oracle = ScalarChaCha8::seed_from_u64(seed);
        for (i, &op) in script.iter().enumerate() {
            let step_result = step(op, &mut fast, &mut oracle);
            prop_assert!(step_result.is_ok(), "op {}: {:?}", i, step_result);
        }
        for _ in 0..40 {
            prop_assert_eq!(fast.next_u32(), oracle.next_u32());
        }
    }
}

#[test]
fn count_below_matches_for_every_n_up_to_the_exact_limit() {
    // Every n the exact binomial branch can see, at both word alignments,
    // on one long stream per case so the calls cross many refills.
    for p in [0.0, MIN_SUBNORMAL, 1e-4, 0.01, 0.5, 1.0 - f64::EPSILON] {
        for offset in [0, 1] {
            let mut fast = ChaCha8Rng::seed_from_u64(17);
            let mut oracle = ScalarChaCha8::seed_from_u64(17);
            for _ in 0..offset {
                assert_eq!(fast.next_u32(), oracle.next_u32());
            }
            for n in 0..=1025 {
                if let Err(e) = step(Op::CountBelow(n, p), &mut fast, &mut oracle) {
                    panic!("p {p}, offset {offset}: {e}");
                }
            }
        }
    }
}

#[test]
fn count_below_at_p_on_and_beside_a_draw() {
    // `p` set to one of the upcoming draws `v` itself (that draw is not
    // below `p`) and to its neighbouring doubles: rounding the integer
    // threshold the wrong way shows up only this close to a draw.
    for offset in 0..4 {
        for n in [1, 2, 63, 64, 65, 129, 1025] {
            let mut fast = ChaCha8Rng::seed_from_u64(99);
            let mut oracle = ScalarChaCha8::seed_from_u64(99);
            for _ in 0..offset {
                assert_eq!(fast.next_u32(), oracle.next_u32());
            }
            for j in [0, n / 2, n - 1] {
                let mut peek = oracle.clone();
                for _ in 0..j {
                    peek.next_u64();
                }
                let v = peek.gen::<f64>();
                for p in [v, v.next_up(), v.next_down()] {
                    let (mut f, mut o) = (fast.clone(), oracle.clone());
                    if let Err(e) = step(Op::CountBelow(n, p), &mut f, &mut o) {
                        panic!("offset {offset}, n {n}, draw {j}, p {p:e}: {e}");
                    }
                }
            }
        }
    }
}

#[test]
fn word_streams_match_across_many_refills() {
    for seed in [0, 1, 2017, u64::MAX] {
        let mut fast = ChaCha8Rng::seed_from_u64(seed);
        let mut oracle = ScalarChaCha8::seed_from_u64(seed);
        for i in 0..10_000 {
            assert_eq!(fast.next_u32(), oracle.next_u32(), "seed {seed}, word {i}");
        }
        assert_eq!(fast.get_word_pos(), oracle.word_pos());
    }
}
