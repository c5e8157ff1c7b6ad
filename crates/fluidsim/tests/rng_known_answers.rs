//! Known-answer tests for the seeded randomness every stochastic scenario
//! draws from.
//!
//! The files under `known_answers/` were recorded from the one-block
//! scalar ChaCha8 generator and the per-draw binomial loop. Any rewrite
//! of the generator or of the Bernoulli count must reproduce them word
//! for word: a changed word would silently change every seeded report.

#![allow(clippy::unwrap_used)] // a malformed known-answer file should abort loudly
#![allow(clippy::float_cmp)] // exact comparisons are deliberate in tests

use axcc_fluidsim::loss::sample_loss_fraction;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const WORDS: &str = include_str!("known_answers/chacha8_words.txt");
const LOSS_FRACTIONS: &str = include_str!("known_answers/loss_fractions.txt");

/// Non-comment lines of a known-answer file.
fn data_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
}

/// `(seed, words)` sections of `chacha8_words.txt`.
fn word_sections() -> Vec<(u64, Vec<u64>)> {
    let mut sections: Vec<(u64, Vec<u64>)> = Vec::new();
    for line in data_lines(WORDS) {
        if let Some(seed) = line.strip_prefix("seed ") {
            sections.push((seed.parse().unwrap(), Vec::new()));
        } else {
            let words = &mut sections.last_mut().unwrap().1;
            words.extend(
                line.split_whitespace()
                    .map(|w| u64::from_str_radix(w, 16).unwrap()),
            );
        }
    }
    sections
}

#[test]
fn chacha8_first_256_words_per_seed() {
    let sections = word_sections();
    let seeds: Vec<u64> = sections.iter().map(|(s, _)| *s).collect();
    assert_eq!(seeds, [0, 1, 2017, u64::MAX]);
    for (seed, expected) in sections {
        assert_eq!(expected.len(), 256, "seed {seed}");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for (i, &want) in expected.iter().enumerate() {
            let got = rng.next_u64();
            assert_eq!(
                got, want,
                "seed {seed}, word {i}: {got:016x} != {want:016x}"
            );
        }
    }
}

#[test]
fn chacha8_u32_halves_follow_the_u64_words() {
    // `next_u64` is the low word then the high word of two `next_u32`
    // draws, so the same words come out at half the stride.
    for (seed, expected) in word_sections() {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for (i, &want) in expected.iter().enumerate() {
            let lo = u64::from(rng.next_u32());
            let hi = u64::from(rng.next_u32());
            assert_eq!(lo | (hi << 32), want, "seed {seed}, word {i}");
        }
    }
}

#[test]
fn loss_fraction_sequence_for_one_seed() {
    // Rounds × rates × windows in the recorded order. Windows 1024 and
    // 1025 straddle the switch from the exact Bernoulli count to the
    // normal approximation.
    let rates = [1e-4, 0.01, 0.5];
    let windows = [0.5, 2.0, 50.0, 1024.0, 1025.0, 50_000.0];
    let mut lines = data_lines(LOSS_FRACTIONS);
    let mut rng = ChaCha8Rng::seed_from_u64(2017);
    for round in 0..4u32 {
        for rate in rates {
            for window in windows {
                let line = lines.next().unwrap();
                let cols: Vec<&str> = line.split_whitespace().collect();
                assert_eq!(cols.len(), 4, "{line}");
                assert_eq!(cols[0].parse::<u32>().unwrap(), round, "{line}");
                assert_eq!(cols[1].parse::<f64>().unwrap(), rate, "{line}");
                assert_eq!(cols[2].parse::<f64>().unwrap(), window, "{line}");
                let want = u64::from_str_radix(cols[3], 16).unwrap();
                let got = sample_loss_fraction(&mut rng, window, rate).to_bits();
                assert_eq!(got, want, "{line}: got {got:016x}");
            }
        }
    }
    assert_eq!(lines.next(), None, "unconsumed known answers");
}
