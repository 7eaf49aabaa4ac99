//! Deterministic RNG helpers.
//!
//! Every stochastic component in the workspace (MCTS rollouts, ε-greedy
//! action sampling, synthetic workload generation, DQN exploration) takes an
//! explicit seed and derives its generator through these helpers, so that
//! experiments are reproducible bit-for-bit (the paper runs 5 seeds and
//! reports mean ± std; we do the same).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;

/// Construct the standard generator from a seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derive a stream-specific generator from a base seed and a stream label.
///
/// Mixing the label via FNV-1a keeps independently-seeded components (e.g.
/// the rollout RNG vs the query-selection RNG) decorrelated even when the
/// user supplies adjacent base seeds.
pub fn derive(seed: u64, stream: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in stream.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(seed ^ h)
}

/// Derive the generator for worker `index` within a labelled stream family.
///
/// Root-parallel search runs `N` logically independent workers from one
/// session seed; each worker needs its own decorrelated stream whose
/// identity depends only on `(seed, stream, index)` — never on thread
/// scheduling. The label is mixed FNV-1a style as in [`derive`], then the
/// worker index is folded in through a SplitMix64 finalizer so adjacent
/// indexes land far apart in seed space.
pub fn derive_indexed(seed: u64, stream: &str, index: u64) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in stream.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let state = (seed ^ h).wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// How weighted sampling reads a weight: non-finite and non-positive
/// weights count as zero.
#[inline]
pub fn clean_weight(w: f64) -> f64 {
    if w.is_finite() && w > 0.0 {
        w
    } else {
        0.0
    }
}

/// An ordered sequence of weighted items that [`weighted_pick`] walks up to
/// three times. Every walk must yield the same pairs in the same order.
pub trait WeightedSeq {
    type Item: Copy;

    /// Visit `(item, weight)` pairs in order until `f` breaks. Weights are
    /// already cleaned (see [`clean_weight`]).
    fn walk<B>(&self, f: impl FnMut(Self::Item, f64) -> ControlFlow<B>) -> ControlFlow<B>;
}

/// Weighted sampling: pick an item with probability proportional to its
/// weight; if all weights are zero the choice is uniform. Returns `None`,
/// drawing nothing, on an empty sequence.
///
/// This implements the paper's Eq. 6 sampling rule
/// `Pr(a|s) = Q̂(s,a) / Σ_b Q̂(s,b)` used by the ε-greedy variant. The
/// total is summed in sequence order; the uniform branch draws
/// `random_range(0..len)`, the weighted branch one `random::<f64>()`.
pub fn weighted_pick<R: Rng + ?Sized, S: WeightedSeq>(rng: &mut R, seq: &S) -> Option<S::Item> {
    let mut len = 0usize;
    let mut total = 0.0;
    let _ = seq.walk(|_, w| {
        len += 1;
        total += w;
        ControlFlow::<()>::Continue(())
    });
    if len == 0 {
        return None;
    }
    if total <= 0.0 {
        let mut nth = rng.random_range(0..len);
        return seq
            .walk(|item, _| {
                if nth == 0 {
                    return ControlFlow::Break(item);
                }
                nth -= 1;
                ControlFlow::Continue(())
            })
            .break_value();
    }
    let mut target = rng.random::<f64>() * total;
    let hit = seq.walk(|item, w| {
        target -= w;
        if target <= 0.0 {
            return ControlFlow::Break(item);
        }
        ControlFlow::Continue(())
    });
    if let ControlFlow::Break(item) = hit {
        return Some(item);
    }
    // Floating-point slack: fall back to the last positive-weight item.
    let mut last_positive = None;
    let _ = seq.walk(|item, w| {
        if w > 0.0 {
            last_positive = Some(item);
        }
        ControlFlow::<()>::Continue(())
    });
    last_positive
}

/// [`weighted_pick`] over a slice of raw weights, cleaned on the fly;
/// returns the picked position.
pub fn weighted_choice<R: Rng>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    struct Cleaned<'a>(&'a [f64]);
    impl WeightedSeq for Cleaned<'_> {
        type Item = usize;
        fn walk<B>(&self, mut f: impl FnMut(usize, f64) -> ControlFlow<B>) -> ControlFlow<B> {
            for (i, &w) in self.0.iter().enumerate() {
                f(i, clean_weight(w))?;
            }
            ControlFlow::Continue(())
        }
    }
    weighted_pick(rng, &Cleaned(weights))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..10 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn derive_streams_differ() {
        let mut a = derive(1, "rollout");
        let mut b = derive(1, "query-selection");
        let xa: u64 = a.random();
        let xb: u64 = b.random();
        assert_ne!(xa, xb);
    }

    #[test]
    fn derive_is_deterministic() {
        let x: u64 = derive(7, "s").random();
        let y: u64 = derive(7, "s").random();
        assert_eq!(x, y);
    }

    #[test]
    fn derive_indexed_is_deterministic_and_splits() {
        let x: u64 = derive_indexed(7, "mcts-root-worker", 0).random();
        let y: u64 = derive_indexed(7, "mcts-root-worker", 0).random();
        assert_eq!(x, y);
        let streams: Vec<u64> = (0..4)
            .map(|w| derive_indexed(7, "mcts-root-worker", w).random())
            .collect();
        for i in 0..streams.len() {
            for j in i + 1..streams.len() {
                assert_ne!(streams[i], streams[j]);
            }
        }
        // Worker streams are decorrelated from the label-only stream too.
        let base: u64 = derive(7, "mcts-root-worker").random();
        assert!(!streams.contains(&base));
    }

    #[test]
    fn weighted_choice_empty() {
        assert_eq!(weighted_choice(&mut seeded(0), &[]), None);
    }

    #[test]
    fn weighted_choice_all_zero_is_uniform() {
        let mut rng = seeded(3);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[weighted_choice(&mut rng, &[0.0, 0.0, 0.0]).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = seeded(5);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[weighted_choice(&mut rng, &[1.0, 0.0, 9.0]).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let frac = counts[2] as f64 / 30_000.0;
        assert!((frac - 0.9).abs() < 0.02, "frac={frac}");
    }

    /// Floating-point slack: with the largest draw below 1, the running
    /// subtraction over `[0.6, 0.2, 0.9]` stays above zero, and the pick
    /// falls back to the last positive weight, skipping trailing zeros.
    #[test]
    fn weighted_choice_falls_back_to_the_last_positive_weight() {
        struct Top;
        impl rand::RngCore for Top {
            fn next_u64(&mut self) -> u64 {
                u64::MAX
            }
        }
        let weights = [0.6, 0.2, 0.9, 0.0, f64::NAN];
        let total: f64 = weights.iter().copied().map(clean_weight).sum();
        let mut target = Top.random::<f64>() * total;
        for &w in &weights {
            target -= clean_weight(w);
        }
        assert!(target > 0.0, "the input must exercise the slack");
        assert_eq!(weighted_choice(&mut Top, &weights), Some(2));
    }

    #[test]
    fn weighted_choice_ignores_nan_and_negative() {
        let mut rng = seeded(9);
        for _ in 0..100 {
            let i = weighted_choice(&mut rng, &[f64::NAN, -3.0, 2.0]).unwrap();
            assert_eq!(i, 2);
        }
    }
}
