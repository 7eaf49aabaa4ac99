//! Small numeric helpers: seeded input generation, order statistics,
//! and the result digest.

/// SplitMix64: the benchmark's own generator, so its inputs depend only on
/// `--seed` and never on the random-number code of the crates under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Linear-interpolated percentile (`p` in `[0, 100]`) of unsorted samples;
/// 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a over a stream of words: the run's result digest. Two runs on
/// the same seed must print the same digest.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size (`VmHWM`) of a process, in MiB, from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The companion time that end-to-end timings are scaled to: about its
/// median on the 2-vCPU host the reference figures were measured on.
pub const COMPANION_NOMINAL_MS: f64 = 0.5;

/// Reference work of the benchmark's own, shaped like cost derivation: a
/// scan of 64 Ki (mask, cost) entries that keeps the cheapest entry whose
/// mask fits inside a configuration mask. It calls nothing in the crates
/// under test, so its time tracks only the speed of the host. Timed
/// between sessions, it turns the host's drift, which reaches 30 % over
/// minutes on a shared machine, into a factor the timings are divided by.
pub struct Companion {
    masks: Vec<u64>,
    costs: Vec<f64>,
    round: u64,
}

impl Default for Companion {
    fn default() -> Self {
        let mut rng = Rng::new(0x5eed, 9);
        let n = 1 << 16;
        Self {
            masks: (0..n).map(|_| rng.next_u64() & rng.next_u64()).collect(),
            costs: (0..n).map(|_| rng.unit()).collect(),
            round: 0,
        }
    }
}

impl Companion {
    /// Time eight scans, milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let t = std::time::Instant::now();
        let mut best = f64::MAX;
        for _ in 0..8 {
            self.round += 1;
            let config = Rng::new(self.round, 10).next_u64() | Rng::new(self.round, 11).next_u64();
            for (&m, &c) in self.masks.iter().zip(&self.costs) {
                if m & !config == 0 && c < best {
                    best = c;
                }
            }
            best += 1.0;
        }
        std::hint::black_box(best);
        t.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(7, 2).next_u64(), a[0]);
    }
}
