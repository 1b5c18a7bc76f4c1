//! Sample statistics and operation accounting shared by every workload.

/// Tail percentiles the benchmark may report, highest first.
const TAIL_PERCENTILES: [u32; 3] = [99, 90, 50];

/// Samples that must lie strictly beyond a percentile before it may be
/// reported.
pub const BEYOND: usize = 10;

/// Samples beyond percentile `p` among `n`.
fn beyond(n: usize, p: u32) -> usize {
    n * (100 - p as usize) / 100
}

/// The highest reportable percentile for `n` samples: the highest of
/// p99, p90 and p50 that leaves at least [`BEYOND`] samples above it.
pub fn highest_percentile(n: usize) -> Option<u32> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| beyond(n, p) >= BEYOND)
}

/// Samples needed before percentile `p` may be reported.
pub fn samples_needed(p: u32) -> usize {
    (BEYOND * 100).div_ceil(100 - p as usize)
}

/// Percentile `p` (0–100) of `samples` by linear interpolation between
/// closest ranks. `samples` need not be sorted; empty gives NaN.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// How one operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Completed with the expected output.
    Ok,
    /// Refused by admission control.
    Refused,
    /// Accepted but failed or quarantined.
    Failed,
    /// Completed with an output that failed a check.
    WrongOutput,
}

/// Attempted and failed operation counts. Everything but [`Op::Ok`]
/// counts as failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not end [`Op::Ok`].
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, op: Op) {
        self.attempted += 1;
        if op != Op::Ok {
            self.failed += 1;
        }
    }

    /// Records one operation that passed iff `ok`.
    pub fn check(&mut self, ok: bool) {
        self.record(if ok { Op::Ok } else { Op::WrongOutput });
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// SplitMix64: the benchmark's own seeded generator, so inputs depend
/// only on `--seed` and this file.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            v.swap(i, j);
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50));
        assert_eq!(highest_percentile(99), Some(50));
        assert_eq!(highest_percentile(100), Some(90));
        assert_eq!(highest_percentile(999), Some(90));
        assert_eq!(highest_percentile(1000), Some(99));
        assert_eq!(samples_needed(50), 20);
        assert_eq!(samples_needed(90), 100);
        assert_eq!(samples_needed(99), 1000);
        for p in [50, 90, 99] {
            assert_eq!(highest_percentile(samples_needed(p)), Some(p));
            assert!(highest_percentile(samples_needed(p) - 1) < Some(p));
        }
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).rev().collect();
        assert_eq!(median(&v), 51.0);
        assert_eq!(percentile(&v, 90.0), 91.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn error_rate_counts_refusals_as_failures() {
        let mut t = Tally::default();
        t.record(Op::Ok);
        t.record(Op::Refused);
        t.record(Op::Ok);
        t.record(Op::Ok);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.error_rate(), 0.25);
        t.record(Op::Failed);
        t.check(false);
        assert_eq!(t.failed, 3);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn rng_is_seeded_and_in_range() {
        let a: Vec<u64> = (0..8).map(|_| Rng::new(7, 1).range(2, 4)).collect();
        assert!(a.iter().all(|&x| (2..=4).contains(&x)));
        let mut r1 = Rng::new(7, 1);
        let mut r2 = Rng::new(7, 1);
        let mut r3 = Rng::new(8, 1);
        let s1: Vec<u64> = (0..4).map(|_| r1.next_u64()).collect();
        let s2: Vec<u64> = (0..4).map(|_| r2.next_u64()).collect();
        let s3: Vec<u64> = (0..4).map(|_| r3.next_u64()).collect();
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }
}
