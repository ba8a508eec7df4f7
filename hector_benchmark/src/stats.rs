//! Order statistics, the geometric mean, and the benchmark's own
//! SplitMix64 generator (the only source of randomness on the
//! benchmark's side: every input is a pure function of `--seed`).

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state word, full period.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for
    /// the graph-sized `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// Independent sub-seed `stream` of the run seed, so graph, parameters,
/// requests and deltas never share a generator.
pub fn substream(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile (`p` in `0..=100`) of an unsorted sample;
/// 0 for an empty one.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median with the two middle values averaged; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so `--compare` judges spread
/// exactly as the acceptance procedure does. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive values; 0 for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Due time in seconds of request `i` of an open loop at `rate` per
/// second: the schedule is fixed before the run and never depends on
/// how fast the system answers.
pub fn due_s(i: usize, rate: f64) -> f64 {
    i as f64 / rate
}

/// How late, in ms, something due at `due_s` happened at `now_s`
/// (0 when it was early).
pub fn late_ms(now_s: f64, due_s: f64) -> f64 {
    ((now_s - due_s) * 1e3).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567 from the reference C code.
        let mut r = SplitMix64::new(1_234_567);
        assert_eq!(r.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(r.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn below_stays_in_range_and_substreams_differ() {
        let mut r = SplitMix64::new(9);
        assert!((0..1000).all(|_| r.below(7) < 7));
        assert_ne!(substream(1, 1), substream(1, 2));
        assert_eq!(substream(5, 3), substream(5, 3));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 90.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn open_loop_schedule_and_lateness() {
        assert_eq!(due_s(0, 300.0), 0.0);
        assert!((due_s(600, 300.0) - 2.0).abs() < 1e-12);
        assert_eq!(late_ms(1.0, 2.0), 0.0);
        assert!((late_ms(2.0005, 2.0) - 0.5).abs() < 1e-9);
    }
}
