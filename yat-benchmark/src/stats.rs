//! Order statistics, the Zipf sampler and the stream hash.

use yat_prng::Rng;

/// Nearest-rank `q`-quantile (`q` in `[0, 1]`) of an ascending slice;
/// `NaN` when empty, so a missing sample can never read as a fast one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Sorts ascending (NaNs last) in place.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Median by nearest rank; `NaN` when empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    percentile(&values, 0.5)
}

/// Arithmetic mean; zero when empty (used for counts per query).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the rule the driver applies to ten runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    sort(&mut data);
    let len = data.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// 64-bit FNV-1a, continued from `h` (start from [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the cumulative distribution (`n` ≥ 1).
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n.max(1)).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// The rank whose cumulative band holds `u` (`u` in `[0, 1)`).
    pub fn rank_of(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.rank_of(rng.gen_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.95), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 samples leaves exactly ten beyond it
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn zipf_follows_the_harmonic_weights() {
        let z = Zipf::new(4, 1.0);
        // weights 1, 1/2, 1/3, 1/4 over 25/12
        assert_eq!(z.rank_of(0.0), 0);
        assert_eq!(z.rank_of(0.47), 0); // 12/25 = 0.48
        assert_eq!(z.rank_of(0.49), 1);
        assert_eq!(z.rank_of(0.73), 2); // 18/25 = 0.72
        assert_eq!(z.rank_of(0.89), 3); // 22/25 = 0.88
        assert_eq!(z.rank_of(0.999_999), 3);
        let mut rng = Rng::seed_from_u64(7);
        let mut hits = [0usize; 4];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[2] && hits[2] > hits[3]);
        let share0 = hits[0] as f64 / 20_000.0;
        assert!((share0 - 0.48).abs() < 0.02, "rank 0 drew {share0}");
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
