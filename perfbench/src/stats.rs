//! Order statistics for timing samples, and the seeded generator every
//! workload draws its inputs from.

/// Percentiles tried, highest first, when reporting a timing's tail.
const TAIL_LADDER: [(f64, &str); 5] = [
    (0.999, "p99.9"),
    (0.99, "p99"),
    (0.95, "p95"),
    (0.90, "p90"),
    (0.75, "p75"),
];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// Most windows a run's requests are cut into, and fewest requests in a
/// window.
const MAX_WINDOWS: usize = 9;
const MIN_PER_WINDOW: usize = 50;

/// Median over a run's windows of `f` of each window. The samples, in
/// the order they completed, are cut into up to [`MAX_WINDOWS`]
/// contiguous windows of equal count with at least [`MIN_PER_WINDOW`]
/// samples each (one window if there are fewer). A stretch of host
/// contention shorter than half the run moves a few windows, not the
/// median over them.
pub fn median_over_windows<T>(in_time_order: &[T], mut f: impl FnMut(&[T]) -> f64) -> f64 {
    let n = (in_time_order.len() / MIN_PER_WINDOW).clamp(1, MAX_WINDOWS);
    let per: Vec<f64> = in_time_order
        .chunks(in_time_order.len().div_ceil(n))
        .map(&mut f)
        .collect();
    median(&per)
}

/// A timing as the benchmark prints it: the median, the highest
/// percentile with at least ten samples beyond it, and the sample count.
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub tail_label: &'static str,
    pub tail: f64,
}

pub fn summarize(v: &[f64]) -> Summary {
    let s = sorted(v);
    let (tail_label, tail) = TAIL_LADDER
        .iter()
        .find(|(q, _)| s.len() - (q * s.len() as f64).ceil() as usize >= TAIL_MIN_BEYOND)
        .map_or(("max", s[s.len() - 1]), |&(q, label)| {
            (label, quantile(&s, q))
        });
    Summary {
        n: s.len(),
        median: quantile(&s, 0.5),
        tail_label,
        tail,
    }
}

impl Summary {
    /// `median 1.234 | p99 2.345 | n=1000`, values in `unit`.
    pub fn show(&self, unit: &str) -> String {
        format!(
            "median {:.4} {unit} | {} {:.4} {unit} | n={}",
            self.median, self.tail_label, self.tail, self.n
        )
    }
}

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same inputs on every host.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
    }

    #[test]
    fn windows_ignore_a_short_slow_stretch() {
        // 900 samples: nine windows of 100; two of them slowed tenfold.
        let v: Vec<f64> = (0..900)
            .map(|i| if (300..500).contains(&i) { 10.0 } else { 1.0 })
            .collect();
        assert_eq!(median_over_windows(&v, |w| quantile(&sorted(w), 0.9)), 1.0);
        assert_eq!(quantile(&sorted(&v), 0.9), 10.0);
        let mut sizes = Vec::new();
        median_over_windows(&v[..120], |w| {
            sizes.push(w.len());
            0.0
        });
        assert_eq!(sizes, [60, 60]);
        assert_eq!(median_over_windows(&v[..7], |w| w.len() as f64), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.tail_label, s.tail), ("p99", 990.0));
        let s = summarize(&v[..100]);
        assert_eq!((s.tail_label, s.tail), ("p90", 90.0));
        assert_eq!(summarize(&v[..12]).tail_label, "max");
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert!((0..1000).all(|_| (-1.0..1.0).contains(&r.unit())));
    }
}
