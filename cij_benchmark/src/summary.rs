//! Sample summaries (median, quartiles, supported tail percentile), the
//! result fingerprint and the process's peak memory.

/// Linear-interpolated quantile of an ascending-sorted sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// `(q1, median, q3)` — printed beside every median so a reader sees the
/// spread the number came from.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let s = sorted(samples);
    (quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75))
}

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// The `p`-th percentile, or `None` when fewer than [`TAIL_SUPPORT`]
/// samples lie beyond it: with 20 samples a "p95" is the maximum, which
/// measures the noisiest moment of the host and not the program.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let beyond = (samples.len() as f64 * (1.0 - p)).floor() as usize;
    (beyond >= TAIL_SUPPORT).then(|| quantile(&sorted(samples), p))
}

/// FNV-1a over a sequence of ids: order-sensitive, so two result streams
/// fingerprint equal only when they emit the same rows in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn push(&mut self, id: u64) {
        for b in id.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); `None` where
/// `/proc` is not available.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..199).map(|i| i as f64).collect();
        assert_eq!(tail_percentile(&few, 0.95), None, "199 × 0.05 = 9.95 → 9");
        let enough: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let p95 = tail_percentile(&enough, 0.95).expect("200 × 0.05 = 10 beyond");
        assert!((p95 - 189.05).abs() < 1e-9);
        // A median always has support once there are 20 samples.
        assert!(tail_percentile(&enough[..20], 0.5).is_some());
        assert!(tail_percentile(&enough[..19], 0.5).is_none());
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let of = |ids: &[u64]| {
            let mut f = Fingerprint::default();
            ids.iter().for_each(|&id| f.push(id));
            f
        };
        assert_ne!(of(&[1, 2, 3, 4]), of(&[3, 4, 1, 2]));
        assert_eq!(of(&[1, 2, 3, 4]), of(&[1, 2, 3, 4]));
        assert_ne!(of(&[]), of(&[0]));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
