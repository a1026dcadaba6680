//! Order statistics and process measurements.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// order statistics; `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Samples this process's resident set every 5 ms on a background
/// thread, so each timed operation can report the peak it reached.
pub struct RssSampler {
    peak_kb: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let peak_kb = Arc::new(AtomicU64::new(rss_kb()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (peak_kb, stop) = (peak_kb.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    peak_kb.fetch_max(rss_kb(), Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            })
        };
        RssSampler { peak_kb, stop, thread: Some(thread) }
    }

    /// Starts a new window at the current resident set.
    pub fn reset(&self) {
        self.peak_kb.store(rss_kb(), Ordering::Relaxed);
    }

    /// Peak resident set since the last reset, in MiB.
    pub fn peak_mb(&self) -> f64 {
        let now = rss_kb();
        self.peak_kb.fetch_max(now, Ordering::Relaxed).max(now) as f64 / 1024.0
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }
}
