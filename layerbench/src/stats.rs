//! Summary statistics with the benchmark's reporting rules: medians,
//! tail percentiles that keep at least ten samples beyond them,
//! open-loop lateness accounting and backlog detection on a rate rung.

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median over input classes of each class's median: `samples` are
/// `(class, value)` pairs. Runs that cycle through inputs of different
/// cost report this rather than one median of the mixture, which jumps
/// between the classes' levels; the outer median keeps one slow input,
/// or one operation hit by a noisy neighbour, from moving the figure.
pub fn median_of_medians(samples: &[(u64, f64)]) -> f64 {
    let mut by_class: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(c, v) in samples {
        by_class.entry(c).or_default().push(v);
    }
    let medians: Vec<f64> = by_class.values().map(|v| median(v)).collect();
    median(&medians)
}

/// Nearest-rank percentile `p` (0–100] of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (99.9% of 10 000 = 9990.000…02)
    // from pushing the rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile on the ladder with at least [`MIN_BEYOND`]
/// samples above its rank, with its value: `(percentile, value)`.
/// `None` when even the median lacks ten samples beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    let p = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n.saturating_sub(rank(n.max(1), p)) >= MIN_BEYOND)?;
    Some((p, percentile(xs, p)))
}

/// One open-loop request: when it was due, when the generator sent it,
/// and when its result was in hand (all seconds on one clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Scheduled send time.
    pub due: f64,
    /// Actual send time (never before `due`).
    pub sent: f64,
    /// Time the result was fetched.
    pub done: f64,
}

impl Arrival {
    /// Latency as the user sees it: from when the request was due, so a
    /// stall that delays later sends is charged to those requests too.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent the request.
    pub fn lag(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Whether the outstanding-request count grew over a rung. `samples`
/// are `(time, outstanding)` pairs taken while the rung ran; the
/// backlog grows when the least-squares slope exceeds `max_share` of
/// the offered `rate` (requests per second), i.e. more than that share
/// of arrivals is left behind.
pub fn backlog_growing(samples: &[(f64, f64)], rate: f64, max_share: f64) -> bool {
    if samples.len() < 3 {
        return false;
    }
    let n = samples.len() as f64;
    let mt = samples.iter().map(|s| s.0).sum::<f64>() / n;
    let mq = samples.iter().map(|s| s.1).sum::<f64>() / n;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for &(t, q) in samples {
        sxy += (t - mt) * (q - mq);
        sxx += (t - mt) * (t - mt);
    }
    sxx > 0.0 && sxy / sxx > max_share * rate
}

/// Outcome of one fixed-rate rung of the ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Latencies of the requests that completed, in ms.
    pub latencies_ms: Vec<f64>,
    /// Requests refused or failed (each misses any latency limit).
    pub failed: u64,
    /// Whether the backlog grew during the rung.
    pub backlog_growing: bool,
}

impl Rung {
    /// The rung's tail latency by the tail rule, or its maximum when too
    /// few samples support a percentile.
    pub fn tail_ms(&self) -> f64 {
        tail(&self.latencies_ms)
            .map(|(_, v)| v)
            .unwrap_or_else(|| self.latencies_ms.iter().copied().fold(0.0, f64::max))
    }

    /// Whether the rung met the latency limit with nothing failed and
    /// no growing backlog.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.failed == 0 && !self.backlog_growing && self.tail_ms() <= limit_ms
    }
}

/// Highest rate among `rungs` that meets `limit_ms`; 0 when none does.
pub fn max_rate(rungs: &[Rung], limit_ms: f64) -> f64 {
    rungs
        .iter()
        .filter(|r| r.meets(limit_ms))
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&ramp(100), 99.0), 99.0);
        assert_eq!(percentile(&ramp(100), 50.0), 50.0);
    }

    #[test]
    fn median_of_class_medians() {
        // Class 0 has median 10, class 1 median 30: their median is 20,
        // however many samples each class contributes.
        let s = [
            (0, 9.0),
            (0, 10.0),
            (0, 11.0),
            (1, 30.0),
            (0, 100.0),
            (0, 10.0),
        ];
        assert_eq!(median_of_medians(&s), 20.0);
        // A third, slow class moves the figure only to the middle class.
        assert_eq!(median_of_medians(&[(0, 10.0), (1, 30.0), (2, 900.0)]), 30.0);
        assert_eq!(median_of_medians(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: rank 990, so exactly ten lie beyond p99.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 would leave nine beyond, so fall to p95.
        assert_eq!(tail(&ramp(999)).map(|t| t.0), Some(95.0));
        // 10_000 samples support p99.9.
        assert_eq!(tail(&ramp(10_000)).map(|t| t.0), Some(99.9));
        // 100 samples: p90 leaves ten beyond.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 20 samples: only the median keeps ten beyond; 19 keep none.
        assert_eq!(tail(&ramp(20)).map(|t| t.0), Some(50.0));
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // The generator stalls: the second and third requests go out at
        // 25 ms although they were due at 10 and 20 ms.
        let reqs = [
            Arrival {
                due: 0.000,
                sent: 0.000,
                done: 0.005,
            },
            Arrival {
                due: 0.010,
                sent: 0.025,
                done: 0.030,
            },
            Arrival {
                due: 0.020,
                sent: 0.025,
                done: 0.032,
            },
        ];
        let lat: Vec<f64> = reqs.iter().map(|r| (r.latency() * 1e3).round()).collect();
        let lag: Vec<f64> = reqs.iter().map(|r| (r.lag() * 1e3).round()).collect();
        assert_eq!(lat, vec![5.0, 20.0, 12.0]);
        assert_eq!(lag, vec![0.0, 15.0, 5.0]);
        // Timing from the send would hide the stall.
        assert!(reqs[1].done - reqs[1].sent < reqs[1].latency());
    }

    #[test]
    fn backlog_detection_on_the_ladder() {
        // Steady: the queue hovers around 3 whatever the time.
        let steady: Vec<(f64, f64)> = (0..40)
            .map(|i| (i as f64 * 0.05, 3.0 + (i % 3) as f64))
            .collect();
        assert!(!backlog_growing(&steady, 10.0, 0.1));
        // Overload: a third of the 10/s arrivals pile up (slope 3.3/s).
        let growing: Vec<(f64, f64)> = (0..40)
            .map(|i| (i as f64 * 0.05, (i as f64 * 0.05 * 3.3).floor()))
            .collect();
        assert!(backlog_growing(&growing, 10.0, 0.1));
        // Too few samples to judge.
        assert!(!backlog_growing(&growing[..2], 10.0, 0.1));

        let fast = |rate: f64, backlog: bool| Rung {
            rate,
            latencies_ms: vec![5.0; 30],
            failed: 0,
            backlog_growing: backlog,
        };
        let mut refused = fast(8.0, false);
        refused.failed = 1;
        let slow = Rung {
            latencies_ms: vec![500.0; 30],
            ..fast(6.0, false)
        };
        let rungs = [
            fast(2.0, false),
            fast(4.0, false),
            slow,
            refused,
            fast(16.0, true),
        ];
        assert_eq!(max_rate(&rungs, 100.0), 4.0);
        assert_eq!(max_rate(&rungs[2..], 100.0), 0.0);
    }
}
