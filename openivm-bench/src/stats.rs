//! Latency samples, percentile selection, and open-loop due-time accounting.

use std::time::Duration;

/// A p95 needs at least ten samples beyond it to mean anything; at 5 % that
/// is 200 samples. Below that [`Samples::p95`] refuses.
pub const P95_MIN_SAMPLES: usize = 200;

/// Latency samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ms: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_ms(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ms.extend_from_slice(&other.ms);
    }

    /// Share of samples above `limit_ms` (0 without samples).
    pub fn share_above(&self, limit_ms: f64) -> f64 {
        let above = self.ms.iter().filter(|&&ms| ms > limit_ms).count();
        above as f64 / self.ms.len().max(1) as f64
    }

    pub fn sum_ms(&self) -> f64 {
        self.ms.iter().sum()
    }

    pub fn max_ms(&self) -> Option<f64> {
        self.ms.iter().copied().reduce(f64::max)
    }

    /// Median (nearest rank); `None` without samples.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(0.50)
    }

    /// 95th percentile (nearest rank); `None` below [`P95_MIN_SAMPLES`].
    pub fn p95(&self) -> Option<f64> {
        if self.ms.len() < P95_MIN_SAMPLES {
            return None;
        }
        self.percentile(0.95)
    }

    fn percentile(&self, q: f64) -> Option<f64> {
        if self.ms.is_empty() {
            return None;
        }
        let mut sorted = self.ms.clone();
        sorted.sort_by(f64::total_cmp);
        // Nearest rank: the smallest sample with at least q·n samples at or
        // below it.
        let rank = (q * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }
}

/// Median of a handful of values (set-up repetitions, probe repeats).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut s = Samples::default();
    for &v in values {
        s.push_ms(v);
    }
    s.p50()
}

/// Open-loop schedule: operation `i` is due at `i × interval` after the
/// start, whether or not earlier replies have arrived. Latency is timed
/// from the *due* time, so a stalled reply charges its delay to every
/// operation that had to wait behind it.
#[derive(Debug)]
pub struct Schedule {
    interval_ns: u64,
    issued: u64,
}

impl Schedule {
    pub fn per_second(rate: f64) -> Schedule {
        Schedule {
            interval_ns: (1e9 / rate) as u64,
            issued: 0,
        }
    }

    /// Due time (ns after start) of the next operation to issue.
    pub fn next_due_ns(&self) -> u64 {
        self.issued * self.interval_ns
    }

    /// Claim the next operation; returns its due time. The caller sleeps
    /// until then if it is early and sends immediately if it is late.
    pub fn issue(&mut self) -> u64 {
        let due = self.next_due_ns();
        self.issued += 1;
        due
    }

    /// Latency of an operation due at `due_ns` whose reply arrived at
    /// `done_ns` (both ns after start).
    pub fn latency_ms(due_ns: u64, done_ns: u64) -> f64 {
        done_ns.saturating_sub(due_ns) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push_ms(v);
        }
        s
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = samples((1..=200).map(f64::from));
        assert_eq!(s.p50(), Some(100.0));
        assert_eq!(s.p95(), Some(190.0));
        assert_eq!(s.max_ms(), Some(200.0));
        assert_eq!(samples([7.0]).p50(), Some(7.0));
        assert_eq!(samples([3.0, 1.0, 2.0]).p50(), Some(2.0));
    }

    #[test]
    fn p95_refuses_fewer_than_200_samples() {
        assert_eq!(samples((1..=199).map(f64::from)).p95(), None);
        assert!(samples((1..=200).map(f64::from)).p95().is_some());
        assert_eq!(Samples::default().p50(), None);
    }

    /// Drive the schedule with a fake clock: a generator that sends each
    /// operation at max(due, previous reply) and a server whose third
    /// reply stalls.
    #[test]
    fn a_stalled_reply_inflates_the_next_samples() {
        let mut schedule = Schedule::per_second(100.0); // one op per 10 ms
        let service_ms = [1u64, 1, 50, 1, 1, 1, 1, 1];
        let mut now_ns = 0u64;
        let mut latencies = Vec::new();
        for s in service_ms {
            let due = schedule.issue();
            now_ns = now_ns.max(due) + s * 1_000_000;
            latencies.push(Schedule::latency_ms(due, now_ns));
        }
        // Due times 0,10,20,30,40,50,60,70 ms; the stall ends at 70 ms.
        assert_eq!(
            latencies,
            vec![1.0, 1.0, 50.0, 41.0, 32.0, 23.0, 14.0, 5.0],
            "operations queued behind the stall carry its delay"
        );
        // Timed from the send instead, ops 3..7 would all have read 1 ms.
    }

    #[test]
    fn an_early_generator_never_reports_negative_latency() {
        assert_eq!(Schedule::latency_ms(5_000_000, 4_000_000), 0.0);
    }
}
