//! Lock-free serving counters: request/batch totals and latency
//! distributions, exposed on the `stats` endpoint.
//!
//! Latencies go into a log-linear-bucketed histogram of atomic
//! counters, so recording from connection handlers and batch workers
//! never takes a lock. Pure log₂ buckets proved too coarse in
//! practice: with whole-octave resolution every latency between 4.1 ms
//! and 8.2 ms lands in one bucket, so a snapshot could report
//! `request_p50_us == request_p99_us == 8192`. Each octave is
//! therefore split into [`SUB_BUCKETS`] linear sub-buckets (the
//! HdrHistogram layout), bounding the relative error of any reported
//! percentile at `1/SUB_BUCKETS` ≈ 3%. Values below [`SUB_BUCKETS`]
//! are exact. Percentiles are upper bounds of the matched sub-bucket;
//! exact client-side percentiles come from the benchmark
//! (`perfbench/`), which times every request itself.

use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Linear sub-buckets per octave (power of two).
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Octaves above the exact linear region: `micros` is u64, so the top
/// set bit is at most 63 and groups `SUB_BITS..=63` need coverage.
const N_GROUPS: usize = 64 - SUB_BITS as usize;
const N_BUCKETS: usize = SUB_BUCKETS * (N_GROUPS + 1);

/// Bucket index for one microsecond value. Values below `SUB_BUCKETS`
/// index directly (exact); above, the octave of the top set bit picks
/// the group and the next `SUB_BITS` bits pick the linear sub-bucket
/// within it. The first group (values `SUB_BUCKETS..2·SUB_BUCKETS`)
/// continues the linear region seamlessly.
fn bucket_index(micros: u64) -> usize {
    if micros < SUB_BUCKETS as u64 {
        return micros as usize;
    }
    let msb = 63 - micros.leading_zeros();
    let group = (msb - SUB_BITS) as usize;
    let sub = ((micros >> (msb - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
    SUB_BUCKETS + group * SUB_BUCKETS + sub
}

/// Inclusive upper bound of a bucket, the value percentiles report.
fn bucket_upper(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let group = (index - SUB_BUCKETS) / SUB_BUCKETS;
    let sub = (index - SUB_BUCKETS) % SUB_BUCKETS;
    // Widened: the top group's upper bound is exactly 2^64, which
    // overflows u64 (group ≤ 58 keeps the u128 shift in range).
    let upper = (((SUB_BUCKETS + sub + 1) as u128) << group) - 1;
    u64::try_from(upper).unwrap_or(u64::MAX)
}

/// Log-linear latency histogram over microseconds (≈3% resolution).
pub struct LatencyHistogram {
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one latency sample.
    pub fn record(&self, micros: u64) {
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Approximate percentile (`q` in 0..=1): the upper bound of the
    /// sub-bucket holding the q-th sample (within ≈3% of the true
    /// value).
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((n as f64 * q).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper(i);
            }
        }
        bucket_upper(N_BUCKETS - 1)
    }
}

/// All counters for one server instance.
///
/// Counting rule, the same on both wire protocols: a predict or augment
/// counts in `requests` once it has decoded completely — envelope and
/// series — and before admission or validation. A request that fails
/// to decode (bad JSON, missing field, bad frame, or a series that does
/// not parse) counts in `errors` only.
pub struct ServerStats {
    started: Instant,
    /// Predict and augment requests received (decoded, before
    /// admission and validation).
    pub requests: AtomicU64,
    /// Requests answered with an error, including ones that failed to
    /// decode.
    pub errors: AtomicU64,
    /// Predict requests refused with an `overloaded` reply (bounded
    /// queue full or fault-plan shed). Not counted as errors: shedding
    /// is backpressure working, not the server failing.
    pub shed: AtomicU64,
    /// Predict requests refused with a `throttled` reply (per-client
    /// admission quota exceeded). Like `shed`, backpressure — not an
    /// error.
    pub throttled: AtomicU64,
    /// Batches executed by the micro-batch workers.
    pub batches: AtomicU64,
    /// Series predicted across all batches.
    pub batched_items: AtomicU64,
    /// Per-request wall latency (enqueue → response ready).
    pub request_latency: LatencyHistogram,
    /// Per-batch lane work: the item steps of its jobs plus its batch
    /// step.
    pub batch_latency: LatencyHistogram,
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerStats {
    /// Fresh counters; the uptime clock starts now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_items: AtomicU64::new(0),
            request_latency: LatencyHistogram::default(),
            batch_latency: LatencyHistogram::default(),
        }
    }

    /// Point-in-time snapshot of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let batches = self.batches.load(Ordering::Relaxed);
        let batched_items = self.batched_items.load(Ordering::Relaxed);
        StatsSnapshot {
            uptime_s: self.started.elapsed().as_secs_f64(),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            throttled: self.throttled.load(Ordering::Relaxed),
            batches,
            batched_items,
            mean_batch: if batches == 0 { 0.0 } else { batched_items as f64 / batches as f64 },
            request_p50_us: self.request_latency.percentile(0.50),
            request_p99_us: self.request_latency.percentile(0.99),
            request_mean_us: self.request_latency.mean(),
            batch_mean_us: self.batch_latency.mean(),
        }
    }
}

/// A snapshot of [`ServerStats`], serialisable for the `stats` endpoint.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StatsSnapshot {
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Predict requests received.
    pub requests: u64,
    /// Predict requests answered with an error.
    pub errors: u64,
    /// Predict requests refused with an `overloaded` reply.
    pub shed: u64,
    /// Predict requests refused with a `throttled` reply.
    pub throttled: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Series predicted across all batches.
    pub batched_items: u64,
    /// Mean batch size (`batched_items / batches`).
    pub mean_batch: f64,
    /// Approximate p50 request latency, microseconds.
    pub request_p50_us: u64,
    /// Approximate p99 request latency, microseconds.
    pub request_p99_us: u64,
    /// Mean request latency, microseconds.
    pub request_mean_us: f64,
    /// Mean lane work per batch (item steps + batch step),
    /// microseconds.
    pub batch_mean_us: f64,
}

impl StatsSnapshot {
    /// The snapshot as a JSON value tree (for embedding in responses).
    pub fn to_value(&self) -> Value {
        serde::Serialize::to_value(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        // Small values are exact.
        assert_eq!(h.percentile(0.5), 30);
        let p99 = h.percentile(0.99);
        assert!((1000..=1032).contains(&p99), "p99 {p99} not within 3.2% above 1000");
        assert!((h.mean() - 220.0).abs() < 1e-9);
    }

    #[test]
    fn sub_buckets_separate_values_one_octave_apart_reported_identically_before() {
        // The whole-octave regression: 5880 µs and 9727 µs both
        // reported as 8192.
        assert_ne!(bucket_index(5880), bucket_index(9727));
        let h = LatencyHistogram::default();
        h.record(5880);
        assert!((5880..=5880 + 5880 / 31).contains(&h.percentile(0.5)));
        let h = LatencyHistogram::default();
        h.record(9727);
        assert!((9727..=9727 + 9727 / 31).contains(&h.percentile(0.5)));
    }

    #[test]
    fn bucket_layout_is_monotone_and_within_3_percent() {
        let mut prev_idx = 0usize;
        let mut v = 1u64;
        while v < (1 << 40) {
            let idx = bucket_index(v);
            assert!(idx >= prev_idx, "index not monotone at {v}");
            assert!(idx < N_BUCKETS);
            let upper = bucket_upper(idx);
            assert!(upper >= v, "upper {upper} below sample {v}");
            assert!(
                (upper - v) as f64 <= (v as f64 / 16.0).max(1.0),
                "upper {upper} too far above {v}"
            );
            prev_idx = idx;
            v = v * 31 / 29 + 1;
        }
        // Extremes stay in range.
        assert!(bucket_index(u64::MAX) < N_BUCKETS);
        assert_eq!(bucket_upper(bucket_index(u64::MAX)), u64::MAX);
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_upper(0), 0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let stats = ServerStats::new();
        stats.requests.fetch_add(10, Ordering::Relaxed);
        stats.batches.fetch_add(2, Ordering::Relaxed);
        stats.batched_items.fetch_add(10, Ordering::Relaxed);
        stats.request_latency.record(100);
        let snap = stats.snapshot();
        assert_eq!(snap.mean_batch, 5.0);
        let text = serde_json::to_string(&snap).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back.requests, 10);
        assert_eq!(back.mean_batch, 5.0);
    }
}
