//! Admission control: per-client token-bucket quotas.
//!
//! The batcher's bounded queue sheds load *after* a request has been
//! parsed, validated, and enqueued — it protects the predict workers,
//! not the frontend. This module generalises that backpressure to the
//! connection boundary: each client (keyed by peer IP, so reconnecting
//! does not reset the budget) owns a token bucket refilled at
//! `rate_per_s` with capacity `burst`. A request that finds the bucket
//! empty is refused with a `throttled` reply carrying a `retry_ms`
//! hint — the milliseconds until one token will have refilled — which
//! [`crate::client::RetryingClient`] honours as a backoff floor exactly
//! like the batcher's `overloaded` hint.
//!
//! Buckets hold fractional tokens (f64) so low rates work: at
//! `rate_per_s = 2` a client gets one admit every 500 ms, not a burst
//! of two per rounded second. The table is a `BTreeMap` behind a mutex;
//! admission is two comparisons and a multiply, so the critical section
//! is tens of nanoseconds and uncontended in practice (connection
//! handlers only touch it once per request). A poisoned mutex fails
//! *open* — admitting everything beats wedging the frontend on a
//! panicked sibling thread.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Quota knobs. `None` at the server level disables admission control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Steady-state tokens (requests) refilled per second per client.
    pub rate_per_s: f64,
    /// Bucket capacity: how many requests a client may burst after
    /// idling.
    pub burst: f64,
}

impl AdmissionConfig {
    /// A quota of `rate_per_s` with `burst` headroom. Both are clamped
    /// to a small positive floor so a zero/negative flag value cannot
    /// divide by zero or refuse everything forever.
    pub fn new(rate_per_s: f64, burst: f64) -> Self {
        Self { rate_per_s: rate_per_s.max(0.001), burst: burst.max(1.0) }
    }
}

/// One client's bucket: tokens at a point in time.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    /// Microseconds since the admission clock started.
    updated_us: u64,
}

/// Cap on tracked clients; the table cannot grow without bound under
/// address-spoofing or mass-reconnect. Beyond the cap, new clients
/// share one overflow bucket — they get *a* quota, just a collective
/// one, which under that kind of pressure is the right degradation.
const MAX_BUCKETS: usize = 4096;

/// Shared key for clients beyond [`MAX_BUCKETS`].
const OVERFLOW_KEY: &str = "\u{0}overflow";

/// The admission controller: one token bucket per client key.
pub struct Admission {
    config: AdmissionConfig,
    started: Instant,
    buckets: Mutex<BTreeMap<String, Bucket>>,
}

impl Admission {
    /// A controller enforcing `config` for every client key.
    pub fn new(config: AdmissionConfig) -> Self {
        Self {
            config,
            started: Instant::now(),
            buckets: Mutex::new(BTreeMap::new()),
        }
    }

    /// The active quota.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Admit or refuse one request from `key` at the current time.
    /// On refusal, returns the `retry_ms` hint.
    pub fn admit(&self, key: &str) -> Result<(), u64> {
        let now_us = self.started.elapsed().as_micros() as u64;
        self.admit_at(key, now_us)
    }

    /// Clock-injected core of [`Admission::admit`], unit-testable
    /// without sleeping: `now_us` is microseconds on a monotonic clock
    /// shared by all calls.
    pub fn admit_at(&self, key: &str, now_us: u64) -> Result<(), u64> {
        // lock-order: buckets is a leaf lock — nothing else is acquired
        // and nothing blocks while it is held; the guard covers only
        // the bucket read-modify-write below.
        let mut table = match self.buckets.lock() {
            Ok(t) => t,
            // Fail open: a poisoned table must not take down admission
            // for every healthy client.
            Err(_) => return Ok(()),
        };
        let key = if table.len() >= MAX_BUCKETS && !table.contains_key(key) {
            OVERFLOW_KEY
        } else {
            key
        };
        let bucket = table
            .entry(key.to_string())
            .or_insert(Bucket { tokens: self.config.burst, updated_us: now_us });
        // Refill for the elapsed interval, clamped to capacity. The
        // clock is monotonic so the saturating_sub only guards the
        // overflow-bucket case where entries are shared across callers.
        let elapsed_s = now_us.saturating_sub(bucket.updated_us) as f64 / 1e6;
        bucket.tokens = (bucket.tokens + elapsed_s * self.config.rate_per_s).min(self.config.burst);
        bucket.updated_us = now_us;
        let deficit = if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            None
        } else {
            Some(1.0 - bucket.tokens)
        };
        drop(table);
        // The hint math runs with the table released so a throttled
        // client never extends the critical section for admitted ones.
        match deficit {
            None => Ok(()),
            Some(deficit) => {
                // Milliseconds until one whole token is available, rounded
                // up and floored at 1 so the hint is always actionable.
                let ms = (deficit / self.config.rate_per_s * 1e3).ceil();
                Err((ms as u64).max(1))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_admits_then_throttles_with_actionable_hint() {
        let a = Admission::new(AdmissionConfig::new(10.0, 3.0));
        for i in 0..3 {
            assert!(a.admit_at("c1", 0).is_ok(), "burst admit {i}");
        }
        let hint = a.admit_at("c1", 0).unwrap_err();
        // One token at 10/s takes 100 ms.
        assert_eq!(hint, 100);
    }

    #[test]
    fn tokens_refill_at_the_configured_rate() {
        let a = Admission::new(AdmissionConfig::new(10.0, 1.0));
        assert!(a.admit_at("c", 0).is_ok());
        assert!(a.admit_at("c", 0).is_err(), "empty immediately after");
        // 50 ms = half a token: still refused, hint shrinks to 50 ms.
        assert_eq!(a.admit_at("c", 50_000).unwrap_err(), 50);
        // 100 ms total = one full token.
        assert!(a.admit_at("c", 100_000).is_ok());
    }

    #[test]
    fn refill_clamps_at_burst_capacity() {
        let a = Admission::new(AdmissionConfig::new(1000.0, 2.0));
        assert!(a.admit_at("c", 0).is_ok());
        // An hour idle still only banks `burst` tokens.
        let hour_us = 3_600_000_000;
        assert!(a.admit_at("c", hour_us).is_ok());
        assert!(a.admit_at("c", hour_us).is_ok());
        assert!(a.admit_at("c", hour_us).is_err());
    }

    #[test]
    fn clients_have_independent_buckets() {
        let a = Admission::new(AdmissionConfig::new(1.0, 1.0));
        assert!(a.admit_at("alice", 0).is_ok());
        assert!(a.admit_at("alice", 0).is_err());
        assert!(a.admit_at("bob", 0).is_ok(), "bob unaffected by alice's spend");
    }

    #[test]
    fn fractional_rates_space_admits_evenly() {
        let a = Admission::new(AdmissionConfig::new(2.0, 1.0));
        assert!(a.admit_at("c", 0).is_ok());
        assert!(a.admit_at("c", 250_000).is_err(), "only half a token at 250 ms");
        assert!(a.admit_at("c", 500_000).is_ok(), "one token at 500 ms");
    }

    #[test]
    fn bucket_table_is_capped_with_a_shared_overflow_bucket() {
        let a = Admission::new(AdmissionConfig::new(1.0, 1.0));
        for i in 0..MAX_BUCKETS {
            let _admitted = a.admit_at(&format!("client-{i}"), 0);
        }
        // Two fresh clients now share the overflow bucket: the first
        // spends its single token, the second is refused.
        assert!(a.admit_at("late-1", 0).is_ok());
        assert!(a.admit_at("late-2", 0).is_err());
        let n = a.buckets.lock().map(|t| t.len()).unwrap_or(0);
        assert_eq!(n, MAX_BUCKETS + 1, "cap + one overflow bucket");
    }

    #[test]
    fn config_clamps_degenerate_flag_values() {
        let c = AdmissionConfig::new(0.0, 0.0);
        assert!(c.rate_per_s > 0.0);
        assert!(c.burst >= 1.0);
    }
}
