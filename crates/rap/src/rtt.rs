//! Round-trip-time estimation (Jacobson/Karels, as used by RAP and TCP).
//!
//! RAP adjusts its rate once per smoothed RTT and derives its timeout from
//! the same estimator TCP uses: an exponentially weighted moving average of
//! RTT samples plus four mean deviations.

/// Jacobson/Karels RTT estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct RttEstimator {
    srtt: f64,
    rttvar: f64,
    /// True until the first sample seeds the estimator.
    seeded: bool,
    /// Lower bound on the returned RTO (seconds).
    min_rto: f64,
    /// Upper bound on the returned RTO (seconds).
    max_rto: f64,
    /// Karn-style exponential backoff exponent: each timeout doubles the
    /// RTO (capped), a fresh sample resets it.
    backoff: u32,
}

/// Cap on the backoff exponent: 2^6 = 64× the base RTO, which already
/// exceeds `max_rto` for any plausible path — further doubling only risks
/// overflow-style pathologies under RTO storms.
const MAX_BACKOFF_EXP: u32 = 6;

impl RttEstimator {
    /// New estimator with an initial guess of `initial_rtt` seconds.
    pub fn new(initial_rtt: f64) -> Self {
        let initial = if initial_rtt.is_finite() && initial_rtt > 0.0 {
            initial_rtt
        } else {
            0.5
        };
        RttEstimator {
            srtt: initial,
            rttvar: initial / 2.0,
            seeded: false,
            min_rto: 0.2,
            max_rto: 60.0,
            backoff: 0,
        }
    }

    /// Smoothed RTT (seconds).
    pub fn srtt(&self) -> f64 {
        self.srtt
    }

    /// RTT mean deviation (seconds).
    pub fn rttvar(&self) -> f64 {
        self.rttvar
    }

    /// Whether at least one sample has been absorbed.
    pub fn seeded(&self) -> bool {
        self.seeded
    }

    /// Retransmission/idle timeout: `srtt + 4·rttvar`, doubled per
    /// unanswered timeout (Karn backoff), clamped to `[min_rto, max_rto]`.
    pub fn rto(&self) -> f64 {
        // Backoff multiplies the clamped base (classic Karn/BSD behaviour):
        // a path whose raw base sits below `min_rto` must still double from
        // `min_rto`, not silently absorb the first few doublings; the
        // product is re-clamped so a storm can never push the timeout past
        // the hard ceiling.
        let base = (self.srtt + 4.0 * self.rttvar).max(self.min_rto);
        (base * f64::from(1u32 << self.backoff)).min(self.max_rto)
    }

    /// Current backoff exponent (0 when no timeout is outstanding).
    pub fn backoff_exponent(&self) -> u32 {
        self.backoff
    }

    /// Clear the timeout backoff (e.g. on any ACK progress, even one that
    /// yields no usable RTT sample).
    pub fn reset_backoff(&mut self) {
        self.backoff = 0;
    }

    /// Absorb an RTT sample (seconds). Non-finite or non-positive samples
    /// are ignored.
    pub fn sample(&mut self, rtt: f64) {
        if !(rtt.is_finite() && rtt > 0.0) {
            return;
        }
        // Karn: a valid sample means the path is answering again.
        self.backoff = 0;
        if !self.seeded {
            self.srtt = rtt;
            self.rttvar = rtt / 2.0;
            self.seeded = true;
            return;
        }
        // RFC 6298 coefficients: alpha = 1/8, beta = 1/4.
        let err = rtt - self.srtt;
        self.srtt += err / 8.0;
        self.rttvar += (err.abs() - self.rttvar) / 4.0;
    }

    /// Exponentially back off the RTO after a timeout. The estimate itself
    /// (`srtt`/`rttvar`) is left alone — mutating the variance here both
    /// corrupted the estimator with non-measurements and clamped `rttvar`
    /// against `max_rto`, a bound on a different quantity entirely. The
    /// multiplier is capped so repeated timeouts saturate instead of
    /// overflowing.
    pub fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(MAX_BACKOFF_EXP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_seeds_directly() {
        let mut e = RttEstimator::new(0.5);
        e.sample(0.1);
        assert!((e.srtt() - 0.1).abs() < 1e-12);
        assert!((e.rttvar() - 0.05).abs() < 1e-12);
        assert!(e.seeded());
    }

    #[test]
    fn ewma_converges_to_constant_rtt() {
        let mut e = RttEstimator::new(1.0);
        for _ in 0..200 {
            e.sample(0.04);
        }
        assert!((e.srtt() - 0.04).abs() < 1e-6);
        assert!(e.rttvar() < 1e-3);
    }

    #[test]
    fn rto_clamped_to_min() {
        let mut e = RttEstimator::new(0.01);
        for _ in 0..100 {
            e.sample(0.01);
        }
        assert!((e.rto() - 0.2).abs() < 1e-12, "rto = {}", e.rto());
    }

    #[test]
    fn rto_grows_with_variance() {
        let mut e = RttEstimator::new(0.2);
        for i in 0..50 {
            e.sample(if i % 2 == 0 { 0.1 } else { 0.5 });
        }
        assert!(e.rto() > e.srtt());
        assert!(e.rttvar() > 0.05);
    }

    #[test]
    fn ignores_garbage_samples() {
        let mut e = RttEstimator::new(0.3);
        e.sample(f64::NAN);
        e.sample(-1.0);
        e.sample(0.0);
        assert!(!e.seeded());
        assert!((e.srtt() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn timeout_doubles_rto_not_variance() {
        let mut e = RttEstimator::new(0.2);
        e.sample(0.2);
        let v = e.rttvar();
        let rto = e.rto();
        e.on_timeout();
        assert!((e.rttvar() - v).abs() < 1e-12, "estimate untouched");
        assert!((e.srtt() - 0.2).abs() < 1e-12, "estimate untouched");
        assert!((e.rto() - 2.0 * rto).abs() < 1e-12, "RTO doubled");
        assert_eq!(e.backoff_exponent(), 1);
    }

    #[test]
    fn repeated_timeouts_saturate_at_caps() {
        let mut e = RttEstimator::new(0.2);
        e.sample(0.2);
        // Far more timeouts than the exponent cap: the multiplier must
        // saturate (no overflow, no runaway) and the RTO must respect the
        // hard ceiling.
        for _ in 0..1_000 {
            e.on_timeout();
        }
        assert_eq!(e.backoff_exponent(), 6);
        let base = e.srtt() + 4.0 * e.rttvar();
        assert!((e.rto() - (base * 64.0).min(60.0)).abs() < 1e-12);
        assert!(e.rto() <= 60.0, "RTO never exceeds max_rto");
        assert!(e.rto().is_finite());
    }

    #[test]
    fn sample_and_reset_clear_backoff() {
        let mut e = RttEstimator::new(0.2);
        e.sample(0.2);
        e.on_timeout();
        e.on_timeout();
        assert_eq!(e.backoff_exponent(), 2);
        e.sample(0.2);
        assert_eq!(e.backoff_exponent(), 0, "valid sample clears backoff");
        e.on_timeout();
        e.reset_backoff();
        assert_eq!(e.backoff_exponent(), 0);
        // A garbage sample is ignored entirely and must not clear backoff.
        e.on_timeout();
        e.sample(f64::NAN);
        assert_eq!(e.backoff_exponent(), 1);
    }

    #[test]
    fn bad_initial_falls_back() {
        let e = RttEstimator::new(f64::NAN);
        assert!((e.srtt() - 0.5).abs() < 1e-12);
    }
}
