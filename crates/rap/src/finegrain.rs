//! RAP's optional fine-grain rate adaptation.
//!
//! The RAP variant with fine-grain adaptation scales the inter-packet gap
//! continuously by the ratio of a short-term to a long-term RTT average, so
//! the flow eases off slightly as queues build (a delay-based congestion
//! *avoidance* hint layered on the coarse AIMD machinery). The quality
//! adaptation paper deliberately evaluates the variant **without** this
//! mechanism because its sawtooth is easier to predict; we implement it so
//! the ablation can quantify that choice, but it is off by default.


/// Short/long RTT ratio estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct FineGrain {
    short: f64,
    long: f64,
    seeded: bool,
    /// EWMA gain for the short-term average.
    short_gain: f64,
    /// EWMA gain for the long-term average.
    long_gain: f64,
    /// Clamp for the returned scaling factor.
    clamp: (f64, f64),
}

impl Default for FineGrain {
    fn default() -> Self {
        FineGrain {
            short: 0.0,
            long: 0.0,
            seeded: false,
            // RAP uses gains of roughly 1/8 (short) and 1/64 (long).
            short_gain: 1.0 / 8.0,
            long_gain: 1.0 / 64.0,
            clamp: (0.5, 2.0),
        }
    }
}

impl FineGrain {
    /// New estimator with default gains.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb an RTT sample (seconds).
    pub fn sample(&mut self, rtt: f64) {
        if !(rtt.is_finite() && rtt > 0.0) {
            return;
        }
        if !self.seeded {
            self.short = rtt;
            self.long = rtt;
            self.seeded = true;
            return;
        }
        self.short += (rtt - self.short) * self.short_gain;
        self.long += (rtt - self.long) * self.long_gain;
    }

    /// IPG scaling factor: `short/long`, clamped. Values above 1 stretch
    /// the gap (RTTs rising → back off slightly); below 1 shrink it.
    pub fn ipg_factor(&self) -> f64 {
        if !self.seeded || self.long <= 0.0 {
            return 1.0;
        }
        (self.short / self.long).clamp(self.clamp.0, self.clamp.1)
    }

    /// Short-term RTT average.
    pub fn short_term(&self) -> f64 {
        self.short
    }

    /// Long-term RTT average.
    pub fn long_term(&self) -> f64 {
        self.long
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unity_factor_before_seeding() {
        assert_eq!(FineGrain::new().ipg_factor(), 1.0);
    }

    #[test]
    fn rising_rtt_stretches_gap() {
        let mut f = FineGrain::new();
        for _ in 0..100 {
            f.sample(0.1);
        }
        for _ in 0..10 {
            f.sample(0.3);
        }
        assert!(f.ipg_factor() > 1.0, "factor {}", f.ipg_factor());
    }

    #[test]
    fn falling_rtt_shrinks_gap() {
        let mut f = FineGrain::new();
        for _ in 0..200 {
            f.sample(0.3);
        }
        for _ in 0..10 {
            f.sample(0.1);
        }
        assert!(f.ipg_factor() < 1.0);
    }

    #[test]
    fn factor_clamped() {
        let mut f = FineGrain::new();
        for _ in 0..500 {
            f.sample(0.01);
        }
        for _ in 0..50 {
            f.sample(10.0);
        }
        assert!(f.ipg_factor() <= 2.0);
    }

    #[test]
    fn steady_rtt_gives_unity() {
        let mut f = FineGrain::new();
        for _ in 0..1000 {
            f.sample(0.2);
        }
        assert!((f.ipg_factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn garbage_samples_ignored() {
        let mut f = FineGrain::new();
        f.sample(f64::NAN);
        f.sample(-3.0);
        assert_eq!(f.ipg_factor(), 1.0);
    }
}
