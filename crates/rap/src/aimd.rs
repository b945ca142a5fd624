//! RAP's AIMD rate machinery.
//!
//! RAP is *rate-based*: the sender paces packets with an inter-packet gap
//! `IPG = packet_size / rate`, and adapts the rate once per smoothed RTT
//! ("step"):
//!
//! * **Additive increase** — one extra packet per SRTT each SRTT:
//!   `R ← R + packet_size / srtt` (equivalently
//!   `IPG ← IPG·srtt / (IPG + srtt)`).
//! * **Multiplicative decrease** — on a loss event the rate halves:
//!   `R ← R / 2` (`IPG ← 2·IPG`).
//!
//! The resulting transmission-rate trajectory is the regular sawtooth of the
//! paper's figure 1 (unlike TCP, RAP is not ACK-clocked, so the shape is
//! clean). The quality-adaptation layer consumes the rate, the slope of the
//! linear increase (`S = packet_size / srtt²` bytes/s²), and backoff
//! notifications.

/// AIMD rate state for a RAP flow.
#[derive(Debug, Clone, PartialEq)]
pub struct AimdState {
    /// Payload bytes per packet (RAP adapts the gap, not the size).
    packet_size: f64,
    /// Current transmission rate (bytes/s).
    rate: f64,
    /// Floor: the rate never falls below one packet per `max_ipg` seconds.
    min_rate: f64,
    /// Optional ceiling (e.g. the encoding's total rate — no point sending
    /// faster than the receiver can consume plus buffer headroom).
    max_rate: f64,
}

impl AimdState {
    /// New AIMD state starting at `initial_rate` bytes/s.
    pub fn new(packet_size: f64, initial_rate: f64) -> Self {
        assert!(packet_size > 0.0, "packet size must be positive");
        let min_rate = packet_size; // >= 1 packet/s
        AimdState {
            packet_size,
            rate: initial_rate.max(min_rate),
            min_rate,
            max_rate: f64::INFINITY,
        }
    }

    /// Set a rate ceiling (bytes/s); `INFINITY` disables it.
    pub fn set_max_rate(&mut self, max_rate: f64) {
        self.max_rate = if max_rate > self.min_rate {
            max_rate
        } else {
            self.min_rate
        };
        self.rate = self.rate.min(self.max_rate);
    }

    /// Current transmission rate (bytes/s).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Packet size (bytes).
    pub fn packet_size(&self) -> f64 {
        self.packet_size
    }

    /// Inter-packet gap at the current rate (seconds).
    pub fn ipg(&self) -> f64 {
        self.packet_size / self.rate
    }

    /// Additive-increase slope at the given SRTT: `S = packet_size/srtt²`
    /// bytes/s² (one packet per SRTT gained every SRTT).
    pub fn slope(&self, srtt: f64) -> f64 {
        let srtt = srtt.max(1e-6);
        self.packet_size / (srtt * srtt)
    }

    /// One per-SRTT step of additive increase.
    pub fn increase_step(&mut self, srtt: f64) {
        let srtt = srtt.max(1e-6);
        self.rate = (self.rate + self.packet_size / srtt).min(self.max_rate);
    }

    /// Multiplicative decrease (one loss event). Returns the new rate.
    pub fn backoff(&mut self) -> f64 {
        self.rate = (self.rate / 2.0).max(self.min_rate);
        self.rate
    }

    /// Collapse to the floor rate (timeout).
    pub fn collapse(&mut self) -> f64 {
        self.rate = self.min_rate;
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increase_adds_one_packet_per_srtt() {
        let mut a = AimdState::new(1_000.0, 10_000.0);
        a.increase_step(0.1);
        assert!((a.rate() - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn backoff_halves_rate() {
        let mut a = AimdState::new(1_000.0, 40_000.0);
        assert!((a.backoff() - 20_000.0).abs() < 1e-9);
        assert!((a.rate() - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn rate_never_below_one_packet_per_second() {
        let mut a = AimdState::new(1_000.0, 1_500.0);
        for _ in 0..10 {
            a.backoff();
        }
        assert_eq!(a.rate(), 1_000.0);
    }

    #[test]
    fn ipg_is_packet_over_rate() {
        let a = AimdState::new(1_000.0, 10_000.0);
        assert!((a.ipg() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn slope_matches_packet_over_srtt_squared() {
        let a = AimdState::new(1_000.0, 10_000.0);
        assert!((a.slope(0.2) - 25_000.0).abs() < 1e-9);
    }

    #[test]
    fn max_rate_caps_increase() {
        let mut a = AimdState::new(1_000.0, 10_000.0);
        a.set_max_rate(12_000.0);
        for _ in 0..10 {
            a.increase_step(0.1);
        }
        assert_eq!(a.rate(), 12_000.0);
    }

    #[test]
    fn sawtooth_shape_under_periodic_loss() {
        // Drive steps with a backoff every 20 steps: the trajectory must be
        // piecewise linear up, halving down — and the peak must converge.
        let mut a = AimdState::new(1_000.0, 5_000.0);
        let srtt = 0.1;
        let mut peaks = Vec::new();
        for cycle in 0..30 {
            for _ in 0..20 {
                a.increase_step(srtt);
            }
            if cycle >= 25 {
                peaks.push(a.rate());
            }
            a.backoff();
        }
        // Steady-state peak: p/2 + 20·PS/srtt = p → p = 2·20·10_000/... :
        // p = 2 * 20 * 1_000/0.1 = 400_000.
        for p in peaks {
            assert!((p - 400_000.0).abs() < 1.0, "peak {p}");
        }
    }

    #[test]
    fn collapse_hits_floor() {
        let mut a = AimdState::new(1_000.0, 123_456.0);
        assert_eq!(a.collapse(), 1_000.0);
    }
}
