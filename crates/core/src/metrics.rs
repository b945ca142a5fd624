//! Evaluation metrics and the events they are computed from (§5: Tables 1
//! and 2, figure 12).
//!
//! The paper scores the mechanism on:
//!
//! * **Buffering efficiency** (Table 1): on every drop event,
//!   `e = (buf_total − buf_drop) / buf_total` — the fraction of the
//!   receiver's buffered data that remains useful after the drop. A
//!   maximally efficient allocation strands (almost) no data in dropped
//!   layers, so `e ≈ 1`.
//! * **Drops due to poor distribution** (Table 2): the percentage of drop
//!   events where the *total* buffering would have sufficed for recovery
//!   had it been distributed differently across layers.
//! * **Quality changes** (figure 12): the number of add + drop events, the
//!   quantity the smoothing factor `K_max` trades against short-term
//!   quality.

/// Why a layer was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// §2.2 rule: total buffering below the recovery deficit at backoff.
    InsufficientTotalBuffer,
    /// A draining period could not be covered even though draining was
    /// planned — the §2.3 "insufficient distribution" failure, or a
    /// critical situation from extra backoffs / slope misestimation.
    DistributionShortfall,
    /// An upper layer's buffer fell past the underflow slack while its
    /// allocated bandwidth was below its consumption rate (receiver-side
    /// underflow): the top layer yields.
    TopLayerUnderflow,
    /// The base layer's buffer slid into debt past half the underflow
    /// slack: the top layer yields so the base gets the whole rate.
    BaseDebt,
}

impl DropReason {
    /// Stable snake_case label used in observability exports and reports.
    pub fn label(&self) -> &'static str {
        match self {
            DropReason::InsufficientTotalBuffer => "insufficient_total_buffer",
            DropReason::DistributionShortfall => "distribution_shortfall",
            DropReason::TopLayerUnderflow => "top_layer_underflow",
            DropReason::BaseDebt => "base_debt",
        }
    }
}

/// One quality-adaptation event.
#[derive(Debug, Clone, PartialEq)]
pub enum QaEvent {
    /// A layer was added; `n_active` is the count *after* the add.
    LayerAdded {
        /// Event time (seconds).
        time: f64,
        /// Active layer count after the add.
        n_active: usize,
    },
    /// A layer was dropped; `n_active` is the count *after* the drop.
    LayerDropped {
        /// Event time (seconds).
        time: f64,
        /// Index of the dropped layer (== `n_active` after the drop).
        layer: usize,
        /// Active layer count after the drop.
        n_active: usize,
        /// Total buffered bytes across all layers at drop time (including
        /// the dropped layer's share).
        buf_total: f64,
        /// Buffered bytes stranded in the dropped layer.
        buf_drop: f64,
        /// Recovery buffering the §2.2 rule required at that instant.
        required: f64,
        /// Why the layer was dropped.
        reason: DropReason,
    },
    /// The base layer's buffer ran dry during a deficit: playback stalled.
    BaseStall {
        /// Event time (seconds).
        time: f64,
    },
}

/// Derives the paper's evaluation metrics from [`QaEvent`]s as they are
/// recorded, keeping running sums only: its size does not depend on how
/// many events a session makes. Each sum takes the events in recording
/// order from the value its batch form started from, so every metric is
/// bit-identical to the one computed over the whole log afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsCollector {
    adds: usize,
    /// Layer drops per [`DropReason`], in declaration order.
    drops: [usize; 4],
    stalls: usize,
    /// `Σ (buf_total − buf_drop) / buf_total` over drops with
    /// `buf_total > 0`, and how many such drops.
    efficiency_sum: f64,
    efficient_drops: usize,
    /// Drops a different distribution would have avoided.
    avoidable: usize,
    /// First drop of the degradation episode still open, if any.
    episode_start: Option<f64>,
    /// `Σ` seconds from an episode's first drop to the next add, and how
    /// many episodes ended so.
    recovery_sum: f64,
    recoveries: usize,
}

impl Default for MetricsCollector {
    fn default() -> Self {
        MetricsCollector {
            adds: 0,
            drops: [0; 4],
            stalls: 0,
            efficiency_sum: 0.0,
            efficient_drops: 0,
            avoidable: 0,
            episode_start: None,
            // Where `Iterator::sum` of `f64`s starts.
            recovery_sum: -0.0,
            recoveries: 0,
        }
    }
}

impl MetricsCollector {
    /// New empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account one event.
    pub fn record(&mut self, event: &QaEvent) {
        match *event {
            QaEvent::LayerAdded { time, .. } => {
                self.adds += 1;
                if let Some(t0) = self.episode_start.take() {
                    self.recovery_sum += time - t0;
                    self.recoveries += 1;
                }
            }
            QaEvent::LayerDropped {
                time,
                buf_total,
                buf_drop,
                required,
                reason,
                ..
            } => {
                self.drops[reason as usize] += 1;
                if buf_total > 0.0 {
                    self.efficiency_sum += (buf_total - buf_drop) / buf_total;
                    self.efficient_drops += 1;
                }
                let had_enough_total = buf_total >= required;
                if had_enough_total && reason != DropReason::InsufficientTotalBuffer {
                    self.avoidable += 1;
                }
                self.episode_start.get_or_insert(time);
            }
            QaEvent::BaseStall { .. } => self.stalls += 1,
        }
    }

    /// Number of layer-add events.
    pub fn adds(&self) -> usize {
        self.adds
    }

    /// Number of layer-drop events.
    pub fn drops(&self) -> usize {
        self.drops.iter().sum()
    }

    /// Number of layer-drop events for `reason`.
    pub fn drops_for(&self, reason: DropReason) -> usize {
        self.drops[reason as usize]
    }

    /// Total quality changes (adds + drops) — the figure-12 smoothness
    /// measure.
    pub fn quality_changes(&self) -> usize {
        self.adds() + self.drops()
    }

    /// Number of base-layer stalls (must be zero in a healthy run).
    pub fn stalls(&self) -> usize {
        self.stalls
    }

    /// Table-1 buffering efficiency: mean of `(buf_total − buf_drop) /
    /// buf_total` over all drop events with `buf_total > 0`. `None` when no
    /// such drop occurred (a run with no drops is trivially efficient).
    pub fn efficiency(&self) -> Option<f64> {
        let n = self.efficient_drops;
        (n > 0).then(|| self.efficiency_sum / n as f64)
    }

    /// Table-2 metric: fraction of drop events that a different distribution
    /// of the same total buffering would have avoided — drops whose recorded
    /// total buffering met the §2.2 requirement yet the layer was dropped
    /// anyway (distribution shortfall, or an underflow at either site).
    /// `None` when there were no drops at all.
    pub fn avoidable_drop_fraction(&self) -> Option<f64> {
        let total = self.drops();
        (total > 0).then(|| self.avoidable as f64 / total as f64)
    }

    /// Mean seconds from the first drop of each degradation episode to the
    /// next layer add — the fault suite's recovery-time metric. `None` when
    /// no drop was ever followed by an add.
    pub fn recovery_secs_mean(&self) -> Option<f64> {
        let n = self.recoveries;
        (n > 0).then(|| self.recovery_sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop_event(buf_total: f64, buf_drop: f64, required: f64, reason: DropReason) -> QaEvent {
        QaEvent::LayerDropped {
            time: 1.0,
            layer: 2,
            n_active: 2,
            buf_total,
            buf_drop,
            required,
            reason,
        }
    }

    #[test]
    fn efficiency_none_without_drops() {
        let m = MetricsCollector::new();
        assert_eq!(m.efficiency(), None);
    }

    #[test]
    fn efficiency_averages_over_drop_events() {
        let mut m = MetricsCollector::new();
        m.record(&drop_event(
            1000.0,
            0.0,
            2000.0,
            DropReason::InsufficientTotalBuffer,
        ));
        m.record(&drop_event(
            1000.0,
            100.0,
            2000.0,
            DropReason::InsufficientTotalBuffer,
        ));
        let e = m.efficiency().unwrap();
        assert!((e - 0.95).abs() < 1e-12, "e = {e}");
    }

    #[test]
    fn efficiency_ignores_zero_total_drops() {
        let mut m = MetricsCollector::new();
        m.record(&drop_event(
            0.0,
            0.0,
            500.0,
            DropReason::InsufficientTotalBuffer,
        ));
        assert_eq!(m.efficiency(), None);
    }

    #[test]
    fn quality_changes_counts_adds_and_drops() {
        let mut m = MetricsCollector::new();
        m.record(&QaEvent::LayerAdded {
            time: 0.5,
            n_active: 2,
        });
        m.record(&QaEvent::LayerAdded {
            time: 1.5,
            n_active: 3,
        });
        m.record(&drop_event(
            10.0,
            0.0,
            50.0,
            DropReason::InsufficientTotalBuffer,
        ));
        assert_eq!(m.adds(), 2);
        assert_eq!(m.drops(), 1);
        assert_eq!(m.quality_changes(), 3);
    }

    #[test]
    fn avoidable_fraction_classifies_by_reason_and_required() {
        let mut m = MetricsCollector::new();
        // Unavoidable: total below requirement.
        m.record(&drop_event(
            100.0,
            0.0,
            500.0,
            DropReason::InsufficientTotalBuffer,
        ));
        // Avoidable: total met the requirement but distribution failed.
        m.record(&drop_event(
            1000.0,
            50.0,
            500.0,
            DropReason::DistributionShortfall,
        ));
        // Not avoidable even though shortfall: total genuinely short.
        m.record(&drop_event(
            100.0,
            0.0,
            500.0,
            DropReason::DistributionShortfall,
        ));
        // Underflow at either site with sufficient total: avoidable.
        m.record(&drop_event(
            800.0,
            10.0,
            500.0,
            DropReason::TopLayerUnderflow,
        ));
        m.record(&drop_event(800.0, 10.0, 500.0, DropReason::BaseDebt));
        let f = m.avoidable_drop_fraction().unwrap();
        assert!((f - 3.0 / 5.0).abs() < 1e-12, "f = {f}");
    }

    #[test]
    fn avoidable_fraction_none_without_drops() {
        let mut m = MetricsCollector::new();
        m.record(&QaEvent::LayerAdded {
            time: 0.0,
            n_active: 2,
        });
        assert_eq!(m.avoidable_drop_fraction(), None);
    }

    #[test]
    fn stalls_counted() {
        let mut m = MetricsCollector::new();
        m.record(&QaEvent::BaseStall { time: 3.0 });
        assert_eq!(m.stalls(), 1);
    }

    #[test]
    fn drops_for_counts_one_reason() {
        let mut m = MetricsCollector::new();
        m.record(&drop_event(800.0, 10.0, 500.0, DropReason::BaseDebt));
        m.record(&drop_event(
            800.0,
            10.0,
            500.0,
            DropReason::TopLayerUnderflow,
        ));
        m.record(&drop_event(800.0, 10.0, 500.0, DropReason::BaseDebt));
        assert_eq!(m.drops_for(DropReason::BaseDebt), 2);
        assert_eq!(m.drops_for(DropReason::TopLayerUnderflow), 1);
        assert_eq!(m.drops_for(DropReason::DistributionShortfall), 0);
    }
}
