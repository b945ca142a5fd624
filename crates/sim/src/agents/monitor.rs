//! Passive measurement agents: queue-occupancy sampling for the
//! bottleneck panels of the trace figures.

use crate::engine::{Agent, Ctx};
use crate::packet::{LinkId, Packet};
use laqa_trace::{Section, TimeSeries};

/// Samples the queue length of one link on a fixed period.
pub struct QueueMonitor {
    link: LinkId,
    period: f64,
    /// The link's queue length, named `queue_len_link<link>`; `None` (the
    /// default, see [`with_series`](Self::with_series)) keeps no samples.
    pub series: Option<TimeSeries>,
    /// Digest of every `(time, queue length)` sample, always fed.
    pub samples: Section,
}

impl QueueMonitor {
    /// Monitor `link` every `period` seconds, digesting the samples
    /// without keeping them.
    pub fn new(link: LinkId, period: f64) -> Self {
        assert!(period > 0.0);
        QueueMonitor {
            link,
            period,
            series: None,
            samples: Section::default(),
        }
    }

    /// Keep the samples as well.
    pub fn with_series(mut self) -> Self {
        self.series = Some(TimeSeries::new(format!("queue_len_link{}", self.link)));
        self
    }
}

impl Agent for QueueMonitor {
    fn start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer_after(self.period, 0);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        let queue = ctx.link_queue_len(self.link) as f64;
        self.samples.sample(ctx.now, queue);
        if let Some(series) = &mut self.series {
            series.push(ctx.now, queue);
        }
        ctx.set_timer_after(self.period, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::cbr::{CbrAgent, CountingSink};
    use crate::engine::World;
    use crate::link::LinkConfig;

    #[test]
    fn monitor_samples_queue_growth() {
        let mut w = World::new(3);
        // Slow link: a 5x overload builds the queue.
        let l = w.add_link(LinkConfig {
            bandwidth: 10_000.0,
            delay: 0.001,
            queue_packets: 50,
            ..LinkConfig::default()
        });
        let sink = w.add_agent(Box::new(CountingSink::default()));
        let _cbr = w.add_agent(Box::new(CbrAgent::new(
            sink,
            vec![l],
            1,
            50_000.0,
            1_000,
            0.0,
            2.0,
        )));
        let mon = w.add_agent(Box::new(QueueMonitor::new(l, 0.05).with_series()));
        w.run_until(1.0);
        let m: &QueueMonitor = w.agent(mon).unwrap();
        let series = m.series.as_ref().expect("the monitor keeps its samples");
        assert!(series.len() >= 18, "{} samples", series.len());
        assert_eq!(m.samples.count(), series.len() as u64);
        assert!(series.max().unwrap() > 3.0, "queue should build");
        // Monotone-ish growth early in the overload.
        let early = series.at(0.2).unwrap();
        let late = series.at(0.9).unwrap();
        assert!(late >= early, "queue grows under sustained overload");
    }

    #[test]
    fn monitor_of_idle_link_reads_zero() {
        let mut w = World::new(3);
        let l = w.add_link(LinkConfig::uncongested());
        let mon = w.add_agent(Box::new(QueueMonitor::new(l, 0.1).with_series()));
        w.run_until(1.0);
        let m: &QueueMonitor = w.agent(mon).unwrap();
        assert_eq!(m.series.as_ref().and_then(|s| s.max()), Some(0.0));
    }
}
