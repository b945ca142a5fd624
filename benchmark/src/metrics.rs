//! The metric names, units, directions and bounds — the one table the
//! runner, `compare` and `BENCHMARK.json` agree on (a unit test holds the
//! contract file to it).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which statistic of a run's samples is the run's reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// The best sample: fastest pass, highest rate. For wall-clock
    /// metrics on this host (see [`END_TO_END`]).
    Best,
    Median,
}

/// An end-to-end metric with the share of the parent's median by which it
/// may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub stat: Stat,
}

impl Stat {
    pub fn label(self) -> &'static str {
        match self {
            Stat::Best => "best",
            Stat::Median => "median",
        }
    }
}

impl EndToEnd {
    /// The run's reported value from its samples (0 for none).
    pub fn value(&self, samples: &[f64]) -> f64 {
        let best = |pick: fn(f64, f64) -> f64| samples.iter().copied().reduce(pick).unwrap_or(0.0);
        match (self.stat, self.better) {
            (Stat::Median, _) => crate::stats::median(samples),
            (Stat::Best, Better::Lower) => best(f64::min),
            (Stat::Best, Better::Higher) => best(f64::max),
        }
    }
}

/// The gated end-to-end metrics, the same on every workload.
///
/// The bounds and statistics are what this host and these inputs can
/// resolve, not what one would wish for. This is a shared 2-vCPU VM whose
/// speed shifts between a fast regime and slow ones up to 1.6x slower
/// that last from seconds to minutes, with no steal time to correct for:
/// 140 identical `qa_fluid` passes ran 2.64-4.42 s, and over windows of
/// eight passes their median spread 26 % — beyond any bound the contract
/// allows — while their minimum spread 12 %. So the three wall-clock
/// metrics report the best sample of the run (the fast regime's speed,
/// which is the code's), the median and quartiles go beside it in the
/// output, and the bounds sit at the contract's ceiling. The acceptance
/// gate also varies the seed from run to run, which moves `hostile`'s
/// allocations per session by up to 10 % and its peak RSS by 18 %, so
/// those bounds sit above that (README, "Measured spreads").
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "sim_s_per_wall_s",
        unit: "sim_s/s",
        better: Better::Higher,
        bound: 0.25,
        stat: Stat::Best,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        stat: Stat::Best,
    },
    EndToEnd {
        name: "allocs_per_session",
        unit: "count",
        better: Better::Lower,
        bound: 0.15,
        stat: Stat::Median,
    },
    EndToEnd {
        name: "alloc_bytes_per_session",
        unit: "B",
        better: Better::Lower,
        bound: 0.15,
        stat: Stat::Median,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        stat: Stat::Median,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        stat: Stat::Best,
    },
];

/// Failed sessions over attempted sessions. It is zero on a healthy run,
/// and the contract wants gated metrics that are never zero, so it is
/// reported here and through the result line's `failed`/`attempted`, and
/// `compare` holds it to "no worse at all".
pub const FAILED_FRAC: EndToEnd = EndToEnd {
    name: "failed_frac",
    unit: "frac",
    better: Better::Lower,
    bound: 0.0,
    stat: Stat::Median,
};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn cost(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn gain(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric the traced run emits, on every workload (a
/// layer the workload does not exercise reads 0). Counts are simulated
/// statistics: `lower` is nominal for them — what matters is that they
/// repeat exactly at a fixed seed.
pub const PER_LAYER: [PerLayer; 50] = [
    // sim.engine
    cost("engine.events", "count"),
    cost("engine.ns_per_event", "ns"),
    cost("engine.dispatch_ns_p50", "ns"),
    cost("engine.dispatch_ns_p99", "ns"),
    cost("engine.forward_ns_per_pkt", "ns"),
    // sim.sched
    cost("sched.hold_ns_per_op_p64", "ns"),
    cost("sched.hold_ns_per_op_p4096", "ns"),
    cost("sched.insert_active_frac", "frac"),
    cost("sched.insert_overflow_frac", "frac"),
    cost("sched.share_est", "frac"),
    // sim.link
    cost("link.bottleneck_drops", "count"),
    cost("link.trace_points_applied", "count"),
    cost("link.bond_leg_bytes", "B"),
    // sim.faults
    cost("faults.transitions", "count"),
    // sim.campaign
    cost("campaign.session_fixed_us", "us"),
    cost("campaign.merge_s", "s"),
    cost("campaign.cell_ms_p50", "ms"),
    cost("campaign.cell_ms_p95", "ms"),
    cost("campaign.steals", "count"),
    gain("campaign.speedup_nproc", "ratio"),
    // core
    cost("core.ticks", "count"),
    cost("core.tick_ns_p50", "ns"),
    cost("core.tick_ns_p99", "ns"),
    cost("core.backoff_ns", "ns"),
    cost("core.pkt_assign_ns", "ns"),
    cost("core.seq_build_ns_k2", "ns"),
    cost("core.seq_build_ns_k16", "ns"),
    cost("core.allocs_per_tick", "count"),
    cost("core.geometry_lookups", "count"),
    gain("core.geometry_hit_frac", "frac"),
    cost("core.tick_share", "frac"),
    // rap
    cost("rap.pkt_round_ns.rap", "ns"),
    cost("rap.pkt_round_ns.bbr", "ns"),
    cost("rap.pkt_round_ns.nada", "ns"),
    cost("rap.pkt_round_ns.tcp", "ns"),
    cost("rap.backoffs_loss", "count"),
    cost("rap.backoffs_timeout", "count"),
    cost("rap.rtt_samples", "count"),
    cost("rap.allocs_per_pkt", "count"),
    // layered
    cost("layered.on_data_ns", "ns"),
    cost("layered.advance_ns", "ns"),
    cost("layered.underflows", "count"),
    // trace
    cost("trace.hash_outcome_us", "us"),
    cost("trace.summary_json_us", "us"),
    // obs
    cost("obs.overhead_ratio", "ratio"),
    cost("obs.ring_evicted", "count"),
    // harness
    cost("harness.trace_overhead_ratio", "ratio"),
    cost("harness.pass_spread", "frac"),
    cost("harness.cpu_s", "s"),
    // The workload's simulated result, so a perf change can show it
    // unchanged against its parent. Not pinned anywhere in this package.
    cost("sim.fingerprint_lo32", "count"),
];

/// Why a change may be worse on `m` going from median `a` to median `b`,
/// as a share of `a` (positive = worse). Zero when `a` is zero and `b` is
/// no worse; infinite when `a` is zero and `b` is worse.
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laqa_trace::parse_json;

    const CONTRACT: &str = include_str!("../../BENCHMARK.json");

    fn names_in(list: &laqa_trace::JsonValue) -> Vec<String> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn contract_file_lists_exactly_these_end_to_end_metrics() {
        let doc = parse_json(CONTRACT).expect("BENCHMARK.json parses");
        let listed = doc.get("end_to_end").expect("end_to_end");
        assert_eq!(
            names_in(listed),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in listed.as_arr().unwrap().iter().zip(END_TO_END) {
            assert_eq!(
                entry.get("unit").and_then(|u| u.as_str()),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                entry.get("better").and_then(|u| u.as_str()),
                Some(m.better.label()),
                "{}",
                m.name
            );
            assert_eq!(
                entry.get("bound").and_then(|u| u.as_num()),
                Some(m.bound),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
        }
    }

    #[test]
    fn contract_file_lists_exactly_these_per_layer_metrics_and_workloads() {
        let doc = parse_json(CONTRACT).expect("BENCHMARK.json parses");
        let listed = doc.get("per_layer").expect("per_layer");
        assert_eq!(
            names_in(listed),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in listed.as_arr().unwrap().iter().zip(PER_LAYER) {
            assert_eq!(
                entry.get("unit").and_then(|u| u.as_str()),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                entry.get("better").and_then(|u| u.as_str()),
                Some(m.better.label()),
                "{}",
                m.name
            );
        }
        let workloads = doc.get("workloads").expect("workloads");
        assert_eq!(
            names_in(workloads),
            crate::workload::WORKLOADS
                .iter()
                .map(|w| w.0)
                .collect::<Vec<_>>()
        );
        for (entry, (_, why)) in workloads
            .as_arr()
            .unwrap()
            .iter()
            .zip(crate::workload::WORKLOADS)
        {
            assert_eq!(entry.get("why").and_then(|w| w.as_str()), Some(why));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract_limits() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn reported_value_is_the_best_sample_for_wall_clock_metrics_only() {
        let by_name = |name: &str| *END_TO_END.iter().find(|m| m.name == name).unwrap();
        let samples = [3.0, 1.0, 2.0];
        assert_eq!(by_name("wall_s").value(&samples), 1.0, "fastest pass");
        assert_eq!(
            by_name("sim_s_per_wall_s").value(&samples),
            3.0,
            "highest rate"
        );
        assert_eq!(by_name("setup_s").value(&samples), 1.0);
        assert_eq!(by_name("allocs_per_session").value(&samples), 2.0, "median");
        assert_eq!(by_name("peak_rss_mb").value(&[]), 0.0);
        assert_eq!(by_name("wall_s").value(&[]), 0.0);
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.1), f64::INFINITY);
    }
}
