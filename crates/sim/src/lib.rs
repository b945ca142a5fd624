//! # laqa-sim — packet-level discrete-event network simulator
//!
//! The ns-2 subset the paper's evaluation needs, rebuilt: a deterministic
//! event engine ([`engine`]), links with drop-tail queues ([`link`]),
//! dumbbell topologies ([`topology`]), and protocol agents ([`agents`]):
//! RAP sources/sinks, a NewReno-style TCP for competing traffic, CBR
//! bursts, and the quality-adaptive RAP streaming pair under test.
//! [`scenarios`] assembles the paper's T1/T2 workloads, and [`campaign`]
//! fans grids of them across worker threads with bit-reproducible
//! per-seed results.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod arena;
pub mod campaign;
pub mod engine;
pub mod faults;
pub mod link;
pub mod packet;
pub mod rng;
pub mod scenarios;
pub mod sched;
pub mod stats;
pub mod time;
pub mod topology;

/// Protocol agents (RAP, TCP, CBR, quality-adaptive streaming pair).
pub mod agents {
    pub mod bond;
    pub mod cbr;
    pub mod monitor;
    pub mod qa;
    pub mod rap;
    pub mod tcp;
}

pub use campaign::{
    hash_outcome, run_campaign, run_campaign_opts, run_session, CampaignOptions, CampaignResult,
    CampaignSpec, SessionResult, SessionSpec, TestKind,
};
pub use engine::{Agent, Ctx, TimerKey, World};
pub use faults::{FaultInjector, FaultStats, FaultWiring};
pub use link::{
    Link, LinkConfig, LinkStats, LinkTracePoint, QueueKind, RedConfig, TraceDriver, TraceSchedule,
};
pub use packet::{AgentId, LinkId, Packet, PacketKind, Route};
pub use scenarios::{run_scenario, ScenarioConfig, ScenarioOutcome, TraceKind, Transport};
pub use sched::{Scheduler, TimerWheelScheduler};
pub use stats::{jain_fairness, summarize_sharing, SharingSummary};
pub use topology::{Dumbbell, DumbbellConfig};
