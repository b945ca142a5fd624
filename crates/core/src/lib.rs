//! # laqa-core — Layered Quality Adaptation
//!
//! A faithful implementation of *Quality Adaptation for Congestion
//! Controlled Video Playback over the Internet* (Rejaie, Handley, Estrin —
//! SIGCOMM 1999): the mechanism that lets a video server stream
//! hierarchically encoded (layered) video over an AIMD congestion-controlled
//! transport while keeping perceived quality stable.
//!
//! The congestion controller changes the transmission rate every few RTTs;
//! video quality must change on a timescale of seconds to minutes. The gap
//! is bridged by receiver buffering, and this crate implements the paper's
//! near-optimal policy for *how much* to buffer, *for which layers*, and
//! *when* to add or drop a layer:
//!
//! * [`geometry`] — the AIMD deficit-triangle algebra (paper §2, App. A):
//!   recovery buffering, the optimal per-layer "band" allocation, the drop
//!   rule.
//! * [`scenario`] — multi-backoff buffer requirements for the two extremal
//!   loss patterns, Scenario 1 and Scenario 2 (§4, App. A.4/A.5).
//! * [`states`] — the ordered, monotone sequence of optimal buffer states
//!   traversed while filling and (in reverse) while draining (figures 8–10).
//! * [`filling`] / [`draining`] — fine-grain inter-layer bandwidth
//!   allocation in each phase.
//! * [`adddrop`] — the coarse-grain layer add/drop conditions with the
//!   `K_max` smoothing factor (§2.1, §2.2, §3.1).
//! * [`controller`] — [`controller::QaController`], the transport-agnostic
//!   server-side state machine combining all of the above.
//! * [`metrics`] — the paper's evaluation metrics: buffering efficiency
//!   (Table 1), avoidable drops (Table 2), quality-change counts (fig. 12).
//!
//! ## Quick start
//!
//! ```
//! use laqa_core::{QaConfig, QaController};
//!
//! let mut qa = QaController::new(QaConfig::default()).unwrap();
//! qa.set_slope(25_000.0); // AIMD slope S = pkt/srtt² (bytes/s²)
//!
//! let mut now = 0.0;
//! let dt = 0.1;
//! let rate = 25_000.0; // bytes/s from the congestion controller
//! for _ in 0..100 {
//!     let report = qa.tick(now, rate, dt);
//!     // Send `report.per_layer_rate[i] * dt` bytes for each layer i,
//!     // asking the controller which layer owns each packet; credit the
//!     // buffers when the transport confirms delivery (here: instantly).
//!     let mut budget: f64 = report.per_layer_rate.iter().sum::<f64>() * dt;
//!     while budget >= 1000.0 {
//!         let layer = qa.next_packet_layer(1000.0);
//!         qa.on_packet_delivered(layer, 1000.0);
//!         budget -= 1000.0;
//!     }
//!     now += dt;
//! }
//! assert!(qa.total_buffer() > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod adddrop;
pub mod config;
pub mod controller;
pub mod draining;
pub mod filling;
pub mod geometry;
pub mod metrics;
pub mod scenario;
pub mod states;

pub use config::{ConfigError, QaConfig, MAX_LAYERS};
pub use controller::{LayerAllocation, Phase, QaController, QaCounts, TickReport};
pub use metrics::{DropReason, MetricsCollector, QaEvent};
pub use scenario::Scenario;
pub use states::{BufferState, StateSequence, States};
