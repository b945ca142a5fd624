//! # laqa-rap — the Rate Adaptation Protocol
//!
//! A transport-agnostic implementation of RAP (Rejaie, Handley, Estrin),
//! the TCP-friendly, rate-based AIMD congestion-control scheme the quality
//! adaptation paper builds on. RAP paces packets with an inter-packet gap,
//! increases its rate by one packet per SRTT every SRTT, halves it on each
//! loss event (with cluster-loss suppression), and collapses on timeout —
//! producing the clean sawtooth of the paper's figure 1.
//!
//! Modules:
//!
//! * [`aimd`] — rate/IPG state and the AIMD update rules;
//! * [`rtt`] — Jacobson/Karels RTT estimation and RTO;
//! * [`history`] — transmission history and ACK-inferred loss detection;
//! * [`receiver`] — the receiver's reception state and redundant ACKs;
//! * [`controller`] — the [`controller::RateController`] trait: the
//!   surface the quality-adaptation layer consumes, and the only one the
//!   four senders are driven through;
//! * `shell` (private) — what is not a control law, written once: sequence
//!   numbers, history, RTT, the timeout clock, one backoff per loss event;
//! * [`sender`] — [`sender::RapSender`], the paper's rate-paced AIMD;
//! * [`window`] — an ACK-clocked (TCP-like) AIMD window (§7 future work);
//! * [`bbr`] — a BBR-style delivery-rate model with a pacing-gain cycle;
//! * [`nada`] — a NADA-style unified delay+loss signal.
//!
//! The state machines own no clock and no socket: the packet-level
//! simulator (`laqa-sim`) drives them.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod aimd;
pub mod bbr;
pub mod controller;
pub mod history;
pub mod nada;
pub mod receiver;
pub mod rtt;
pub mod sender;
mod shell;
pub mod window;

pub use aimd::AimdState;
pub use bbr::{BbrConfig, BbrSender};
pub use controller::{RateController, SenderCounts};
pub use history::{PacketRecord, TransmissionHistory};
pub use nada::{NadaConfig, NadaSender};
pub use receiver::{AckInfo, RapReceiverState, RunSet, RECEPTION_HORIZON};
pub use rtt::RttEstimator;
pub use sender::{BackoffCause, RapConfig, RapEvent, RapSender};
pub use window::{WindowConfig, WindowSender};
