//! # laqa-apps
//!
//! Host crate for the workspace's top-level `examples/` (runnable binaries
//! exercising the public API) and `tests/` (integration tests spanning
//! crates, including the golden-trace regression suite). It has no
//! library code of its own — see the examples:
//!
//! * `quickstart` — drive a [`laqa_core::QaController`] by hand;
//! * `congested_backbone` — the paper's T1 workload in the simulator;
//! * `smoothing_tradeoff` — sweep the smoothing factor `K_max`;
//! * `nonlinear_layers` — quality adaptation over non-uniform layer rates;
//! * `live_session` — a playback session against the simulated network.
//!
//! Run one with `cargo run -p laqa-apps --example quickstart`.

#![warn(missing_docs)]
#![deny(unsafe_code)]
