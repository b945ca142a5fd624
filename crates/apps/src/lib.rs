//! # laqa-apps
//!
//! Host crate for the workspace's top-level `examples/` (runnable binaries
//! exercising the public API) and `tests/` (integration tests spanning
//! crates, including the golden-trace regression suite). It has no
//! library code of its own — see the examples:
//!
//! * `quickstart` — drive a [`laqa_core::QaController`] by hand;
//! * `live_session` — a playback session against the simulated network.
//!
//! Run one with `cargo run -p laqa-apps --example quickstart`. The paper's
//! figures and Tables 1–2 are `laqa figures` (crate `laqa-bench`).

#![warn(missing_docs)]
#![deny(unsafe_code)]
