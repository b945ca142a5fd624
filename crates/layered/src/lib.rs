//! # laqa-layered — layered media model
//!
//! The hierarchically encoded stream substrate for the quality-adaptation
//! mechanism of Rejaie/Handley/Estrin (SIGCOMM 1999):
//!
//! * [`encoding`] — layer stacks (the paper's linear spacing plus the
//!   non-linear extension mentioned in its future work);
//! * [`buffer`] — per-layer receiver FIFO buffers with underflow
//!   accounting;
//! * [`receiver`] — the playout engine combining buffers and a clock, the
//!   ground truth against which the sender's buffer estimates are judged.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod buffer;
pub mod encoding;
pub mod receiver;

pub use buffer::LayerBuffer;
pub use encoding::{EncodingError, LayerSpec, LayeredEncoding};
pub use receiver::{LayeredReceiver, ReceiverStats};
