//! # laqa-layered — layered media model
//!
//! The hierarchically encoded stream substrate for the quality-adaptation
//! mechanism of Rejaie/Handley/Estrin (SIGCOMM 1999):
//!
//! * [`encoding`] — the layer stack: `n` layers of one rate `C`, the
//!   paper's linear spacing;
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
pub use encoding::{EncodingError, LayeredEncoding};
pub use receiver::LayeredReceiver;
