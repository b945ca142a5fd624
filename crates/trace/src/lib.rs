//! # laqa-trace — figure/table plumbing
//!
//! Minimal time-series recording and export used by every experiment
//! regenerator: [`series`] for raw samples, [`gnuplot`] for writing a
//! run's series as CSVs and a stacked-panel plot script, [`table`] for the
//! paper-style aligned text tables, [`summary`] for machine-readable run
//! summaries, [`json`] for the self-contained JSON reader/writer behind
//! them, [`chrome`] for Chrome trace-event (Perfetto) documents and their
//! zero-dependency validator, and [`hash`] for stable 64-bit trace
//! fingerprints used by the campaign engine's reproducibility checks.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod chrome;
pub mod gnuplot;
pub mod hash;
pub mod json;
pub mod series;
pub mod summary;
pub mod table;

pub use chrome::{validate as validate_chrome, ChromeStats, ChromeTrace};
pub use gnuplot::{render_script, write_csvs, write_figure, Panel};
pub use hash::{Section, TraceHasher};
pub use json::{parse as parse_json, JsonError, JsonValue};
pub use series::TimeSeries;
pub use summary::RunSummary;
pub use table::{pct, Table};
