//! Flight recorder: per-session, sim-time-stamped timeline traces.
//!
//! Counters answer "how many" and histograms "how long on the host",
//! but neither can answer *why session 17 starved at t=31s* — that
//! needs a timeline: QA state spans, layer add/drop and backoff
//! instants and buffer-level samples of that one session.
//!
//! ## Recording model
//!
//! Producers call [`state`], [`instant`] or [`sample`] with a static
//! name, the session-local simulation time, and a value; the record is
//! appended to the calling thread's buffer. A session runs entirely on
//! one thread, so its runner (`laqa_sim::run_session`) owns what it
//! recorded: it calls [`take`] when the session starts and again when it
//! ends, and the records travel in the session's result. A campaign
//! exports those results by grid index ([`to_chrome`]). Nothing is
//! bounded or evicted.
//!
//! ## Determinism
//!
//! A session's records, in emission order, depend only on its spec —
//! never on which worker ran it or what else that worker ran. The
//! export sorts each track stably by sim time, so records stamped alike
//! keep their emission order, and two runs of the same campaign
//! export **byte-identical** traces for any thread count
//! (`tests/flight_determinism.rs` pins this).
//!
//! ## Inertness
//!
//! The recorder has its own enable flag, off by default: a disabled site
//! costs one relaxed atomic load, and a session run with the recorder off
//! never touches its thread's buffer. Enabled, it only copies values it
//! is handed — fingerprints are bit-identical with the recorder on and
//! off (`crates/sim/tests/obs_inertness.rs` enforces this).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

use laqa_trace::chrome::ChromeTrace;
use laqa_trace::JsonValue;

static FLIGHT_ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the flight recorder is live. One relaxed load — the entire
/// cost of a disabled recording site. Independent of [`crate::enabled`]
/// so timelines can be recorded without turning every metric on.
#[inline(always)]
pub fn enabled() -> bool {
    FLIGHT_ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable the flight recorder. Off by default.
pub fn set_enabled(on: bool) {
    FLIGHT_ENABLED.store(on, Ordering::Relaxed);
}

/// What a [`Record`] marks on its session's track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// The session entered a new state (e.g. a QA phase); the previous
    /// state span on the track ends here. Exported as a Chrome duration
    /// span.
    State,
    /// A point event (layer add/drop, backoff). Exported as a Chrome
    /// instant.
    Instant,
    /// A numeric sample (buffer level). Exported as a Chrome counter
    /// series.
    Value,
}

/// One record as its session emitted it. The name stays `&'static str`
/// so recording never allocates per record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Session-local simulation time (seconds).
    pub time: f64,
    /// Record kind.
    pub kind: FlightKind,
    /// Dotted name (state label for [`FlightKind::State`]).
    pub name: &'static str,
    /// Payload value (layer count, rate, buffer bytes, ...).
    pub value: f64,
}

thread_local! {
    /// What the session running on this thread has recorded so far.
    static RECORDS: RefCell<Vec<Record>> = const { RefCell::new(Vec::new()) };
}

fn record(kind: FlightKind, name: &'static str, time: f64, value: f64) {
    if !enabled() {
        return;
    }
    RECORDS.with(|r| {
        r.borrow_mut().push(Record {
            time,
            kind,
            name,
            value,
        })
    });
}

/// Take everything recorded on this thread since the last `take`, in
/// emission order. A session runner calls it when the session starts
/// (dropping whatever was recorded outside a session) and when it ends.
pub fn take() -> Vec<Record> {
    RECORDS.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

/// Record a state transition: the current session enters state `name` at
/// session-local time `time`, ending whatever state it was in.
#[inline]
pub fn state(name: &'static str, time: f64) {
    record(FlightKind::State, name, time, 0.0);
}

/// Record a point event with a payload value (layer index, rate).
#[inline]
pub fn instant(name: &'static str, time: f64, value: f64) {
    record(FlightKind::Instant, name, time, value);
}

/// Record a numeric sample for a per-session counter series (e.g. a
/// buffer level).
#[inline]
pub fn sample(name: &'static str, time: f64, value: f64) {
    record(FlightKind::Value, name, time, value);
}

/// The Chrome trace `pid` every track lives under.
const CHROME_PID: u64 = 1;

/// Export a campaign's timeline as Chrome trace-event JSON (load it in
/// Perfetto or `chrome://tracing`). `sessions` holds each session's
/// records in grid order, so session `i` is the `i`-th slice. Each
/// non-empty session becomes one named thread track under one process,
/// its records sorted stably by sim time: [`FlightKind::State`] records
/// become `B`/`E` duration spans, instants `i` events, and samples
/// per-session `C` counter series. Times are session-local; staggered
/// sessions align at their own zero, which is exactly what side-by-side
/// comparison wants.
pub fn to_chrome<'a>(sessions: impl IntoIterator<Item = &'a [Record]>) -> JsonValue {
    let mut chrome = ChromeTrace::new();
    chrome.process_name(CHROME_PID, "laqa");
    let mut track: Vec<Record> = Vec::new();
    let mut tid = 0;
    for (session, records) in sessions.into_iter().enumerate() {
        if records.is_empty() {
            continue;
        }
        tid += 1;
        chrome.thread_name(CHROME_PID, tid, &format!("session {session}"));
        track.clear();
        track.extend_from_slice(records);
        track.sort_by(|a, b| a.time.total_cmp(&b.time));

        let mut open_state = false;
        let mut last_us = 0.0f64;
        for r in &track {
            let ts_us = r.time * 1e6;
            last_us = last_us.max(ts_us);
            match r.kind {
                FlightKind::State => {
                    if open_state {
                        chrome.end(CHROME_PID, tid, ts_us);
                    }
                    chrome.begin(CHROME_PID, tid, ts_us, r.name);
                    open_state = true;
                }
                FlightKind::Instant => {
                    chrome.instant(
                        CHROME_PID,
                        tid,
                        ts_us,
                        r.name,
                        vec![("value".into(), JsonValue::Num(r.value))],
                    );
                }
                FlightKind::Value => {
                    let series = format!("{} s{session}", r.name);
                    chrome.counter(CHROME_PID, ts_us, &series, r.value);
                }
            }
        }
        if open_state {
            // Close the final state span at the track's last stamp.
            chrome.end(CHROME_PID, tid, last_us);
        }
    }
    chrome.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        take();
        state("flight.test.idle", 0.0);
        instant("flight.test.ev", 1.0, 2.0);
        assert!(take().is_empty());
    }

    #[test]
    fn chrome_tracks_sort_by_time_and_skip_empty_sessions() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        take();
        state("filling", 0.5);
        instant("qa.layer_add", 1.0, 2.0);
        sample("qa.buf_base", 0.25, 4096.0);
        let first = take();
        instant("qa.backoff", 0.1, 4.0);
        let second = take();
        set_enabled(false);
        assert!(take().is_empty(), "take empties the buffer");

        let chrome = to_chrome([&first[..], &[], &second[..]]);
        let events: Vec<(&str, f64, &str)> = chrome
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                let text = |k: &str| e.get(k).and_then(JsonValue::as_str).unwrap();
                let tid = e.get("tid").and_then(JsonValue::as_num).unwrap();
                // A metadata event's subject is its `args.name`.
                let name = match text("ph") {
                    "M" => e.get("args").and_then(|a| a.get("name")),
                    _ => e.get("name"),
                };
                (text("ph"), tid, name.and_then(JsonValue::as_str).unwrap())
            })
            .collect();
        // Session 1 recorded nothing: no track, and session 2 takes tid 2.
        assert_eq!(
            events,
            vec![
                ("M", 0.0, "laqa"),
                ("M", 1.0, "session 0"),
                ("C", 0.0, "qa.buf_base s0"),
                ("B", 1.0, "filling"),
                ("i", 1.0, "qa.layer_add"),
                ("E", 1.0, ""),
                ("M", 2.0, "session 2"),
                ("i", 2.0, "qa.backoff"),
            ]
        );
    }

    #[test]
    fn chrome_export_builds_one_track_per_session_with_balanced_spans() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        take();
        state("filling", 0.0);
        instant("qa.layer_add", 0.4, 2.0);
        state("draining", 1.0);
        sample("qa.buf_base", 1.5, 900.0);
        set_enabled(false);
        let track = take();
        let chrome = to_chrome([&track[..], &track[..]]);
        let stats = laqa_trace::chrome::validate(&chrome).expect("well-formed");
        assert_eq!(stats.spans, 4); // two states per session, all closed
        assert_eq!(stats.instants, 2);
        assert_eq!(stats.counters, 2);
        let sessions: Vec<&str> = stats
            .tracks
            .values()
            .filter(|t| t.name.starts_with("session "))
            .map(|t| t.name.as_str())
            .collect();
        assert_eq!(sessions, vec!["session 0", "session 1"]);
        // The export survives its own serialization.
        let reparsed = laqa_trace::json::parse(&chrome.to_compact()).unwrap();
        assert_eq!(
            laqa_trace::chrome::validate(&reparsed).unwrap().events,
            stats.events
        );
    }
}
