//! Flight recorder: per-session, sim-time-stamped timeline traces.
//!
//! The metrics registry answers "how many" and spans answer "how long",
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
//! builds its [`FlightTrace`] from those results by grid index
//! ([`FlightTrace::from_sessions`]). Nothing is bounded or evicted.
//!
//! ## Determinism
//!
//! A session's records, in emission order, depend only on its spec —
//! never on which worker ran it or what else that worker ran. The
//! export numbers each record by its emission index (`seq`) and sorts
//! each track stably by sim time, so two runs of the same campaign
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

/// What a [`FlightRecord`] marks on its session's track.
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

impl FlightKind {
    /// Lower-case label used in the JSON export.
    pub fn label(&self) -> &'static str {
        match self {
            FlightKind::State => "state",
            FlightKind::Instant => "instant",
            FlightKind::Value => "value",
        }
    }

    /// Parse the export label back.
    pub fn from_label(s: &str) -> Option<FlightKind> {
        match s {
            "state" => Some(FlightKind::State),
            "instant" => Some(FlightKind::Instant),
            "value" => Some(FlightKind::Value),
            _ => None,
        }
    }
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

/// One exported timeline record (see [`FlightTrace`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Owning session: its grid index.
    pub session: u64,
    /// Session-local simulation time (seconds).
    pub time: f64,
    /// Emission index within the session.
    pub seq: u64,
    /// Record kind.
    pub kind: FlightKind,
    /// Dotted name (state label for [`FlightKind::State`]).
    pub name: String,
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

/// The timeline of a campaign: one track per session, sorted by
/// `(session, time, seq)` (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightTrace {
    /// Records sorted by `(session, time, seq)`.
    pub records: Vec<FlightRecord>,
}

/// The Chrome trace `pid` every track lives under.
const CHROME_PID: u64 = 1;

/// `x` as a count, if it is a non-negative integer.
fn as_count(x: f64) -> Option<u64> {
    (x >= 0.0 && x.fract() == 0.0).then_some(x as u64)
}

impl FlightTrace {
    /// Assemble a trace from each session's records in grid order:
    /// session `i` is the `i`-th slice. Each track numbers its records in
    /// emission order (`seq`) and is sorted stably by sim time.
    pub fn from_sessions<'a>(sessions: impl IntoIterator<Item = &'a [Record]>) -> FlightTrace {
        let mut records = Vec::new();
        for (session, track) in sessions.into_iter().enumerate() {
            let start = records.len();
            records.extend(track.iter().enumerate().map(|(seq, r)| FlightRecord {
                session: session as u64,
                time: r.time,
                seq: seq as u64,
                kind: r.kind,
                name: r.name.to_string(),
                value: r.value,
            }));
            records[start..].sort_by(|a, b| a.time.total_cmp(&b.time));
        }
        FlightTrace { records }
    }

    /// Distinct session ids in the trace, ascending.
    pub fn session_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = Vec::new();
        for r in &self.records {
            if ids.last() != Some(&r.session) {
                ids.push(r.session);
            }
        }
        ids
    }

    /// Raw JSON form (`flight.json`): `{"records": [...]}`.
    pub fn to_json(&self) -> JsonValue {
        let records = self.records.iter().map(|r| {
            JsonValue::Obj(vec![
                ("session".into(), JsonValue::Num(r.session as f64)),
                ("time".into(), JsonValue::Num(r.time)),
                ("seq".into(), JsonValue::Num(r.seq as f64)),
                ("kind".into(), JsonValue::Str(r.kind.label().into())),
                ("name".into(), JsonValue::Str(r.name.clone())),
                ("value".into(), JsonValue::Num(r.value)),
            ])
        });
        JsonValue::Obj(vec![("records".into(), JsonValue::Arr(records.collect()))])
    }

    /// Parse a trace previously serialized by [`FlightTrace::to_json`].
    /// A missing or mistyped field is an error naming the record index
    /// and the field.
    pub fn from_json(v: &JsonValue) -> Result<FlightTrace, String> {
        let records = v
            .get("records")
            .and_then(JsonValue::as_arr)
            .ok_or("flight trace: missing records array")?;
        let mut out = FlightTrace {
            records: Vec::with_capacity(records.len()),
        };
        for (i, r) in records.iter().enumerate() {
            let num = |field: &str| {
                r.get(field)
                    .and_then(JsonValue::as_num)
                    .ok_or_else(|| format!("flight record {i}: missing or non-numeric {field}"))
            };
            let int = |field: &str| {
                let x = num(field)?;
                as_count(x).ok_or_else(|| {
                    format!("flight record {i}: {field} {x} is not a non-negative integer")
                })
            };
            let text = |field: &str| {
                r.get(field)
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("flight record {i}: missing or non-string {field}"))
            };
            let kind_label = text("kind")?;
            out.records.push(FlightRecord {
                session: int("session")?,
                time: num("time")?,
                seq: int("seq")?,
                kind: FlightKind::from_label(kind_label)
                    .ok_or_else(|| format!("flight record {i}: unknown kind '{kind_label}'"))?,
                name: text("name")?.to_string(),
                value: num("value")?,
            });
        }
        Ok(out)
    }

    /// Export as Chrome trace-event JSON (load in Perfetto or
    /// `chrome://tracing`): one named thread track per session under one
    /// process, [`FlightKind::State`] records as `B`/`E` duration spans,
    /// instants as `i` events, and samples as per-session `C` counter
    /// series. Times are session-local; staggered sessions align at
    /// their own zero, which is exactly what side-by-side comparison
    /// wants.
    pub fn to_chrome(&self) -> JsonValue {
        let mut chrome = ChromeTrace::new();
        chrome.process_name(CHROME_PID, "laqa");
        for (lane, &session) in self.session_ids().iter().enumerate() {
            let tid = lane as u64 + 1;
            chrome.thread_name(CHROME_PID, tid, &format!("session {session}"));

            // Per-track pass: records are already (time, seq)-sorted.
            let mut open_state: Option<&str> = None;
            let mut last_us = 0.0f64;
            for r in self.records.iter().filter(|r| r.session == session) {
                let ts_us = r.time * 1e6;
                last_us = last_us.max(ts_us);
                match r.kind {
                    FlightKind::State => {
                        if open_state.take().is_some() {
                            chrome.end(CHROME_PID, tid, ts_us);
                        }
                        chrome.begin(CHROME_PID, tid, ts_us, &r.name);
                        open_state = Some(&r.name);
                    }
                    FlightKind::Instant => {
                        chrome.instant(
                            CHROME_PID,
                            tid,
                            ts_us,
                            &r.name,
                            vec![("value".into(), JsonValue::Num(r.value))],
                        );
                    }
                    FlightKind::Value => {
                        let series = format!("{} s{session}", r.name);
                        chrome.counter(CHROME_PID, ts_us, &series, r.value);
                    }
                }
            }
            if open_state.is_some() {
                // Close the final state span at the track's last stamp.
                chrome.end(CHROME_PID, tid, last_us);
            }
        }
        chrome.finish()
    }
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
    fn records_sort_by_session_then_time_and_round_trip() {
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

        let trace = FlightTrace::from_sessions([&first[..], &[], &second[..]]);
        assert_eq!(trace.session_ids(), vec![0, 2]);
        let names: Vec<&str> = trace.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["qa.buf_base", "filling", "qa.layer_add", "qa.backoff"]
        );
        // `seq` is the emission index within the session.
        let seqs: Vec<u64> = trace.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 0, 1, 0]);

        let back = FlightTrace::from_json(&trace.to_json()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn from_json_rejects_malformed_records_by_index_and_field() {
        let good = r#"{"session":3,"time":0.5,"seq":1,"kind":"instant","name":"x","value":2}"#;
        let parse = |second: &str| {
            let text = format!(r#"{{"records":[{good},{second}]}}"#);
            FlightTrace::from_json(&laqa_trace::json::parse(&text).unwrap())
        };
        assert_eq!(parse(good).unwrap().records.len(), 2);
        // One mutation of the valid record per row: (from, to, field).
        let cases = [
            (r#""session":3"#, r#""session":-1"#, "session"),
            (r#""session":3"#, r#""session":1.5"#, "session"),
            (r#""session":3,"#, "", "session"),
            (r#""time":0.5"#, r#""time":"soon""#, "time"),
            (r#""time":0.5,"#, "", "time"),
            (r#""seq":1"#, r#""seq":null"#, "seq"),
            (r#""seq":1"#, r#""seq":-2"#, "seq"),
            (r#""seq":1,"#, "", "seq"),
            (r#""kind":"instant""#, r#""kind":"blip""#, "kind"),
            (r#""name":"x""#, r#""name":7"#, "name"),
            (r#""value":2"#, r#""value":true"#, "value"),
            (r#","value":2"#, "", "value"),
        ];
        for (from, to, field) in cases {
            assert!(good.contains(from), "stale case {from}");
            let err = parse(&good.replacen(from, to, 1)).unwrap_err();
            assert!(
                err.contains("record 1") && err.contains(field),
                "{from} -> {to}: {err}"
            );
        }
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
        let trace = FlightTrace::from_sessions([&track[..], &track[..]]);
        let chrome = trace.to_chrome();
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
