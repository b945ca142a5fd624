//! Flight recorder: bounded per-thread, sim-time-stamped timeline traces
//! with per-session attribution.
//!
//! The metrics registry answers "how many" and spans answer "how long",
//! but neither can answer *why session 17 starved at t=31s* — that
//! needs a timeline: QA state spans, layer add/drop
//! instants, backoff markers and buffer-level samples, all attributed to
//! the session that produced them no matter which worker thread ran it
//! or whether its world was warm or cold.
//!
//! ## Recording model
//!
//! Producers call [`state`], [`instant`] or [`sample`] with a static
//! name, the session-local simulation time, and a value. The record is
//! stamped with the calling thread's *current session* (set by the
//! campaign workers via [`set_session`]) and a **per-session sequence
//! number**, then appended to the calling thread's bounded ring.
//! Executor-side records that belong to no single session use the
//! reserved [`HOST_TRACK`] id.
//!
//! ## Determinism
//!
//! The merge sorts by `(session, time, seq)` and finally by full record
//! content. A session runs entirely on one thread, its records are
//! appended in dispatch order, and its sequence counter depends only on
//! how many records the session produced before — never on which worker
//! ran it or what else that worker ran. Two runs of the same campaign
//! therefore export **byte-identical** per-session tracks for any thread
//! count, as long as no ring evicted (`tests/flight_determinism.rs` pins
//! this). [`HOST_TRACK`] records reflect executor scheduling and are only
//! deterministic per run.
//!
//! ## Inertness
//!
//! The recorder has its own enable flag, off by default: a disabled site
//! costs one relaxed atomic load. Enabled, it only copies values it is
//! handed — fingerprints are bit-identical with the recorder on and off
//! (`crates/sim/tests/obs_inertness.rs` enforces this).
//!
//! ## Capacity
//!
//! Each thread ring holds [`FLIGHT_RING_CAPACITY`] records by default;
//! set the `LAQA_OBS_FLIGHT_RING` environment variable (read once) to
//! resize. Evictions are counted and surfaced as the
//! `obs.flight_evicted` counter in snapshots.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use laqa_trace::chrome::ChromeTrace;
use laqa_trace::JsonValue;

/// Session id for engine-global records (batch dispatches, stale-token
/// drops) that belong to no single session. Sorts after every real
/// session and is exported as the `engine` track.
pub const HOST_TRACK: u64 = u64::MAX;

/// Default flight records retained per thread before eviction.
pub const FLIGHT_RING_CAPACITY: usize = 65_536;

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

static CAPACITY: OnceLock<usize> = OnceLock::new();

fn parse_capacity(raw: Option<&str>) -> usize {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .map(|v| v.max(16))
        .unwrap_or(FLIGHT_RING_CAPACITY)
}

/// Per-thread ring capacity: the `LAQA_OBS_FLIGHT_RING` environment
/// variable (read once, clamped to at least 16), else
/// [`FLIGHT_RING_CAPACITY`].
pub fn ring_capacity() -> usize {
    *CAPACITY.get_or_init(|| parse_capacity(std::env::var("LAQA_OBS_FLIGHT_RING").ok().as_deref()))
}

/// What a [`FlightRecord`] marks on its session's track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// The session entered a new state (e.g. a QA phase); the previous
    /// state span on the track ends here. Exported as a Chrome duration
    /// span.
    State,
    /// A point event (layer add/drop, backoff, timer fire). Exported as
    /// a Chrome instant.
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

/// One merged, owned timeline record (see [`FlightTrace`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Owning session ([`HOST_TRACK`] for engine-global records).
    pub session: u64,
    /// Session-local simulation time (seconds).
    pub time: f64,
    /// Per-session sequence number (monotone over the session's records).
    pub seq: u64,
    /// Record kind.
    pub kind: FlightKind,
    /// Dotted name (state label for [`FlightKind::State`]).
    pub name: String,
    /// Payload value (layer count, rate, buffer bytes, ...).
    pub value: f64,
}

/// In-ring record; names stay `&'static str` so recording never
/// allocates per record.
#[derive(Debug, Clone, PartialEq)]
struct RawRecord {
    session: u64,
    time: f64,
    seq: u64,
    kind: FlightKind,
    name: &'static str,
    value: f64,
}

struct Ring {
    records: VecDeque<RawRecord>,
    /// Next sequence number per session. Lives in the ring (not thread-
    /// local storage) so [`clear`] can reset it from any thread.
    next_seq: BTreeMap<u64, u64>,
    evicted: u64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            records: VecDeque::with_capacity(ring_capacity().min(FLIGHT_RING_CAPACITY)),
            next_seq: BTreeMap::new(),
            evicted: 0,
        }
    }
}

static ALL_RINGS: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();

fn all_rings() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    ALL_RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static THREAD_RING: RefCell<Option<Arc<Mutex<Ring>>>> = const { RefCell::new(None) };
    /// The session records on this thread are attributed to.
    static CURRENT_SESSION: Cell<u64> = const { Cell::new(0) };
}

/// Attribute subsequent records on this thread to `session`. Campaign
/// workers call this with the grid index before running a cell. Callers
/// should gate on [`enabled`] to keep the disabled cost at one load.
pub fn set_session(session: u64) {
    CURRENT_SESSION.with(|c| c.set(session));
}

fn record(kind: FlightKind, name: &'static str, time: f64, value: f64) {
    if !enabled() {
        return;
    }
    let session = CURRENT_SESSION.with(Cell::get);
    THREAD_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let ring = slot.get_or_insert_with(|| {
            let ring = Arc::new(Mutex::new(Ring::new()));
            all_rings().lock().expect("flight rings").push(ring.clone());
            ring
        });
        let mut ring = ring.lock().expect("flight ring");
        if ring.records.len() >= ring_capacity() {
            ring.records.pop_front();
            ring.evicted += 1;
        }
        let seq_slot = ring.next_seq.entry(session).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        ring.records.push_back(RawRecord {
            session,
            time,
            seq,
            kind,
            name,
            value,
        });
    });
}

/// Record a state transition: the current session enters state `name` at
/// session-local time `time`, ending whatever state it was in.
#[inline]
pub fn state(name: &'static str, time: f64) {
    record(FlightKind::State, name, time, 0.0);
}

/// Record a point event with a payload value (layer index, rate, token).
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

/// The merged flight trace: every thread's ring, deterministically
/// ordered (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightTrace {
    /// Records sorted by `(session, time, seq)`.
    pub records: Vec<FlightRecord>,
    /// Records evicted from the bounded rings before this snapshot. A
    /// nonzero count means the timeline is truncated (oldest first).
    pub evicted: u64,
}

/// Merge every thread's flight ring into one deterministically ordered
/// trace (non-destructive; [`crate::reset`] clears the rings).
pub fn snapshot_flight() -> FlightTrace {
    let mut records: Vec<FlightRecord> = Vec::new();
    let mut evicted = 0;
    for ring in all_rings().lock().expect("flight rings").iter() {
        let ring = ring.lock().expect("flight ring");
        records.extend(ring.records.iter().map(|r| FlightRecord {
            session: r.session,
            time: r.time,
            seq: r.seq,
            kind: r.kind,
            name: r.name.to_string(),
            value: r.value,
        }));
        evicted += ring.evicted;
    }
    records.sort_by(|a, b| {
        a.session
            .cmp(&b.session)
            .then(a.time.total_cmp(&b.time))
            .then(a.seq.cmp(&b.seq))
            .then_with(|| a.name.cmp(&b.name))
            .then(a.value.total_cmp(&b.value))
    });
    FlightTrace { records, evicted }
}

/// Clear every ring (sequence counters restart too).
pub(crate) fn clear() {
    for ring in all_rings().lock().expect("flight rings").iter() {
        let mut ring = ring.lock().expect("flight ring");
        ring.records.clear();
        ring.next_seq.clear();
        ring.evicted = 0;
    }
}

/// Total records evicted across all rings (surfaced by snapshots as the
/// `obs.flight_evicted` counter).
pub(crate) fn total_evicted() -> u64 {
    all_rings()
        .lock()
        .expect("flight rings")
        .iter()
        .map(|r| r.lock().expect("flight ring").evicted)
        .sum()
}

/// The Chrome trace `pid` every track lives under.
const CHROME_PID: u64 = 1;

/// `x` as a count, if it is a non-negative integer.
fn as_count(x: f64) -> Option<u64> {
    (x >= 0.0 && x.fract() == 0.0).then_some(x as u64)
}

impl FlightTrace {
    /// Distinct session ids in the trace, ascending ([`HOST_TRACK`] last
    /// when present).
    pub fn session_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = Vec::new();
        for r in &self.records {
            if ids.last() != Some(&r.session) {
                ids.push(r.session);
            }
        }
        ids
    }

    /// Raw JSON form (`flight.json`): `{"evicted": n, "records": [...]}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("evicted".into(), JsonValue::Num(self.evicted as f64)),
            (
                "records".into(),
                JsonValue::Arr(
                    self.records
                        .iter()
                        .map(|r| {
                            JsonValue::Obj(vec![
                                ("session".into(), JsonValue::Num(r.session as f64)),
                                ("time".into(), JsonValue::Num(r.time)),
                                ("seq".into(), JsonValue::Num(r.seq as f64)),
                                ("kind".into(), JsonValue::Str(r.kind.label().into())),
                                ("name".into(), JsonValue::Str(r.name.clone())),
                                ("value".into(), JsonValue::Num(r.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse a trace previously serialized by [`FlightTrace::to_json`].
    /// A missing or mistyped field is an error naming the record index
    /// and the field.
    ///
    /// `u64::MAX` does not round-trip exactly through `f64`, so any
    /// session id at or beyond the `f64`-exact integer range is mapped
    /// back to [`HOST_TRACK`].
    pub fn from_json(v: &JsonValue) -> Result<FlightTrace, String> {
        /// Largest integer `f64` holds exactly (2^53).
        const F64_EXACT: f64 = 9_007_199_254_740_992.0;
        let records = v
            .get("records")
            .and_then(JsonValue::as_arr)
            .ok_or("flight trace: missing records array")?;
        let evicted = v
            .get("evicted")
            .and_then(JsonValue::as_num)
            .and_then(as_count)
            .ok_or("flight trace: missing or non-integer evicted")?;
        let mut out = FlightTrace {
            records: Vec::with_capacity(records.len()),
            evicted,
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
            let session = if num("session")? >= F64_EXACT {
                HOST_TRACK
            } else {
                int("session")?
            };
            let kind_label = text("kind")?;
            out.records.push(FlightRecord {
                session,
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
            let label = if session == HOST_TRACK {
                "engine".to_string()
            } else {
                format!("session {session}")
            };
            chrome.thread_name(CHROME_PID, tid, &label);

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
                        let series = if session == HOST_TRACK {
                            r.name.clone()
                        } else {
                            format!("{} s{session}", r.name)
                        };
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
        crate::reset();
        set_enabled(false);
        state("flight.test.idle", 0.0);
        instant("flight.test.ev", 1.0, 2.0);
        assert!(snapshot_flight().records.is_empty());
    }

    #[test]
    fn records_sort_by_session_then_time_and_round_trip() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::reset();
        set_enabled(true);
        set_session(7);
        state("filling", 0.5);
        instant("qa.layer_add", 1.0, 2.0);
        set_session(3);
        sample("qa.buf_base", 0.25, 4096.0);
        set_session(HOST_TRACK);
        instant("host.note", 0.1, 4.0);
        set_enabled(false);

        let trace = snapshot_flight();
        assert_eq!(trace.evicted, 0);
        assert_eq!(trace.session_ids(), vec![3, 7, HOST_TRACK]);
        let names: Vec<&str> = trace.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["qa.buf_base", "filling", "qa.layer_add", "host.note"]
        );
        // Per-session sequence restarts per session, not per thread.
        assert_eq!(trace.records[1].seq, 0);
        assert_eq!(trace.records[2].seq, 1);
        assert_eq!(trace.records[0].seq, 0);

        let back = FlightTrace::from_json(&trace.to_json()).unwrap();
        assert_eq!(back, trace);
        crate::reset();
        assert!(snapshot_flight().records.is_empty());
    }

    #[test]
    fn from_json_rejects_malformed_records_by_index_and_field() {
        let good = r#"{"session":3,"time":0.5,"seq":1,"kind":"instant","name":"x","value":2}"#;
        let parse = |second: &str| {
            let text = format!(r#"{{"evicted":0,"records":[{good},{second}]}}"#);
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
    fn rings_are_bounded_and_count_evictions() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::reset();
        set_enabled(true);
        set_session(1);
        for i in 0..(ring_capacity() + 5) {
            instant("flight.test.flood", i as f64, 0.0);
        }
        set_enabled(false);
        let trace = snapshot_flight();
        assert_eq!(trace.records.len(), ring_capacity());
        assert_eq!(trace.evicted, 5);
        assert_eq!(total_evicted(), 5);
        // Oldest evicted: surviving seqs start at 5 and stay monotone.
        assert_eq!(trace.records.first().unwrap().seq, 5);
        crate::reset();
    }

    #[test]
    fn capacity_parses_with_floor_and_default() {
        assert_eq!(parse_capacity(None), FLIGHT_RING_CAPACITY);
        assert_eq!(parse_capacity(Some("1024")), 1024);
        assert_eq!(parse_capacity(Some("3")), 16);
        assert_eq!(parse_capacity(Some("nope")), FLIGHT_RING_CAPACITY);
    }

    #[test]
    fn chrome_export_builds_one_track_per_session_with_balanced_spans() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::reset();
        set_enabled(true);
        for s in [0u64, 1] {
            set_session(s);
            state("filling", 0.0);
            instant("qa.layer_add", 0.4, 2.0);
            state("draining", 1.0);
            sample("qa.buf_base", 1.5, 900.0);
        }
        set_enabled(false);
        let trace = snapshot_flight();
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
        crate::reset();
    }
}
