//! Chrome trace-event JSON: a builder and a zero-dependency
//! well-formedness validator.
//!
//! The [trace-event format] is what Perfetto and `chrome://tracing`
//! load: a `{"traceEvents": [...]}` object whose entries carry a phase
//! (`ph`), microsecond timestamp (`ts`), name, and `pid`/`tid` track
//! coordinates. The flight recorder (`laqa-obs`) exports per-session
//! timelines through [`ChromeTrace`], and `laqa campaign --obs DIR`
//! writes them to `DIR/trace.json`. [`validate`] is the tests' oracle for
//! that file (`crates/bench/tests/cli.rs` runs it on the written bytes);
//! it reuses [`crate::json`] so the check stays registry-free.
//!
//! Only the event phases the workspace emits are modeled: `M` metadata
//! (process/thread names), `B`/`E` duration spans, `i` instants, `C`
//! counters, plus `X` complete events for future producers.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeMap;

use crate::json::JsonValue;

/// Incrementally builds a trace-event document. Events are appended in
/// call order; viewers sort by `ts` themselves, but [`validate`]'s
/// span-balance check expects each track's `B`/`E` pairs in order, which
/// a per-track forward pass (how the flight recorder exports) produces
/// naturally.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<JsonValue>,
}

fn base(ph: &str, pid: u64, tid: u64, ts_us: f64, name: &str) -> Vec<(String, JsonValue)> {
    vec![
        ("ph".into(), JsonValue::Str(ph.into())),
        ("pid".into(), JsonValue::Num(pid as f64)),
        ("tid".into(), JsonValue::Num(tid as f64)),
        ("ts".into(), JsonValue::Num(ts_us)),
        ("name".into(), JsonValue::Str(name.into())),
    ]
}

impl ChromeTrace {
    /// Empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Name the process `pid` (metadata event).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        let mut ev = base("M", pid, 0, 0.0, "process_name");
        ev.push((
            "args".into(),
            JsonValue::Obj(vec![("name".into(), JsonValue::Str(name.into()))]),
        ));
        self.events.push(JsonValue::Obj(ev));
    }

    /// Name the thread `(pid, tid)` (metadata event) — one call per
    /// session track.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        let mut ev = base("M", pid, tid, 0.0, "thread_name");
        ev.push((
            "args".into(),
            JsonValue::Obj(vec![("name".into(), JsonValue::Str(name.into()))]),
        ));
        self.events.push(JsonValue::Obj(ev));
    }

    /// Open a duration span on a track.
    pub fn begin(&mut self, pid: u64, tid: u64, ts_us: f64, name: &str) {
        self.events
            .push(JsonValue::Obj(base("B", pid, tid, ts_us, name)));
    }

    /// Close the most recently opened span on a track.
    pub fn end(&mut self, pid: u64, tid: u64, ts_us: f64) {
        self.events
            .push(JsonValue::Obj(base("E", pid, tid, ts_us, "")));
    }

    /// A thread-scoped instant marker with an args payload.
    pub fn instant(
        &mut self,
        pid: u64,
        tid: u64,
        ts_us: f64,
        name: &str,
        args: Vec<(String, JsonValue)>,
    ) {
        let mut ev = base("i", pid, tid, ts_us, name);
        ev.push(("s".into(), JsonValue::Str("t".into())));
        ev.push(("args".into(), JsonValue::Obj(args)));
        self.events.push(JsonValue::Obj(ev));
    }

    /// A counter sample; viewers chart one series per counter name.
    pub fn counter(&mut self, pid: u64, ts_us: f64, name: &str, value: f64) {
        let mut ev = base("C", pid, 0, ts_us, name);
        ev.push((
            "args".into(),
            JsonValue::Obj(vec![("value".into(), JsonValue::Num(value))]),
        ));
        self.events.push(JsonValue::Obj(ev));
    }

    /// Finish the document: `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
    pub fn finish(self) -> JsonValue {
        JsonValue::Obj(vec![
            ("traceEvents".into(), JsonValue::Arr(self.events)),
            ("displayTimeUnit".into(), JsonValue::Str("ms".into())),
        ])
    }
}

/// Per-track tallies reported by [`validate`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackStats {
    /// Thread name from `thread_name` metadata (empty if unnamed).
    pub name: String,
    /// Non-metadata events on this track.
    pub events: usize,
}

/// What [`validate`] found in a well-formed trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeStats {
    /// Total non-metadata events.
    pub events: usize,
    /// Complete `B`/`E` span pairs (plus `X` events).
    pub spans: usize,
    /// `i` instant events.
    pub instants: usize,
    /// `C` counter samples.
    pub counters: usize,
    /// Per-`(pid, tid)` track tallies.
    pub tracks: BTreeMap<(u64, u64), TrackStats>,
}

impl ChromeStats {
    /// Tracks named `session …` that carry at least one event — the
    /// per-session timelines of a flight-recorder export.
    pub fn session_tracks(&self) -> usize {
        self.tracks
            .values()
            .filter(|t| t.name.starts_with("session ") && t.events > 0)
            .count()
    }
}

fn field_num(ev: &JsonValue, key: &str, i: usize) -> Result<u64, String> {
    ev.get(key)
        .and_then(JsonValue::as_num)
        .map(|n| n as u64)
        .ok_or_else(|| format!("event {i}: missing numeric '{key}'"))
}

/// Check that `v` is a well-formed trace-event document: a
/// `traceEvents` array whose entries all carry a known phase, numeric
/// `pid`/`tid`/`ts`, and a string `name`; every `B` on a track must be
/// closed by an `E` (and never under-closed). Returns per-track tallies
/// on success.
pub fn validate(v: &JsonValue) -> Result<ChromeStats, String> {
    let events = v
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("trace: missing traceEvents array")?;
    let mut stats = ChromeStats::default();
    let mut open: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        if ev.as_obj().is_none() {
            return Err(format!("event {i}: not an object"));
        }
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing 'ph'"))?;
        let pid = field_num(ev, "pid", i)?;
        let tid = field_num(ev, "tid", i)?;
        ev.get("ts")
            .and_then(JsonValue::as_num)
            .ok_or_else(|| format!("event {i}: missing numeric 'ts'"))?;
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing 'name'"))?;
        let track = (pid, tid);
        match ph {
            "M" => {
                if name == "thread_name" {
                    let label = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("event {i}: thread_name without args.name"))?;
                    stats.tracks.entry(track).or_default().name = label.to_string();
                }
                continue; // metadata is not a timeline event
            }
            "B" => *open.entry(track).or_insert(0) += 1,
            "E" => {
                let depth = open.entry(track).or_insert(0);
                if *depth == 0 {
                    return Err(format!(
                        "event {i}: 'E' without matching 'B' on track {track:?}"
                    ));
                }
                *depth -= 1;
                stats.spans += 1;
            }
            "i" => stats.instants += 1,
            "C" => stats.counters += 1,
            "X" => stats.spans += 1,
            other => return Err(format!("event {i}: unknown phase '{other}'")),
        }
        stats.events += 1;
        stats.tracks.entry(track).or_default().events += 1;
    }
    if let Some((track, depth)) = open.iter().find(|(_, &d)| d > 0) {
        return Err(format!("track {track:?}: {depth} unclosed 'B' span(s)"));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample() -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.process_name(1, "laqa");
        t.thread_name(1, 2, "session 0");
        t.begin(1, 2, 0.0, "filling");
        t.instant(
            1,
            2,
            5.0,
            "qa.layer_add",
            vec![("value".into(), JsonValue::Num(2.0))],
        );
        t.end(1, 2, 10.0);
        t.counter(1, 7.5, "qa.buf_base s0", 4096.0);
        t
    }

    #[test]
    fn builder_output_validates_and_round_trips() {
        let doc = sample().finish();
        let stats = validate(&doc).expect("well-formed");
        assert_eq!(stats.events, 4); // B + i + E + C

        assert_eq!(stats.spans, 1);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.session_tracks(), 1);
        assert_eq!(stats.tracks[&(1, 2)].name, "session 0");

        let reparsed = parse(&doc.to_compact()).unwrap();
        assert_eq!(validate(&reparsed).unwrap(), stats);
        let pretty = parse(&doc.to_pretty()).unwrap();
        assert_eq!(validate(&pretty).unwrap(), stats);
    }

    #[test]
    fn unbalanced_spans_are_rejected() {
        let mut t = ChromeTrace::new();
        t.begin(1, 2, 0.0, "open-forever");
        let err = validate(&t.finish()).unwrap_err();
        assert!(err.contains("unclosed"), "{err}");

        let mut t = ChromeTrace::new();
        t.end(1, 2, 0.0);
        let err = validate(&t.finish()).unwrap_err();
        assert!(err.contains("without matching"), "{err}");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(validate(&JsonValue::Obj(vec![])).is_err());
        let doc = JsonValue::Obj(vec![(
            "traceEvents".into(),
            JsonValue::Arr(vec![JsonValue::Obj(vec![
                ("ph".into(), JsonValue::Str("Z".into())),
                ("pid".into(), JsonValue::Num(1.0)),
                ("tid".into(), JsonValue::Num(1.0)),
                ("ts".into(), JsonValue::Num(0.0)),
                ("name".into(), JsonValue::Str("x".into())),
            ])]),
        )]);
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("unknown phase"), "{err}");
    }
}
