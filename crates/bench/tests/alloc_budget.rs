//! Allocation guard for a simulator session, the engine's forwarding
//! path, the in-place state-sequence rebuild and on-demand growth, the QA
//! controller's tick and the transport's packet round.
//!
//! PR 4 pinned the in-session allocator win (266k → 29k allocs per run);
//! this pins what keeps it. A session runs within a small fixed
//! allocation budget: world and agent construction and result extraction
//! allocate, the per-event and per-tick paths do not, so a session three
//! times longer allocates barely more. Nor does it hold more: a session
//! keeps digests and running sums, not rows, so its peak live bytes
//! barely move between 30 s and 810 s.
//! Once a [`StateSequence`]'s rows have held as many states and targets
//! as an operating point needs, rebuilding it for that point, or resetting
//! it and growing any prefix on demand, allocates nothing. Once a [`QaController`] has been
//! through its session's layer counts, a tick and a backoff allocate
//! nothing, whichever `K_max` sets how far its paths grow. And once a
//! [`RateController`] and its receiver have seen a flight of packets, a
//! packet's round through them allocates nothing, lost packets included.
//! And once a [`World`] has forwarded a second of traffic, its packet
//! arena, link queue and timer wheel have their footprint: forwarding
//! more allocates nothing.
//!
//! Lives in `crates/bench/tests` because the laqa crates are
//! `deny(unsafe_code)` and the counting `#[global_allocator]` is the one
//! unavoidable unsafe surface. The counter is per thread: everything
//! measured here runs on the test's own thread, and what the harness's
//! main thread allocates meanwhile must not bleed into an exact-zero
//! assertion.

use laqa_core::{QaConfig, QaController, StateSequence};
use laqa_rap::{
    BbrConfig, BbrSender, NadaConfig, NadaSender, RapConfig, RapEvent, RapReceiverState, RapSender,
    RateController, WindowConfig, WindowSender,
};
use laqa_sim::agents::cbr::{CbrAgent, CountingSink};
use laqa_sim::{run_session, LinkConfig, SessionSpec, TestKind, Transport, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // touch them at any point of a thread's life without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    // Bytes this thread holds (what it allocated less what it freed), and
    // the most it has held since `peak_live_during` last reset it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// One trip to the allocator for `bytes` bytes (a growth counts its new
/// size, as `benchmark/`'s `alloc_bytes_per_session` does).
fn count(bytes: usize) {
    ALLOCS.set(ALLOCS.get() + 1);
    BYTES.set(BYTES.get() + bytes as u64);
}

/// The thread now holds `delta` more bytes.
fn hold(delta: i64) {
    let live = LIVE.get() + delta;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter bumps touch no
// allocator state and cannot allocate (see `ALLOCS`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        hold(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations allowed for one 8 s session (measured: 283 — world and
/// agent construction with the link table and the packet arena sized
/// once, routes inline in the packets that carry them; a session records
/// no trace row, only digests, and a receiver buffer holds a run of
/// equal-size packets in one entry. A link queue holds only packets
/// that wait, so a link on which no packet waits never allocates one,
/// and a state path keeps its states in two row buffers that grow
/// geometrically, so a path that gets longer or wider reallocates a few
/// times, not once per state). The 7 % budget leaves slack for
/// allocator-library drift without letting the in-session paths — the
/// per-tick state paths above all — quietly start allocating again.
const SESSION_ALLOC_BUDGET: u64 = 303;

/// Bytes a 90 s T1 or T2 session may request from the allocator
/// (measured: 115 512 for T1, 124 696 for T2 at `K_max` 2, seed 7, plus
/// 7 %). A session keeps no trace row, only the digests `hash_outcome`
/// folds (`run_scenario` keeps the rows, for the figures), each RAP
/// receiver tracks holes only within its reception horizon, and the
/// packet arena is sized once, when the scenario is built.
const SESSION_BYTE_BUDGET: u64 = 133_500;

/// Bytes a 90 s T1 session at `K_max` 2, seed 7, may hold at its peak
/// (measured: 87 848, plus 7 %): 64-byte packets in an arena sized once
/// and 16-byte transmission-history slots. The ratio in [`session_memory_does_not_grow_with_length`] cannot see a rise
/// that lifts every session length alike; this can.
const SESSION_PEAK_BUDGET: u64 = 94_000;

/// Allocations a 90 s session may make beyond a 30 s one of the same
/// spec (measured: 9 for T1 and for T2 at `K_max` 2, seed 7, plus 7 %,
/// rounded up). What still grows with length is first visits to new
/// layer counts and path lengths (a path grown on demand reaches its
/// longer prefixes later in a session, and its rows grow then); a
/// per-tick or per-packet allocation would add thousands.
const SESSION_GROWTH_BUDGET: u64 = 10;

/// How much more an 810 s session may hold at its peak than a 30 s one
/// (measured: 92 016 against 87 216 B, 1.055 x, for T1 at `K_max` 2,
/// seed 7; 7.15 x while a session kept its rows, decision log and every
/// RAP hole).
const PEAK_GROWTH_LIMIT: f64 = 1.1;

/// A T1 or T2 session at `K_max` 2, seed 7, lasting `secs`.
fn session(test: TestKind, secs: f64) -> SessionSpec {
    SessionSpec {
        test,
        k_max: 2,
        seed: 7,
        duration: secs,
        fault_intensity: None,
        transport: Transport::Rap,
        trace: None,
    }
}

/// Allocations and bytes requested while `f` runs, and its result.
fn counts_during<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let (a0, b0) = (ALLOCS.get(), BYTES.get());
    let out = f();
    ((ALLOCS.get() - a0, BYTES.get() - b0), out)
}

/// The most bytes `f` held at once beyond what the thread held before it,
/// and its result.
fn peak_live_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = LIVE.get();
    PEAK.set(before);
    let out = f();
    ((PEAK.get() - before) as u64, out)
}

fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let ((allocs, _), out) = counts_during(f);
    (allocs, out)
}

/// `rebuild` on a warmed sequence — one whose rows have already held at
/// least as many states, as many targets (states × layers) and as many
/// layers as the new operating point needs — allocates nothing, at any
/// path length: the 31 states of the default horizon and the 63 of
/// horizon 32 included. Nor does a `reset` followed by growing any prefix
/// of the path on demand, the controller's way.
fn assert_warmed_rebuild_allocates_nothing() {
    let mut seq = StateSequence::default();
    // The most (states, targets, layers) `seq` has held: none of its
    // buffers ever shrinks.
    let mut held = (0usize, 0usize, 0usize);
    let mut longest = 0;
    // The default horizon of 16 yields up to 31 states; gentler decrease
    // factors raise k1 and shrink the path.
    for (k_horizon, factor) in [(8u32, 0.5), (16, 0.5), (16, 0.7), (16, 0.85), (32, 0.5)] {
        for n in (1..=6usize).rev() {
            for x in [0.6, 1.0, 1.7, 3.1] {
                let rate = x * n as f64 * 10_000.0;
                let mut fresh = StateSequence::default();
                fresh.rebuild(rate, n, 10_000.0, 25_000.0, k_horizon, factor);
                let states = fresh.emitted().len();
                assert!(states > 0, "every point here has a draining phase");
                longest = longest.max(states);
                // The first visit may grow the rows; the repeat never does.
                for _ in 0..2 {
                    let warmed = held.0 >= states && held.1 >= states * n && held.2 >= n;
                    let (allocs, ()) = allocs_during(|| {
                        seq.rebuild(rate, n, 10_000.0, 25_000.0, k_horizon, factor)
                    });
                    held = (held.0.max(states), held.1.max(states * n), held.2.max(n));
                    assert_eq!(seq.emitted().len(), states);
                    if warmed {
                        assert_eq!(
                            allocs, 0,
                            "warmed rebuild to {states} states x {n} layers \
                             (k_h {k_horizon}, f {factor}) allocated"
                        );
                    }
                }
                let (allocs, ()) = allocs_during(|| {
                    for i in 0..states {
                        seq.reset(rate, n, 10_000.0, 25_000.0, k_horizon, factor);
                        assert!(seq.state(i).is_some());
                    }
                });
                assert_eq!(
                    allocs, 0,
                    "warmed on-demand prefixes of {states} states x {n} layers \
                     (k_h {k_horizon}, f {factor}) allocated"
                );
            }
        }
    }
    assert!(
        longest > 31,
        "the walk must go past the default horizon's 31 states"
    );
}

/// A [`QaController`] with the `qa_fluid` shape (10 layers, `K_max`
/// `k_max`) on an AIMD sawtooth with a backoff at every peak and a deeper double
/// backoff now and then, so layers come up, buffers drain and layers
/// drop. After a warm-up over the full range of layer counts, a tick that
/// neither adds, drops nor stalls allocates nothing — the
/// [`TickReport`](laqa_core::TickReport) it hands over carries its
/// per-layer rates inline — and a backoff that drops nothing allocates
/// nothing. Ticks and backoffs that do change the layer count may grow
/// the controller's buffer of the latest call's decisions, up to the most
/// one call makes. Its paths are grown on demand,
/// so `K_max` sets how much of each a tick reads: 2 reads the shortest
/// prefixes, 16 nearly the whole default horizon. The measured stretch
/// must see at least three layer drops at `drops_in`.
fn assert_warmed_controller_tick_allocates_nothing(k_max: u32, drops_in: DropSite) {
    const C: f64 = 5_000.0;
    const DT: f64 = 0.1;
    const SLOPE: f64 = 4_000.0;
    let mut qa = QaController::new(QaConfig {
        layer_rate: C,
        max_layers: 10,
        k_max,
        ..QaConfig::default()
    })
    .unwrap();
    qa.set_slope(SLOPE);
    let (mut now, mut rate, mut cycle) = (0.0, C, 0u32);
    // (ticks, adds, tick drops, backoffs, backoff drops) seen while
    // measuring.
    let mut seen = (0u32, 0usize, 0usize, 0u32, 0usize);
    let warm_up = 6_000.0;
    while now < warm_up + 3_000.0 {
        let measuring = now >= warm_up;
        rate += SLOPE * DT;
        if rate >= 13.0 * C {
            cycle += 1;
            // Every seventh peak backs off three times at once.
            for _ in 0..if cycle % 7 == 0 { 3 } else { 1 } {
                rate *= 0.5;
                let layers = qa.n_active();
                let (allocs, ()) = allocs_during(|| qa.on_backoff(now, rate));
                if measuring && qa.n_active() == layers {
                    assert_eq!(
                        allocs, 0,
                        "K_max {k_max}: on_backoff at t={now:.1} allocated"
                    );
                }
                if measuring {
                    seen.3 += 1;
                    seen.4 += layers - qa.n_active();
                }
            }
        }
        let (allocs, report) = allocs_during(|| qa.tick(now, rate, DT));
        if measuring {
            if report.added == 0 && report.dropped == 0 && !report.stalled {
                assert_eq!(
                    allocs, 0,
                    "K_max {k_max}: steady tick at t={now:.1} ({:?}, {} layers) \
                     allocated {allocs} times",
                    report.phase, report.n_active
                );
            }
            seen.0 += 1;
            seen.1 += report.added;
            seen.2 += report.dropped;
        }
        for (layer, &r) in report.per_layer_rate.iter().enumerate() {
            qa.on_packet_delivered(layer, r * DT);
        }
        now += DT;
    }
    eprintln!(
        "alloc_budget: K_max {k_max} controller walk \
         (ticks, adds, tick drops, backoffs, backoff drops) = {seen:?}"
    );
    let drops = match drops_in {
        DropSite::Tick => seen.2,
        DropSite::Backoff => seen.4,
    };
    assert!(
        seen.1 >= 3 && drops >= 3 && seen.3 >= 20,
        "K_max {k_max}: the measured stretch must add, drop in {drops_in:?} and back off: \
         {seen:?}"
    );
}

/// Where a controller walk's layer drops must happen.
#[derive(Debug, Clone, Copy)]
enum DropSite {
    /// In `tick`: the draining phase runs a layer's buffer out.
    Tick,
    /// In `on_backoff`: the buffers cannot cover the new deficit. Buffers
    /// sized for only a couple of backoffs leave the backoff itself to
    /// drop every layer that goes.
    Backoff,
}

/// A packet's round through a warmed controller and receiver —
/// `register_send`, the receiver's `on_data`, `on_ack` a round trip later,
/// `poll_timers`, `drain_events_into` — allocates nothing. Every 200th
/// packet is lost for good, so the reorder set holds a run per loss, the
/// mask has a hole in it, and loss detection, cluster suppression and the
/// backoff all run inside the measured stretch.
fn assert_warmed_packet_round_allocates_nothing<C: RateController>(name: &str, mut ctl: C) {
    /// ACKs arrive this many sends (milliseconds) after their packet.
    const RTT_ROUNDS: u64 = 20;
    // The receiver keeps a run per standing hole within its reception
    // horizon only: one or two here, whatever the walk's length.
    const WARM_UP: u64 = 14_000;
    const MEASURED: u64 = 10_000;
    let mut rx = RapReceiverState::new();
    let mut acks = VecDeque::new();
    let mut events: Vec<RapEvent> = Vec::new();
    let (mut lost, mut backoffs) = (0u32, 0u32);
    for round in 0..WARM_UP + MEASURED {
        let now = round as f64 * 1e-3;
        let (allocs, ()) = allocs_during(|| {
            let seq = ctl.register_send(now, 100.0, (round % 5) as u32);
            if seq % 200 != 199 {
                acks.push_back((round + RTT_ROUNDS, rx.on_data(seq)));
            }
            while acks.front().is_some_and(|&(due, _)| due <= round) {
                let (_, ack) = acks.pop_front().expect("front checked");
                ctl.on_ack(now, ack);
            }
            ctl.poll_timers(now);
            ctl.drain_events_into(&mut events);
        });
        if round >= WARM_UP {
            assert_eq!(allocs, 0, "{name}: packet round {round} allocated");
            for e in &events {
                lost += u32::from(matches!(e, RapEvent::PacketLost { .. }));
                backoffs += u32::from(matches!(e, RapEvent::Backoff { .. }));
            }
        }
        events.clear();
    }
    eprintln!("alloc_budget: {name} packet rounds (lost, backoffs) = ({lost}, {backoffs})");
    assert!(
        lost == (MEASURED / 200) as u32 && backoffs >= 10,
        "{name}: the measured stretch must lose packets and back off: {lost} {backoffs}"
    );
}

/// CBR → one link → sink at 4 000 packets per second (half the link's
/// rate, the `engine.forward_ns_per_pkt` kernel's shape): after a warm-up
/// second, ten more seconds of sends, serializations and deliveries
/// allocate nothing.
fn assert_warmed_forwarding_allocates_nothing() {
    let mut world = World::new(1);
    let link = world.add_link(LinkConfig {
        bandwidth: 2_000_000.0,
        delay: 0.001,
        queue_packets: 64,
        ..LinkConfig::default()
    });
    let sink = world.add_agent(Box::new(CountingSink::default()));
    world.add_agent(Box::new(CbrAgent::new(
        sink,
        vec![link],
        1,
        1_000_000.0,
        250,
        0.0,
        f64::INFINITY,
    )));
    let delivered = |w: &World| w.agent::<CountingSink>(sink).unwrap().packets;
    world.run_until(1.0);
    let warm = delivered(&world);
    let (allocs, ()) = allocs_during(|| world.run_until(11.0));
    let packets = delivered(&world) - warm;
    assert!(packets >= 39_000, "only {packets} packets forwarded");
    assert_eq!(
        allocs, 0,
        "forwarding {packets} packets allocated {allocs} times"
    );
}

#[test]
fn sessions_and_rebuilds_stay_under_alloc_budgets() {
    assert_warmed_forwarding_allocates_nothing();
    assert_warmed_rebuild_allocates_nothing();
    assert_warmed_controller_tick_allocates_nothing(2, DropSite::Backoff);
    assert_warmed_controller_tick_allocates_nothing(16, DropSite::Tick);
    assert_warmed_packet_round_allocates_nothing("rap", RapSender::new(RapConfig::default(), 0.0));
    assert_warmed_packet_round_allocates_nothing("bbr", BbrSender::new(BbrConfig::default(), 0.0));
    assert_warmed_packet_round_allocates_nothing(
        "nada",
        NadaSender::new(NadaConfig::default(), 0.0),
    );
    assert_warmed_packet_round_allocates_nothing(
        "tcp",
        WindowSender::new(WindowConfig::default(), 0.0),
    );

    // Past qa_start (5 s): the QA controller must actually tick.
    let spec = session(TestKind::T1, 8.0);
    let (allocs, first) = allocs_during(|| run_session(&spec));
    let (again, second) = allocs_during(|| run_session(&spec));
    assert_eq!(first.trace_hash, second.trace_hash);
    assert_eq!(allocs, again, "a session's allocations are deterministic");
    eprintln!("alloc_budget: session={allocs}");
    assert!(
        allocs <= SESSION_ALLOC_BUDGET,
        "an 8 s session allocated {allocs} times (budget {SESSION_ALLOC_BUDGET})"
    );
}

/// A session's allocations are set by its setup, not its length: tripling
/// a session from 30 s to 90 s adds at most [`SESSION_GROWTH_BUDGET`], and
/// the 90 s one requests at most [`SESSION_BYTE_BUDGET`] bytes.
#[test]
fn session_allocations_do_not_grow_with_length() {
    for test in [TestKind::T1, TestKind::T2] {
        let (short, _) = allocs_during(|| run_session(&session(test, 30.0)));
        let ((long, bytes), _) = counts_during(|| run_session(&session(test, 90.0)));
        let growth = long.saturating_sub(short);
        eprintln!(
            "alloc_budget: {test:?} 30 s = {short}, 90 s = {long} ({bytes} B), growth = {growth}"
        );
        assert!(
            growth <= SESSION_GROWTH_BUDGET,
            "{test:?}: a 90 s session allocated {long} times against {short} at 30 s \
             (growth budget {SESSION_GROWTH_BUDGET})"
        );
        assert!(
            bytes <= SESSION_BYTE_BUDGET,
            "{test:?}: a 90 s session requested {bytes} B (budget {SESSION_BYTE_BUDGET})"
        );
    }
}

/// What a 90 s T1 session holds at its peak stays within
/// [`SESSION_PEAK_BUDGET`].
#[test]
fn session_peak_memory_stays_under_budget() {
    let (peak, _) = peak_live_during(|| run_session(&session(TestKind::T1, 90.0)));
    eprintln!("alloc_budget: T1 peak live 90 s = {peak} B");
    assert!(
        peak <= SESSION_PEAK_BUDGET,
        "a 90 s T1 session peaked at {peak} B (budget {SESSION_PEAK_BUDGET})"
    );
}

/// What a session holds is bounded by its windows and queues, not by its
/// length: an 810 s T1 session's peak live bytes are at most
/// [`PEAK_GROWTH_LIMIT`] times a 30 s one's.
#[test]
fn session_memory_does_not_grow_with_length() {
    let (short, _) = peak_live_during(|| run_session(&session(TestKind::T1, 30.0)));
    let (long, _) = peak_live_during(|| run_session(&session(TestKind::T1, 810.0)));
    let ratio = long as f64 / short as f64;
    eprintln!("alloc_budget: T1 peak live 30 s = {short} B, 810 s = {long} B ({ratio:.3}x)");
    assert!(
        ratio <= PEAK_GROWTH_LIMIT,
        "an 810 s session peaked at {long} B against {short} B at 30 s ({ratio:.3}x, \
         limit {PEAK_GROWTH_LIMIT}x)"
    );
}
