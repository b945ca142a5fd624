#!/usr/bin/env bash
# Tier-1 verification for the workspace.
#
# Runs entirely offline: the workspace has only local path dependencies,
# no cargo feature and no excluded crate (see DESIGN.md, "Hermetic offline
# builds"), so every step below must succeed with zero registry access
# and together they compile and test all the code there is.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== 1/11 build (release) =="
# No configuration may go unbuilt: --all-features compiles any feature a
# later PR adds (steps 2-3 test and lint it too), nothing may be excluded
# from the workspace, and the workspace is exactly these nine packages.
cargo build --release --all-targets --all-features
if grep -qE '^\s*exclude\s*=' Cargo.toml; then
  echo "FAIL: root Cargo.toml excludes a crate from the workspace" >&2
  exit 1
fi
want="laqa-apps laqa-bench laqa-check laqa-core laqa-layered laqa-obs laqa-rap laqa-sim laqa-trace"
got=$(cargo metadata --offline --no-deps --format-version 1 \
  | grep -oE '"workspace_members":\[[^]]*\]' | grep -oE '"[^"]+"' | tail -n +2 \
  | sed -E 's/^"//; s/"$//; s/.*#//; s/[@ ].*//' | sort | tr '\n' ' ')
if [ "$got" != "$want " ]; then
  echo "FAIL: workspace packages changed" >&2
  echo "  expected: $want" >&2
  echo "  found   : $got" >&2
  exit 1
fi

echo "== 2/11 tests =="
cargo test -q --all-features

echo "== 3/11 clippy (deny warnings) =="
cargo clippy --all-targets --all-features -- -D warnings

echo "== 4/11 campaign smoke sweep =="
cargo run --release -p laqa-bench --bin campaign -- --smoke
# A command line the binary cannot honour must stop the run (exit 2), not
# fall back to defaults and still print a fingerprint: an option it does
# not take, a flag given a value (`--smoke 1` used to run the full
# campaign), a valued option given none (`--obs` wrote to ./true).
for bad in "--smoke --no-such-option" "--smoke 1" "--smoke --obs"; do
  rc=0
  # shellcheck disable=SC2086
  cargo run --release -p laqa-bench --bin campaign -- $bad || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: campaign $bad exited $rc, expected usage error 2" >&2
    exit 1
  fi
done

echo "== 5/11 observability inertness (fingerprints with --obs on vs off) =="
# The smoke sweep prints one fingerprint line per replay check; enabling
# the laqa-obs instrumentation must not change a single bit of any of
# them (see crates/sim/tests/obs_inertness.rs for the in-tree half).
obs_dir=target/obs-smoke
rm -rf "$obs_dir"
fp_off=$(cargo run --release -p laqa-bench --bin campaign -- --smoke \
  | grep -oE 'fingerprint [0-9a-f]{16}')
fp_on=$(cargo run --release -p laqa-bench --bin campaign -- --smoke --obs "$obs_dir" \
  | grep -oE 'fingerprint [0-9a-f]{16}')
if [ "$fp_off" != "$fp_on" ]; then
  echo "FAIL: fingerprints diverge with observability enabled" >&2
  echo "  obs off: $fp_off" >&2
  echo "  obs on : $fp_on" >&2
  exit 1
fi
echo "fingerprints identical with obs on/off: $fp_off"
cargo run --release -p laqa-bench --bin laqa -- obs-report --dir "$obs_dir"

echo "== 6/11 fault-injection smoke (seed-replay fingerprint) =="
# The fault sweep must be a pure function of its seeds: two consecutive
# runs of the same grid (which also each self-check across thread
# counts) must print the same campaign fingerprint.
fault_fp_a=$(cargo run --release -p laqa-bench --bin campaign -- --faults --smoke \
  | grep -oE 'fingerprint [0-9a-f]{16}')
fault_fp_b=$(cargo run --release -p laqa-bench --bin campaign -- --faults --smoke \
  | grep -oE 'fingerprint [0-9a-f]{16}')
if [ -z "$fault_fp_a" ] || [ "$fault_fp_a" != "$fault_fp_b" ]; then
  echo "FAIL: fault campaign fingerprints diverge between runs" >&2
  echo "  run A: $fault_fp_a" >&2
  echo "  run B: $fault_fp_b" >&2
  exit 1
fi
echo "fault campaign replays bit-identically: $fault_fp_a"

echo "== 7/11 scheduler differential harness + bench smoke =="
# The timer wheel must replay every workload bit-identically to the
# BinaryHeap reference oracle (crates/sim/tests/sched_differential.rs),
# and the perf harness re-checks fingerprint agreement while measuring.
# Throughput is recorded into BENCH_sched.json for trend tracking, not
# gated — only fingerprint divergence fails this step (the bench exits
# non-zero on any heap/wheel mismatch).
cargo test -q --release -p laqa-sim --test sched_differential
cargo run --release -p laqa-bench --bin sched -- --smoke \
  --out target/bench-sched-smoke.json

echo "== 8/11 warm-world campaign executor bench + regression gate =="
# Sweeps {cold,warm} x {heap,wheel} x {1,2,8,16} threads over one grid and
# exits non-zero unless every cell reproduces the same fingerprint bit for
# bit (including the streaming run_campaign_fold cross-check), or if
# overall events/sec dropped >20% against the checked-in baseline (the
# bench skips that comparison, loudly, when the baseline's host_cores
# differs from this host's).
# --out is redirected so the smoke run never clobbers BENCH_campaign.json.
cargo run --release -p laqa-bench --bin campaign_bench -- --smoke \
  --check BENCH_campaign.json --out target/bench-campaign-smoke.json

echo "== 9/11 flight-recorder trace export (faults run -> Perfetto JSON) =="
# A fault-suite smoke sweep with the flight recorder live must (a) leave
# the campaign fingerprint untouched vs the plain run in step 6, and (b)
# export a timeline that `laqa obs-trace` converts into well-formed Chrome
# trace-event JSON with at least one non-empty per-session track —
# obs-trace re-parses the written file and exits non-zero on malformed
# output or an empty timeline.
flight_dir=target/obs-flight-smoke
rm -rf "$flight_dir"
flight_fp=$(cargo run --release -p laqa-bench --bin campaign -- --faults --smoke \
  --obs "$flight_dir" | grep -oE 'fingerprint [0-9a-f]{16}')
if [ -z "$flight_fp" ] || [ "$flight_fp" != "$fault_fp_a" ]; then
  echo "FAIL: fault fingerprint diverged with the flight recorder live" >&2
  echo "  plain  : $fault_fp_a" >&2
  echo "  flight : $flight_fp" >&2
  exit 1
fi
echo "fault campaign unchanged under the flight recorder: $flight_fp"
cargo run --release -p laqa-bench --bin laqa -- obs-trace --dir "$flight_dir" \
  --out "$flight_dir/trace.json"

echo "== 10/11 QA x transport interop smoke =="
# The pluggable-RateController matrix: the same smoke grid runs under
# all four transports (RAP, BBR-style, NADA-style, TCP baseline).
# Gates: (a) the multi-transport sweep replays bit-identically across
# thread counts (the campaign binary exits non-zero otherwise), (b) the
# RAP rows' per-session trace hashes are byte-identical to the RAP-only
# sweep — the trait seam and the transport axis must be invisible to
# the default transport — and (c) every transport shows up in the
# interop matrix summary. Non-RAP transports are sanity-gated (present
# and deterministic), not fingerprint-pinned: their traces are expected
# to evolve with their controllers.
plain=$(cargo run --release -p laqa-bench --bin campaign -- --smoke)
interop=$(cargo run --release -p laqa-bench --bin campaign -- --smoke \
  --transport rap,bbr,nada,tcp)
for row in 'T1/k2/seed7 ' 'T1/k2/seed21 ' 'T1/k4/seed7 ' 'T1/k4/seed21 '; do
  h_plain=$(grep -F "$row" <<<"$plain" | grep -oE '[0-9a-f]{16}' | tail -1)
  h_interop=$(grep -F "$row" <<<"$interop" | grep -oE '[0-9a-f]{16}' | tail -1)
  if [ -z "$h_plain" ] || [ "$h_plain" != "$h_interop" ]; then
    echo "FAIL: RAP session ${row% } trace hash changed under the transport axis" >&2
    echo "  rap-only sweep : $h_plain" >&2
    echo "  interop sweep  : $h_interop" >&2
    exit 1
  fi
done
for t in rap bbr nada tcp; do
  if ! grep -qE "^ *$t " <<<"$interop"; then
    echo "FAIL: transport $t missing from the interop matrix summary" >&2
    exit 1
  fi
done
echo "interop smoke ok: RAP rows bit-identical, all four transports deterministic"

echo "== 11/11 hostile-network (TraceLink) smoke =="
# The hostile-corpus axis: the smoke grid re-run on schedule-driven
# bottlenecks (LTE capacity swings, on-off bufferbloat, diurnal ramp,
# bonded two-path striping). Gates: (a) the hostile sweep replays
# bit-identically across thread counts (the campaign binary exits
# non-zero otherwise), (b) two consecutive runs print the same campaign
# fingerprint — trace generation is a pure function of the seed — and
# (c) every trace family shows up in the hostile damage summary.
hostile_a=$(cargo run --release -p laqa-bench --bin campaign -- --smoke \
  --trace lte,bloat,diurnal,bonded)
hostile_fp_a=$(grep -oE 'fingerprint [0-9a-f]{16}' <<<"$hostile_a")
hostile_fp_b=$(cargo run --release -p laqa-bench --bin campaign -- --smoke \
  --trace lte,bloat,diurnal,bonded | grep -oE 'fingerprint [0-9a-f]{16}')
if [ -z "$hostile_fp_a" ] || [ "$hostile_fp_a" != "$hostile_fp_b" ]; then
  echo "FAIL: hostile campaign fingerprints diverge between runs" >&2
  echo "  run A: $hostile_fp_a" >&2
  echo "  run B: $hostile_fp_b" >&2
  exit 1
fi
for t in lte bloat diurnal bonded; do
  if ! grep -qE "^ *$t " <<<"$hostile_a"; then
    echo "FAIL: trace family $t missing from the hostile damage summary" >&2
    exit 1
  fi
done
echo "hostile smoke ok: all four trace families deterministic: $hostile_fp_a"

echo "verify OK"
