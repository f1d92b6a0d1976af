#!/usr/bin/env bash
# Hermetic CI gate: format, lint, build, test — all offline.
#
# The workspace has zero external dependencies by design (see
# crates/support), so every step runs with --offline and must succeed
# with no registry access at all.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== cargo test -q --offline"
cargo test -q --offline --workspace

echo "== root lib tests, three runs in a row"
# The lib tests run in parallel in one process; each campaign and run
# charges its own telemetry context. Running them repeatedly keeps a
# cross-test leak from passing by luck.
for _ in 1 2 3; do
    cargo test -q --offline --lib
done

echo "== numeric tests in release"
# Release builds wrap on integer overflow instead of panicking, so the
# exact kernel's property and boundary tests also run there.
cargo test --release -q --offline -p aov-numeric

echo "== LP tests in release"
# The differential oracle (the nonzero-driven simplex against the dense
# reference, pivot for pivot) also runs where integer overflow wraps.
cargo test --release -q --offline -p aov-lp

echo "== perfbench selftest"
# Two processes per workload must agree on every solver count and, from
# the second pass on, on every allocation count.
python3 perfbench/run.py --selftest --seed 1

echo "== trace smoke"
trace_file="$(mktemp /tmp/aov-trace-smoke.XXXXXX.json)"
bench_file="$(mktemp /tmp/aov-bench-smoke.XXXXXX.json)"
chaos_file="$(mktemp /tmp/aov-chaos-smoke.XXXXXX.json)"
trap 'rm -f "$trace_file" "$bench_file" "$chaos_file"' EXIT
./target/release/aov example1 --memoize --trace "$trace_file" --profile \
    --compact > /dev/null
./target/release/aov --check-trace "$trace_file"

echo "== bench smoke"
# Tiny observatory run: one example, two repetitions, reduced machine
# sweeps. Produces an artifact, validates it against the schema, and
# exercises the comparator in no-baseline mode (nothing to gate on).
./target/release/aov bench --examples example1 --runs 2 --quick \
    --out "$bench_file"
./target/release/aov bench --check "$bench_file"

echo "== trend smoke"
# Two quick single-example artifacts from the same binary must trend
# cleanly: `aov trend` exits 0, and the emitted aov-trend/1 document
# validates and renders through `aov inspect`. A second recording of
# identical code drifting or stepping would mean the classifier (or
# the calibration normalization) is broken.
bench_file2="$(mktemp /tmp/aov-bench-smoke2.XXXXXX.json)"
trend_file="$(mktemp /tmp/aov-trend-smoke.XXXXXX.json)"
trap 'rm -f "$trace_file" "$bench_file" "$bench_file2" "$trend_file" "$chaos_file"' EXIT
./target/release/aov bench --examples example1 --runs 2 --quick \
    --no-figures --out "$bench_file2" > /dev/null 2> /dev/null
./target/release/aov trend "$bench_file" "$bench_file2" --out "$trend_file"
if grep -q '"kind": "step"\|"kind": "drift"' "$trend_file"; then
    echo "trend smoke: self-trend of identical code is not clean"
    exit 1
fi
./target/release/aov inspect "$trend_file" --check
./target/release/aov inspect "$trend_file" > /dev/null

echo "== worker invariance"
# Problems 1 and 3 solve their orthants in one sequential loop, so a
# report depends on the program alone: with the wall-clock fields and
# the echoed worker count removed, --workers 1 and --workers 3 agree.
report_without_timings() {
    ./target/release/aov "$1" --compact --workers "$2" \
        | sed -E 's/"(total_)?micros":[0-9]+,?//g; s/"workers":[0-9]+,//'
}
for n in 1 2 3 4; do
    if [ "$(report_without_timings "example$n" 1)" != "$(report_without_timings "example$n" 3)" ]; then
        echo "worker invariance: example$n reports differ between --workers 1 and 3"
        exit 1
    fi
done

echo "== chaos smoke"
# One injected fault per pipeline stage (plus a worker panic and a
# forced budget trip in the solver layers): every run must degrade —
# exit code 3, never an abort — and still emit a schema-valid report.
chaos_specs=(
    "site=pipeline.ir,kind=error,nth=0"
    "site=pipeline.dependences,kind=error,nth=0"
    "site=pipeline.legal_schedule,kind=error,nth=0"
    "site=pipeline.schedule,kind=error,nth=0"
    "site=pipeline.problem1,kind=error,nth=0"
    "site=pipeline.aov,kind=error,nth=0"
    "site=pipeline.problem2,kind=error,nth=0"
    "site=pipeline.storage_transform,kind=error,nth=0"
    "site=pipeline.codegen,kind=error,nth=0"
    "site=pipeline.equivalence,kind=error,nth=0"
    "site=aov.orthant,kind=panic,nth=0"
    "site=lp.ilp.node,kind=budget,nth=0"
)
for spec in "${chaos_specs[@]}"; do
    status=0
    AOV_CHAOS="$spec" ./target/release/aov example1 --workers 2 \
        > "$chaos_file" 2> /dev/null || status=$?
    if [ "$status" -ne 3 ]; then
        echo "chaos smoke: $spec: expected exit 3 (degraded), got $status"
        exit 1
    fi
    ./target/release/aov --check-report "$chaos_file"
done
# With injection disabled the same invocation is healthy.
status=0
./target/release/aov example1 --workers 2 > "$chaos_file" || status=$?
if [ "$status" -ne 0 ]; then
    echo "chaos smoke: fault-free run: expected exit 0, got $status"
    exit 1
fi
./target/release/aov --check-report "$chaos_file"

echo "== parse round-trip"
# Every corpus file must parse, print, and reparse to a fixed point
# (aov run --check), and a malformed file must produce a caret
# diagnostic with usage exit code 64, not a crash.
./target/release/aov run --check examples/*.aov
bad_file="$(mktemp /tmp/aov-bad-smoke.XXXXXX.aov)"
trap 'rm -f "$trace_file" "$bench_file" "$chaos_file" "$bad_file"' EXIT
printf 'program broken;\nstmt S(i) {\n  1 <= i <= ;\n}\n' > "$bad_file"
status=0
./target/release/aov run "$bad_file" > /dev/null 2> /dev/null || status=$?
if [ "$status" -ne 64 ]; then
    echo "parse round-trip: malformed file: expected exit 64, got $status"
    exit 1
fi

echo "== profile smoke"
# One profiled run must produce a schema-valid aov-profile/1 artifact
# (aov inspect --check picks the schema from the tag), render without
# error, and diff cleanly against itself: a self-comparison with zero
# regressions is the comparator's ground-truth invariant.
profile_file="$(mktemp /tmp/aov-profile-smoke.XXXXXX.json)"
trap 'rm -f "$trace_file" "$bench_file" "$chaos_file" "$bad_file" "$profile_file"' EXIT
./target/release/aov example1 --memoize --profile-out "$profile_file" \
    > /dev/null 2> /dev/null
./target/release/aov inspect "$profile_file" --check
./target/release/aov inspect "$profile_file" > /dev/null
./target/release/aov pdiff "$profile_file" "$profile_file" > /dev/null

echo "== fuzz smoke"
# A quick differential campaign must complete cleanly: exit 0 means
# every case is ok or legitimately degraded — zero oracle mismatches,
# zero panics, zero schema-invalid reports.
repro_dir="$(mktemp -d /tmp/aov-fuzz-smoke.XXXXXX)"
trap 'rm -f "$trace_file" "$bench_file" "$chaos_file" "$bad_file" "$profile_file"; rm -rf "$repro_dir"' EXIT
./target/release/aov fuzz --seed 1 --count 25 --quick \
    --repro-dir "$repro_dir" --compact > /dev/null

echo "== fuzz verdicts"
# The seed-42 campaign's verdict counts are pinned: a change that moves
# a case between ok and degraded, or adds a mismatch or a failure,
# fails here.
fuzz_verdicts="$(./target/release/aov fuzz --seed 42 --count 100 --compact 2> /dev/null \
    | grep -o '"verdicts":{[^}]*}' || true)"
if [ "$fuzz_verdicts" != '"verdicts":{"ok":59,"degraded":41,"mismatch":0,"failed":0}' ]; then
    echo "fuzz verdicts: expected ok 59, degraded 41, mismatch 0, failed 0; got ${fuzz_verdicts:-no summary}"
    exit 1
fi

echo "== diag smoke"
# One injected fault with --diag-dir armed must produce exactly one
# crash-diagnostic bundle that validates against the aov-diag/1 schema
# (aov inspect --check) and renders without error.
diag_dir="$(mktemp -d /tmp/aov-diag-smoke.XXXXXX)"
trap 'rm -f "$trace_file" "$bench_file" "$chaos_file" "$bad_file" "$profile_file"; rm -rf "$repro_dir" "$diag_dir"' EXIT
status=0
AOV_CHAOS="site=lp.simplex,kind=panic,nth=2" \
    ./target/release/aov example1 --workers 2 --diag-dir "$diag_dir" \
    > /dev/null 2> /dev/null || status=$?
if [ "$status" -ne 3 ]; then
    echo "diag smoke: expected exit 3 (degraded), got $status"
    exit 1
fi
bundles=("$diag_dir"/aov-diag-*.json)
if [ "${#bundles[@]}" -ne 1 ] || [ ! -f "${bundles[0]}" ]; then
    echo "diag smoke: expected exactly one bundle in $diag_dir, found: ${bundles[*]}"
    exit 1
fi
./target/release/aov inspect "${bundles[0]}" --check
./target/release/aov inspect "${bundles[0]}" > /dev/null

echo "== serve smoke"
# aovd on a random port serves three concurrent clients — a healthy
# solve (exit 0), a budget-tripped solve (degraded, exit 3), and a
# chaos-injected service panic (structured error frame, exit 2) — then
# answers a health probe and drains cleanly on SIGTERM. The daemon runs
# --no-memo so the budget trip stays deterministic (a warm shared tier
# would satisfy the solve without spending pivots).
serve_diag="$(mktemp -d /tmp/aov-serve-smoke.XXXXXX)"
serve_log="$(mktemp /tmp/aov-serve-smoke-log.XXXXXX)"
serve_chaos_out="$(mktemp /tmp/aov-serve-smoke-chaos.XXXXXX.json)"
trap 'rm -f "$trace_file" "$bench_file" "$chaos_file" "$bad_file" "$profile_file" "$serve_log" "$serve_chaos_out"; rm -rf "$repro_dir" "$diag_dir" "$serve_diag"' EXIT
./target/release/aov aovd --addr 127.0.0.1:0 --no-memo --workers 2 \
    --diag-dir "$serve_diag" > "$serve_log" 2> /dev/null &
aovd_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^aovd: listening on //p' "$serve_log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "serve smoke: daemon never reported a listen address"
    exit 1
fi
./target/release/aov client --addr "$addr" --example example1 \
    > /dev/null 2> /dev/null & c_healthy=$!
./target/release/aov client --addr "$addr" --example example1 \
    --budget-pivots 40 > /dev/null 2> /dev/null & c_budget=$!
./target/release/aov client --addr "$addr" --example example1 \
    --chaos site=serve.request,kind=panic \
    > "$serve_chaos_out" 2> /dev/null & c_chaos=$!
s_healthy=0; s_budget=0; s_chaos=0
wait "$c_healthy" || s_healthy=$?
wait "$c_budget" || s_budget=$?
wait "$c_chaos" || s_chaos=$?
if [ "$s_healthy" -ne 0 ]; then
    echo "serve smoke: healthy solve: expected exit 0, got $s_healthy"
    exit 1
fi
if [ "$s_budget" -ne 3 ]; then
    echo "serve smoke: budget-tripped solve: expected exit 3 (degraded), got $s_budget"
    exit 1
fi
if [ "$s_chaos" -ne 2 ]; then
    echo "serve smoke: chaos solve: expected exit 2 (error frame), got $s_chaos"
    exit 1
fi
if ! grep -q '"code": "fault"' "$serve_chaos_out"; then
    echo "serve smoke: chaos solve did not produce a structured fault frame"
    exit 1
fi
serve_bundles=("$serve_diag"/aov-diag-*.json)
if [ ! -f "${serve_bundles[0]}" ]; then
    echo "serve smoke: the injected service fault wrote no diagnostic bundle"
    exit 1
fi
./target/release/aov inspect "${serve_bundles[0]}" --check
# Capture before grepping: piping the live client into `grep -q` under
# pipefail races — grep exits at first match, the client takes SIGPIPE
# on its remaining output lines, and the pipeline reads as failed.
health_out="$(./target/release/aov client --addr "$addr" --health)"
if ! printf '%s' "$health_out" | grep -q '"status": "ok"'; then
    echo "serve smoke: post-fault health probe failed: $health_out"
    exit 1
fi
kill -TERM "$aovd_pid"
drain_status=0
wait "$aovd_pid" || drain_status=$?
if [ "$drain_status" -ne 0 ]; then
    echo "serve smoke: SIGTERM drain: expected exit 0, got $drain_status"
    exit 1
fi

echo "== telemetry smoke"
# aovd with the access log armed serves three clients (one
# budget-tripped, one following its solve live). The metrics verb must
# return a schema-valid aov-svcmetrics/1 document whose end-to-end p50
# is nonzero, the follow stream must yield at least one event frame,
# `aov top --once` must render, and the access log must validate
# line-by-line with one line per request.
telemetry_log="$(mktemp /tmp/aov-telemetry-log.XXXXXX)"
access_log="$(mktemp /tmp/aov-access-smoke.XXXXXX.jsonl)"
metrics_out="$(mktemp /tmp/aov-metrics-smoke.XXXXXX.json)"
watch_out="$(mktemp /tmp/aov-watch-smoke.XXXXXX)"
trap 'rm -f "$trace_file" "$bench_file" "$chaos_file" "$bad_file" "$profile_file" "$serve_log" "$serve_chaos_out" "$telemetry_log" "$access_log" "$access_log.1" "$metrics_out" "$watch_out"; rm -rf "$repro_dir" "$diag_dir" "$serve_diag"' EXIT
./target/release/aov aovd --addr 127.0.0.1:0 --no-memo --workers 2 \
    --access-log "$access_log" > "$telemetry_log" 2> /dev/null &
aovd2_pid=$!
addr2=""
for _ in $(seq 1 100); do
    addr2="$(sed -n 's/^aovd: listening on //p' "$telemetry_log")"
    [ -n "$addr2" ] && break
    sleep 0.1
done
if [ -z "$addr2" ]; then
    echo "telemetry smoke: daemon never reported a listen address"
    exit 1
fi
./target/release/aov client --addr "$addr2" --example example1 \
    > /dev/null 2> /dev/null & t_healthy=$!
./target/release/aov client --addr "$addr2" --example example1 \
    --budget-pivots 40 > /dev/null 2> /dev/null & t_budget=$!
./target/release/aov client --addr "$addr2" --example example1 --follow \
    > /dev/null 2> "$watch_out" & t_follow=$!
t1=0; t2=0; t3=0
wait "$t_healthy" || t1=$?
wait "$t_budget" || t2=$?
wait "$t_follow" || t3=$?
if [ "$t1" -ne 0 ] || [ "$t2" -ne 3 ] || [ "$t3" -ne 0 ]; then
    echo "telemetry smoke: client exits: healthy=$t1 (want 0), budget=$t2 (want 3), follow=$t3 (want 0)"
    exit 1
fi
if ! grep -q ' ns  t' "$watch_out"; then
    echo "telemetry smoke: --follow streamed no event frames"
    exit 1
fi
if ! grep -q 'watch ended (done)' "$watch_out"; then
    echo "telemetry smoke: --follow stream did not terminate with watch_end"
    exit 1
fi
./target/release/aov client --addr "$addr2" --metrics > "$metrics_out"
./target/release/aov inspect "$metrics_out" --check
if ! sed -n '/"name": "end_to_end"/,/"p50_ns"/p' "$metrics_out" \
    | grep -q '"p50_ns": [1-9]'; then
    echo "telemetry smoke: end_to_end p50 is zero or missing"
    exit 1
fi
./target/release/aov top "$addr2" --once > /dev/null
./target/release/aov inspect "$access_log" --check
if [ "$(grep -c '"schema":"aov-access/1"' "$access_log")" -lt 3 ]; then
    echo "telemetry smoke: access log is missing request lines:"
    cat "$access_log"
    exit 1
fi
kill -TERM "$aovd2_pid"
drain2_status=0
wait "$aovd2_pid" || drain2_status=$?
if [ "$drain2_status" -ne 0 ]; then
    echo "telemetry smoke: SIGTERM drain: expected exit 0, got $drain2_status"
    exit 1
fi

echo "CI green."
