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

echo "== cargo doc -D warnings"
# A broken or private intra-doc link (say, to a deleted item) fails the
# build of the API docs.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== no LP solver under aov-ir and aov-polyhedra"
# Emptiness, redundancy and generators are read off the double
# description, so neither crate links aov-lp outside its tests.
for crate in aov-polyhedra aov-ir; do
    deps="$(cargo tree --offline --locked -e normal -p "$crate")"
    if grep -q "aov-lp" <<< "$deps"; then
        echo "$crate depends on aov-lp:"
        echo "$deps"
        exit 1
    fi
done

echo "== cargo test -q --offline"
# Among them, crates/bench/tests/golden_all_figures.rs pins the whole
# `all_figures --quick` rendering byte for byte: a figure change fails
# here.
cargo test -q --offline --workspace

echo "== root lib tests, three runs in a row"
# The lib tests run in parallel in one process; each campaign and run
# charges its own telemetry context. Running them repeatedly keeps a
# cross-test leak from passing by luck.
for _ in 1 2 3; do
    cargo test -q --offline --lib
done

echo "== trace profile tests, three runs in a row"
# The tracing switch is process-wide, so a test running untraced code
# while another has tracing on records spans too. Each traced test
# collects its spans in its own context; running the binary repeatedly
# keeps a leak into a test's drain from passing by luck.
for _ in 1 2 3; do
    cargo test -q --offline -p aov-engine --test trace_profile
done

echo "== telemetry overhead tests, three runs in a row"
# The derived recorder overhead is a ratio of two timings against a 1%
# budget; running the binary repeatedly keeps a ratio that passes only
# on a fast draw from passing by luck.
for _ in 1 2 3; do
    cargo test -q --offline -p aov-engine --test telemetry_overhead
done

echo "== numeric tests in release"
# Release builds wrap on integer overflow instead of panicking, so the
# exact kernel's property and boundary tests also run there.
cargo test --release -q --offline -p aov-numeric

echo "== LP tests in release"
# The differential oracle (the nonzero-driven simplex against the dense
# reference, pivot for pivot) also runs where integer overflow wraps.
cargo test --release -q --offline -p aov-lp

echo "== polyhedra tests in release"
# The integer DD, Fourier–Motzkin and parameterized-vertex kernels, the
# DD's saturation bitsets, the DD redundancy reduction and emptiness
# test and the face enumeration, with their oracles (the rational
# reference kernels they replaced, row for row on the corpus and past
# 2^63; aov-lp's LPs, a dev-dependency of aov-polyhedra, for emptiness
# and for every row the reduction drops or keeps; the basis enumeration;
# the chamber recursion; the orthant query, every sign pattern against
# the LP over the polyhedron and its sign rows; the box test that skips
# the recession-cone DD, a pass implying the DD's "bounded" on the
# corpus and random row sets), also run where integer
# overflow wraps, as do
# aov-schedule's tests (the linearization multiplies the vertices'
# integer generator rows; the tie-rule oracle, the scheduler's answer on
# the corpus against the old auxiliary-row model's norm and the
# sequential-ILP lexicographic minimum), the pinned per-example LP and
# polyhedra work counts and aov-core's tests:
# among them the orthant oracle, every orthant of Problems 1 and 3
# decided in v-space against its unreduced ILP on the corpus, the
# emptiness oracle, the DD against the LP of `check::lp_model` on every
# dependence candidate and pair of writers of the corpus, and the
# certificate oracle, Problem 2's certified answer at every corpus AOV
# and example1's UOV against its ILP with the storage rows, and the
# forms-certificate oracle, a pass of the storage forms at a vector
# implying the exact certificate at every corpus AOV, shortest UOV and
# Problem 1 answer.
cargo test --release -q --offline -p aov-polyhedra
cargo test --release -q --offline -p aov-schedule
cargo test --release -q --offline -p aov-core
cargo test --release -q --offline -p aov-engine --test lp_work

echo "== interp tests in release"
# The lowered interpreter's checked index, bound and time-key arithmetic
# and its differential tests against the HashMap oracle also run where
# unchecked integer overflow would wrap.
cargo test --release -q --offline -p aov-interp

echo "== perfbench selftest"
# Two processes per workload must agree on every solver count and, from
# the second pass on, on every allocation count.
python3 perfbench/run.py --selftest --seed 1

echo "== trace smoke"
trace_file="$(mktemp /tmp/aov-trace-smoke.XXXXXX.json)"
chaos_file="$(mktemp /tmp/aov-chaos-smoke.XXXXXX.json)"
trap 'rm -f "$trace_file" "$chaos_file"' EXIT
./target/release/aov example1 --memoize --trace "$trace_file" --profile \
    --compact > /dev/null
./target/release/aov --check-trace "$trace_file"

echo "== figures smoke"
# all_figures writes target/figures.json under its working directory,
# creating target/ when it is missing: from a fresh directory it must
# exit 0 and leave the file.
figures_dir="$(mktemp -d /tmp/aov-figures-smoke.XXXXXX)"
trap 'rm -f "$trace_file" "$chaos_file"; rm -rf "$figures_dir"' EXIT
figures_bin="$PWD/target/release/all_figures"
(cd "$figures_dir" && "$figures_bin" --quick > /dev/null)
if [ ! -s "$figures_dir/target/figures.json" ]; then
    echo "figures smoke: all_figures --quick wrote no target/figures.json"
    exit 1
fi

echo "== worker invariance"
# Only the machine stage spreads over threads, and each of its points is
# an independent simulation, so a report depends on the program alone:
# with the wall-clock fields and the echoed worker count removed,
# --workers 1 and --workers 3 agree, with and without --machine.
report_without_timings() {
    ./target/release/aov "$@" --compact \
        | sed -E 's/"(total_)?micros":[0-9]+,?//g; s/"workers":[0-9]+,//'
}
for run in example1 example2 example3 example4 \
    "example2 --machine" "example3 --machine"; do
    # $run is split on purpose: an example name and its flags.
    # shellcheck disable=SC2086
    if [ "$(report_without_timings $run --workers 1)" != "$(report_without_timings $run --workers 3)" ]; then
        echo "worker invariance: '$run' reports differ between --workers 1 and 3"
        exit 1
    fi
done

echo "== budget transparency"
# A budget only counts: caps the run never reaches leave the report as
# it is, orthant ILPs and pivots included, once the wall-clock fields,
# the echoed budget and the allocator's peak (a high-water mark over
# the whole process, which the longer command line itself moves) are
# removed.
report_without_budget() {
    report_without_timings "$@" \
        | sed -E 's/"budget":\{[^}]*\},?//; s/"peak":[0-9]+,?//g'
}
for ex in example1 example2 example3 example4; do
    if [ "$(report_without_budget "$ex" --workers 1)" != \
        "$(report_without_budget "$ex" --workers 1 --budget-pivots 1000000000 --budget-nodes 1000000000)" ]; then
        echo "budget transparency: $ex: a non-tripping budget changed the report"
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
trap 'rm -f "$trace_file" "$chaos_file" "$bad_file"; rm -rf "$figures_dir"' EXIT
printf 'program broken;\nstmt S(i) {\n  1 <= i <= ;\n}\n' > "$bad_file"
status=0
./target/release/aov run "$bad_file" > /dev/null 2> /dev/null || status=$?
if [ "$status" -ne 64 ]; then
    echo "parse round-trip: malformed file: expected exit 64, got $status"
    exit 1
fi

echo "== profile smoke"
# One profiled run must produce a schema-valid aov-profile/1 artifact
# (aov inspect --check picks the schema from the tag) and render
# without error.
profile_file="$(mktemp /tmp/aov-profile-smoke.XXXXXX.json)"
trap 'rm -f "$trace_file" "$chaos_file" "$bad_file" "$profile_file"; rm -rf "$figures_dir"' EXIT
./target/release/aov example1 --memoize --profile-out "$profile_file" \
    > /dev/null 2> /dev/null
./target/release/aov inspect "$profile_file" --check
./target/release/aov inspect "$profile_file" > /dev/null

echo "== fuzz smoke"
# A quick differential campaign must complete cleanly: exit 0 means
# every case is ok or legitimately degraded — zero oracle mismatches,
# zero panics, zero schema-invalid reports.
repro_dir="$(mktemp -d /tmp/aov-fuzz-smoke.XXXXXX)"
trap 'rm -f "$trace_file" "$chaos_file" "$bad_file" "$profile_file"; rm -rf "$figures_dir" "$repro_dir"' EXIT
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
trap 'rm -f "$trace_file" "$chaos_file" "$bad_file" "$profile_file"; rm -rf "$figures_dir" "$repro_dir" "$diag_dir"' EXIT
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
# would satisfy the solve without spending pivots). example1 spends 15
# pivots (schedule 3, problem1 3, aov 9), budgeted or not, so a budget
# of 12 trips inside Problem 3's ILP, at its 7th pivot.
serve_diag="$(mktemp -d /tmp/aov-serve-smoke.XXXXXX)"
serve_log="$(mktemp /tmp/aov-serve-smoke-log.XXXXXX)"
serve_chaos_out="$(mktemp /tmp/aov-serve-smoke-chaos.XXXXXX.json)"
trap 'rm -f "$trace_file" "$chaos_file" "$bad_file" "$profile_file" "$serve_log" "$serve_chaos_out"; rm -rf "$figures_dir" "$repro_dir" "$diag_dir" "$serve_diag"' EXIT
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
    --budget-pivots 12 > /dev/null 2> /dev/null & c_budget=$!
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

echo "CI green."
