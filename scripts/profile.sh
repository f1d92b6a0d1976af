#!/usr/bin/env bash
# Profile one example through the full pipeline, with the LP memo cache
# on.
#
# Writes a Chrome trace-event file and prints the per-span flame table
# plus the memo hit rate to stderr. Load the trace in
# https://ui.perfetto.dev or chrome://tracing — one track per worker
# thread, pipeline stages as root spans.
#
# With --mem (anywhere in the arguments), the profile also prints the
# memory flame table: allocations, bytes, peak live bytes and the max
# coefficient bit-width attributed to each span.
#
# Usage: scripts/profile.sh <example1|example2|example3|example4> [trace-file] [workers] [--mem]
set -euo pipefail
cd "$(dirname "$0")/.."

mem_flag=""
args=()
for arg in "$@"; do
    if [ "$arg" = "--mem" ]; then
        mem_flag="--mem"
    else
        args+=("$arg")
    fi
done
set -- "${args[@]:-}"

example="${1:?usage: scripts/profile.sh <example1..example4> [trace-file] [workers] [--mem]}"
trace_file="${2:-/tmp/aov-${example}-trace.json}"
workers="${3:-8}"

cargo build --release --offline --workspace

# shellcheck disable=SC2086 # $mem_flag is deliberately unquoted-empty
./target/release/aov "$example" --memoize --workers "$workers" \
    --profile $mem_flag --trace "$trace_file" --compact > /dev/null

./target/release/aov --check-trace "$trace_file"
echo "Load $trace_file in https://ui.perfetto.dev to explore the run."
