#!/bin/bash
# Regenerates every results/*.txt artifact (run from the repo root, release
# binaries must be built: cargo build --release -p hwm-bench).
#
# JOBS controls the worker count (default: all cores). Every table is
# byte-identical for any JOBS value — work items are seeded per index, so
# the artifacts do not depend on the machine's parallelism. Nothing here is
# timed: run time is measured by hwm_perf (README "Benchmark").
#
# PROFILE=1 additionally captures a JSONL trace per binary under
# results/trace/ (gitignored) and prints each binary's per-phase breakdown
# to stderr; summarize the traces afterwards with
# ./target/release/profile.
set -u
mkdir -p results
JOBS="${JOBS:-0}" # 0 = auto (all cores)

# trace_args <name>: the uniform profiling flags when PROFILE=1.
trace_args() {
  if [ "${PROFILE:-0}" = "1" ]; then
    echo "--profile --trace-out results/trace/$1.jsonl"
  fi
}

# run_step <artifact> <binary> [args...]: runs one binary into a temp file
# and only moves it over results/<artifact> on success. A failing binary
# therefore never leaves a truncated or partial artifact behind — the
# previous table (if any) survives and the script stops with a clear
# message instead of quietly "regenerating" garbage.
run_step() {
  artifact="$1"
  shift
  binary="$1"
  tmp="results/.${artifact}.tmp"
  "$@" > "$tmp"
  status=$?
  if [ "$status" -ne 0 ]; then
    rm -f "$tmp"
    echo "regen_results: '$binary' exited with status $status;" \
      "results/$artifact left untouched, aborting" >&2
    exit 1
  fi
  mv "$tmp" "results/$artifact"
}

run_step table1.txt ./target/release/table1 --jobs "$JOBS" $(trace_args table1)
run_step table2.txt ./target/release/table2 --jobs "$JOBS" $(trace_args table2)
run_step table4.txt ./target/release/table4 --jobs "$JOBS" $(trace_args table4)
run_step fig8.txt ./target/release/fig8 --jobs "$JOBS" $(trace_args fig8)
run_step analysis.txt ./target/release/analysis $(trace_args analysis)
run_step passive.txt ./target/release/passive $(trace_args passive)
run_step ablations.txt ./target/release/ablations --runs 20 --jobs "$JOBS" $(trace_args ablations)
run_step attack_table.txt ./target/release/attack_table --cap 2000000 --jobs "$JOBS" $(trace_args attack_table)
run_step table3.txt ./target/release/table3 --runs "${TABLE3_RUNS:-100}" --cap 2000000 --jobs "$JOBS" $(trace_args table3)
# PROFILE=1 additionally dumps the serving run's Prometheus-style
# exposition (timing histograms included, so gitignored like the traces).
metrics_args() {
  if [ "${PROFILE:-0}" = "1" ]; then
    echo "--metrics-out results/trace/serve_metrics.prom"
  fi
}

run_step serve_bench.txt ./target/release/serve_bench --clients 32 --jobs "$JOBS" $(trace_args serve_bench) $(metrics_args)
run_step monitor.txt ./target/release/hwm_monitor --once --jobs "$JOBS"
run_step recovery.txt ./target/release/crash_sim --jobs "$JOBS" $(trace_args crash_sim)
run_step alerts.txt ./target/release/crash_sim --campaign clone --jobs "$JOBS" $(trace_args alert_sim)
mkdir -p results/trace
run_step cluster.txt ./target/release/cluster_bench --jobs "$JOBS" --traces-out results/trace/cluster_traces.jsonl $(trace_args cluster_bench)
# The slowest span trees of the cluster run above (the failover trace
# ranks first by logical tick-duration). The JSONL dump is gitignored
# intermediate state; the rendering is the golden.
run_step traces.txt ./target/release/hwm_traces --input results/trace/cluster_traces.jsonl --slowest 5
echo "all results regenerated"
if [ "${PROFILE:-0}" = "1" ]; then
  ./target/release/profile
fi
