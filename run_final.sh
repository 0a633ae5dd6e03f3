#!/bin/bash
# run_phase records the status of the command, not of tee.
set -o pipefail
cd "$(dirname "$0")"
mkdir -p results/logs
export GENIEX_THREADS="${GENIEX_THREADS:-$(nproc)}"
# See run_figs.sh: artifact-store mode for warm reruns.
export GENIEX_STORE="${GENIEX_STORE:-readwrite}"
echo "GENIEX_THREADS=$GENIEX_THREADS GENIEX_STORE=$GENIEX_STORE" >> results/logs/progress.txt
# Wall time and (when /usr/bin/time exists) peak RSS per phase go to
# the progress ledger; see run_figs.sh for the per-binary version.
run_phase() {
  local label=$1 out=$2
  shift 2
  local t0=$SECONDS rss="" status
  if [ -x /usr/bin/time ]; then
    /usr/bin/time -v -o "results/logs/$label.time" "$@" 2>&1 | tee "$out" > /dev/null
    status=$?
    rss=$(awk -F': ' '/Maximum resident set size/ {print $2}' "results/logs/$label.time")
  else
    "$@" 2>&1 | tee "$out" > /dev/null
    status=$?
  fi
  echo "=== $label done $(date +%H:%M:%S) exit $status wall $((SECONDS - t0))s peak_rss ${rss:-?}kB ===" >> results/logs/progress.txt
}
run_phase tests test_output.txt cargo test --workspace
run_phase bench bench_output.txt cargo bench --workspace

# Optional serve benchmark: start the inference server with one
# compute thread, wait for the READY line, run the canonical paired
# single/batched comparison (DESIGN.md §14), and drain on SIGTERM.
# Writes results/BENCH_serve.json.
if [ "${GENIEX_SERVE_BENCH:-0}" = "1" ]; then
  cargo build --release -p geniex-serve -p geniex-bench --bin geniex-serve --bin loadgen \
    >> results/logs/progress.txt 2>&1
  GENIEX_THREADS=1 ./target/release/geniex-serve > results/logs/serve_bench.log 2>&1 &
  SERVE_PID=$!
  serve_ready=0
  for _ in $(seq 1 90); do
    if GENIEX_THREADS=1 ./target/release/loadgen --ping 2>/dev/null; then
      serve_ready=1
      break
    fi
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 2
  done
  if [ "$serve_ready" = "1" ]; then
    run_phase serve_bench serve_bench_output.txt \
      env GENIEX_THREADS=1 ./target/release/loadgen --compare --reps 3 \
        --requests 600 --concurrency 96 --batch 64 --linger-us 1000
    kill -TERM "$SERVE_PID" 2>/dev/null
    wait "$SERVE_PID"
    echo "=== serve_bench drained exit $? ===" >> results/logs/progress.txt
  else
    echo "=== serve_bench SKIPPED: server never became ready ===" >> results/logs/progress.txt
    kill "$SERVE_PID" 2>/dev/null
  fi
fi
echo FINAL_DONE >> results/logs/progress.txt
