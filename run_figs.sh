#!/bin/bash
# Regenerates every figure/ablation CSV. Per-binary stdout lands in
# results/logs/<bin>.log, the telemetry run manifest in
# results/logs/<bin>.jsonl, and a progress ledger with wall times in
# results/logs/progress.txt (truncated at the start of each run).
set -u -o pipefail
cd "$(dirname "$0")"
mkdir -p results/logs
# Worker-thread count for the shared pool (results are identical for
# any value; this only affects wall time).
export GENIEX_THREADS="${GENIEX_THREADS:-$(nproc)}"
# Artifact-store mode (off|read|readwrite; default readwrite). A cold
# run populates results/store/ with truth datasets, trained surrogates,
# and vision models; a warm rerun skips all dataset generation and
# training and produces byte-identical CSVs. GENIEX_STORE=off forces a
# from-scratch run.
export GENIEX_STORE="${GENIEX_STORE:-readwrite}"
: > results/logs/progress.txt
echo "GENIEX_THREADS=$GENIEX_THREADS GENIEX_STORE=$GENIEX_STORE" >> results/logs/progress.txt
# Each binary's manifest footer already records its own peak RSS (from
# /proc/self/status VmHWM); /usr/bin/time -v, when present, adds an
# external measurement of the whole process tree to the ledger.
have_time=""
[ -x /usr/bin/time ] && have_time=yes
for b in fig2_nf_analysis fig3_nonlinearity fig5_rmse fig7_design_space fig8_quantization fig9_bit_slicing validate_truth cost_report ablation_hidden ablation_sparsity ablation_mapping ablation_variations ablation_target ablation_ensemble; do
  echo "=== $b start $(date +%H:%M:%S) ===" >> results/logs/progress.txt
  t0=$SECONDS
  rss=""
  if [ -n "$have_time" ]; then
    /usr/bin/time -v -o results/logs/$b.time \
      cargo run -q --release -p geniex-bench --bin $b > results/logs/$b.log 2>&1
    status=$?
    rss=$(awk -F': ' '/Maximum resident set size/ {print $2}' results/logs/$b.time)
  else
    cargo run -q --release -p geniex-bench --bin $b > results/logs/$b.log 2>&1
    status=$?
  fi
  echo "=== $b done $(date +%H:%M:%S) exit $status wall $((SECONDS - t0))s peak_rss ${rss:-?}kB ===" >> results/logs/progress.txt
done
# Store inventory for the record (what a rerun will reuse).
cargo run -q --release -p geniex-bench --bin store_maint -- ls > results/logs/store_ls.log 2>&1
echo ALL_FIGS_DONE >> results/logs/progress.txt
