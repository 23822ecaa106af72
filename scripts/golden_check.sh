#!/usr/bin/env bash
# Golden-output check: a seeded `nvdb run` with --trace/--metrics must
# reproduce the committed reference outputs byte for byte. The engine's
# entire pipeline is deterministic in simulated time, so any diff here
# is a real behaviour change — commit new goldens only when the change
# is intended (regenerate with the command below, writing stdout to
# test/golden/run_ycsb_stdout.txt).
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bin/nvdb.exe bench/main.exe

rm -rf _golden_tmp
mkdir -p _golden_tmp

# The stdout echoes the trace/metrics paths, so the golden run always
# uses the same fixed relative paths under _golden_tmp/.
./_build/default/bin/nvdb.exe run -w ycsb -e nvcaracal --epochs 3 --txns 300 \
  --trace _golden_tmp/trace.json --metrics _golden_tmp/metrics.jsonl \
  > _golden_tmp/stdout.txt

diff -u test/golden/run_ycsb_stdout.txt _golden_tmp/stdout.txt
diff -u test/golden/run_ycsb_trace.json _golden_tmp/trace.json
diff -u test/golden/run_ycsb_metrics.jsonl _golden_tmp/metrics.jsonl

# Three more seeded runs, stdout only. The YCSB run above never hits
# the cache, so these pin what it cannot see: cache fills (SmallBank),
# deletes, counter draws and inserts (TPC-C), and Aria's snapshot
# execution with deferrals.
for spec in "smallbank:-w smallbank" "tpcc:-w tpcc" "aria_ycsb:-e aria -w ycsb"; do
  name=${spec%%:*}
  # shellcheck disable=SC2086
  ./_build/default/bin/nvdb.exe run ${spec#*:} --epochs 3 --txns 300 \
    > "_golden_tmp/run_${name}_stdout.txt"
  diff -u "test/golden/run_${name}_stdout.txt" "_golden_tmp/run_${name}_stdout.txt"
done

# Two seeded fuzz campaigns: crash/recovery with media faults, and the
# plain crash-recovery campaign (every fifth iteration an in-process
# routed cluster). Each prints one line per iteration plus totals.
./_build/default/bin/nvdb.exe fuzz --faults --seed 3 --iterations 20 \
  > _golden_tmp/fuzz_faults_seed3_stdout.txt
diff -u test/golden/fuzz_faults_seed3_stdout.txt _golden_tmp/fuzz_faults_seed3_stdout.txt
./_build/default/bin/nvdb.exe fuzz --iterations 60 --seed 7 > _golden_tmp/fuzz_seed7_stdout.txt
diff -u test/golden/fuzz_seed7_stdout.txt _golden_tmp/fuzz_seed7_stdout.txt

# Front-end golden: the serving pipeline driven deterministically in
# process (seeded clients, manual tick clock — `nvdb serve-sim`). Only
# simulated-clock/tick-valued fields appear in this output; wall-clock
# data (per-proc latency percentiles, domain telemetry) is deliberately
# kept out of the metrics registry and served via the Stats wire
# message instead, so these files stay byte-stable.
./_build/default/bin/nvdb.exe serve-sim -w ycsb --clients 8 --txns 100 \
  --batch-target 128 --deadline-ticks 4 \
  --metrics _golden_tmp/servesim_metrics.jsonl > _golden_tmp/servesim_stdout.txt

diff -u test/golden/servesim_ycsb_stdout.txt _golden_tmp/servesim_stdout.txt
diff -u test/golden/servesim_ycsb_metrics.jsonl _golden_tmp/servesim_metrics.jsonl

# The simulated paper axis: two experiments' tables, without their
# "(… took …s wall)" line, the one host-time reading in the output.
# Regenerate with:
#   ./_build/default/bench/main.exe --only fig8 | grep -v '^(.* took .*s wall)$'
for fig in fig8 fig11; do
  ./_build/default/bench/main.exe --only "$fig" | grep -v '^(.* took .*s wall)$' \
    > "_golden_tmp/bench_$fig.txt"
  diff -u "test/golden/bench_$fig.txt" "_golden_tmp/bench_$fig.txt"
done

rm -rf _golden_tmp
echo "golden outputs byte-identical"
