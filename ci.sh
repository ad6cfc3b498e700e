#!/bin/sh
# CI gate: build everything, run the test suites, run every example
# twice (same output, exit 0, and the first run byte for byte equal to
# results/examples/<name>.txt), replay the repository benchmark's full
# windows against perfbench/golden.json, check the fast-path benchmarks
# against the committed baseline (BENCH_PR15.json), verify the
# sharded-execution determinism contract (shards=N byte-identical to
# shards=1), check that fuzz and ablation output does not depend on
# what else ran in the process, compare the placement gate's --jobs 1
# fuzz lines (five families, concatenated) byte for byte with
# results/fuzz_jobs1.txt, compare rc_sim zipf --fast, smp --fast, the
# sweep --fast --jobs 1 report and rc_sim trace byte for byte with
# results/zipf_fast.txt, smp_fast.txt, sweep_fast.json and trace.txt,
# and compare the paper's figures and tables (rc_sim all --fast, less
# Table 1's host-time block) byte for byte with
# results/rc_sim_all_fast.txt.  A deliberate model change regenerates
# each committed file with the command that writes it here and lists
# what moved.  Referenced from README.md "Install and build".
set -eu
cd "$(dirname "$0")"

echo "== dune build @all"
dune build @all

echo "== dune runtest"
dune runtest

echo "== examples (each must exit 0, print the same output on a second run, and print results/examples/<name>.txt)"
for src in examples/*.ml; do
  name=$(basename "$src" .ml)
  _build/default/examples/"$name".exe > "${TMPDIR:-/tmp}/rc-example-$name.1"
  _build/default/examples/"$name".exe > "${TMPDIR:-/tmp}/rc-example-$name.2"
  cmp "${TMPDIR:-/tmp}/rc-example-$name.1" "${TMPDIR:-/tmp}/rc-example-$name.2"
  cmp "${TMPDIR:-/tmp}/rc-example-$name.1" results/examples/"$name".txt
done

echo "== perfbench output check (full windows at seeds 1 and 7; every repetition must match golden.json)"
# dune runtest replays only tiny windows at seed 1.  run.py exits 1 when
# any repetition's simulated statistics differ from the recorded ones.
for seed in 1 7; do
  for w in conn-containers zipf-flash cluster-hold; do
    python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds 0 > /dev/null
  done
done

echo "== bench smoke (tiny quotas; executes the harness, gates nothing)"
dune exec bench/main.exe -- --json --smoke --label ci-smoke > /dev/null

echo "== dune build @bench-check"
dune build @bench-check

echo "== first-to-latest baseline trend (informational, never fails)"
dune exec bench/compare.exe -- BENCH_PR1.json BENCH_PR15.json --threshold 1000 || true

echo "== sweep gate (the serial report must print results/sweep_fast.json, and 2 jobs the same bytes)"
dune exec bin/rc_sim.exe -- sweep --fast --jobs 1 --json-out "${TMPDIR:-/tmp}/rc-sweep-j1.json"
dune exec bin/rc_sim.exe -- sweep --fast --jobs 2 --json-out "${TMPDIR:-/tmp}/rc-sweep-j2.json"
cmp "${TMPDIR:-/tmp}/rc-sweep-j1.json" results/sweep_fast.json
cmp "${TMPDIR:-/tmp}/rc-sweep-j1.json" "${TMPDIR:-/tmp}/rc-sweep-j2.json"

echo "== trace gate (rc_sim trace must print results/trace.txt, also while exporting its trace)"
dune exec bin/rc_sim.exe -- trace > "${TMPDIR:-/tmp}/rc-trace.txt"
cmp "${TMPDIR:-/tmp}/rc-trace.txt" results/trace.txt
dune exec bin/rc_sim.exe -- trace --trace-out "${TMPDIR:-/tmp}/rc-trace.jsonl" > "${TMPDIR:-/tmp}/rc-trace-export.txt"
cmp "${TMPDIR:-/tmp}/rc-trace-export.txt" results/trace.txt

echo "== sharded determinism (cluster oracle at shards=4 must match shards=1 byte-for-byte)"
dune exec bin/rc_sim.exe -- cluster --fast --machines 4 --shards 1 \
  --json-out "${TMPDIR:-/tmp}/rc-cluster-s1.json" > /dev/null
dune exec bin/rc_sim.exe -- cluster --fast --machines 4 --shards 4 \
  --json-out "${TMPDIR:-/tmp}/rc-cluster-s4.json" > /dev/null
cmp "${TMPDIR:-/tmp}/rc-cluster-s1.json" "${TMPDIR:-/tmp}/rc-cluster-s4.json"

echo "== fuzz smoke (fixed seeds, invariants armed, 2 jobs)"
dune exec bin/rc_sim.exe -- fuzz --seeds 5 --jobs 2

echo "== fuzz smoke at 2 and 4 processors (same seeds, per-CPU laws armed)"
dune exec bin/rc_sim.exe -- fuzz --seeds 3 --cpus 2 --jobs 2
dune exec bin/rc_sim.exe -- fuzz --seeds 3 --cpus 4 --jobs 2

echo "== zipf fuzz determinism (large-Zipf corpora, arena cache laws armed; 2 jobs must print the serial lines)"
# Two domains race to intern the same /zipf/%d paths, so doc ids differ
# from run to run; the results must not.  The sort is needed because the
# two print in different fixed orders: seed-major at --jobs 1, mode-major
# batches at --jobs 2.
dune exec bin/rc_sim.exe -- fuzz --seeds 8 --zipf --jobs 1 > "${TMPDIR:-/tmp}/rc-fuzz-zipf-j1.txt"
dune exec bin/rc_sim.exe -- fuzz --seeds 8 --zipf --jobs 2 > "${TMPDIR:-/tmp}/rc-fuzz-zipf-j2.txt"
sort "${TMPDIR:-/tmp}/rc-fuzz-zipf-j1.txt" > "${TMPDIR:-/tmp}/rc-fuzz-zipf-j1.sorted"
sort "${TMPDIR:-/tmp}/rc-fuzz-zipf-j2.txt" > "${TMPDIR:-/tmp}/rc-fuzz-zipf-j2.sorted"
cmp "${TMPDIR:-/tmp}/rc-fuzz-zipf-j1.sorted" "${TMPDIR:-/tmp}/rc-fuzz-zipf-j2.sorted"

echo "== zipf experiment gate (2e4-doc corpus, flash crowd, invariants armed; must print results/zipf_fast.txt)"
dune exec bin/rc_sim.exe -- zipf --fast > "${TMPDIR:-/tmp}/rc-zipf-fast.txt"
cmp "${TMPDIR:-/tmp}/rc-zipf-fast.txt" results/zipf_fast.txt

echo "== cluster fuzz smoke (2 and 4 machines behind the balancer, rollup law armed)"
# The 4-machine run also shards each scenario: its window batches are
# submitted from inside the --jobs batch and run on that scenario's domain.
dune exec bin/rc_sim.exe -- fuzz --seeds 4 --machines 2 --jobs 2
dune exec bin/rc_sim.exe -- fuzz --seeds 4 --machines 4 --shards 4 --jobs 2

echo "== sharded cluster fuzz determinism (same scenarios over 4 event cores must print the unsharded lines)"
dune exec bin/rc_sim.exe -- fuzz --seeds 3 --machines 4 --shards 1 > "${TMPDIR:-/tmp}/rc-fuzz-cluster-s1.txt"
dune exec bin/rc_sim.exe -- fuzz --seeds 3 --machines 4 --shards 4 > "${TMPDIR:-/tmp}/rc-fuzz-cluster-s4.txt"
cmp "${TMPDIR:-/tmp}/rc-fuzz-cluster-s1.txt" "${TMPDIR:-/tmp}/rc-fuzz-cluster-s4.txt"

echo "== cluster oracle gate (M/G/1-PS closed form within 5% at >= 1e5 concurrent conns, sharded)"
dune exec bin/rc_sim.exe -- cluster --check --shards 8 > /dev/null

echo "== SMP experiments gate (steering livelock confinement + sharded fixed shares; must print results/smp_fast.txt)"
dune exec bin/rc_sim.exe -- smp --fast > "${TMPDIR:-/tmp}/rc-smp-fast.txt"
cmp "${TMPDIR:-/tmp}/rc-smp-fast.txt" results/smp_fast.txt

echo "== fuzz self-test (planted mis-charge must be caught; zero seeds is a usage error)"
status=0
dune exec bin/rc_sim.exe -- fuzz --seeds 0 > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ]
dune exec bin/rc_sim.exe -- fuzz --seed 1 --mode rc --inject mischarge \
  --trace-out "${TMPDIR:-/tmp}/rc-fuzz-selftest.trace.jsonl"

echo "== placement gate (the same fuzz lines at --jobs 1, at --jobs 2 and with each seed alone in its own process)"
# A run is a pure function of its inputs: nothing a scenario prints may
# depend on what ran before it in the process or on which domain ran it.
# Each family's --jobs 1 output is also appended to rc-fuzz-j1.txt for
# the fuzz gate below.
rc_sim=_build/default/bin/rc_sim.exe
tmp="${TMPDIR:-/tmp}"
: > "$tmp/rc-fuzz-j1.txt"
placement () {
  seeds=$1
  shift
  "$rc_sim" fuzz --seeds "$seeds" --jobs 1 "$@" > "$tmp/rc-place-j1.out"
  cat "$tmp/rc-place-j1.out" >> "$tmp/rc-fuzz-j1.txt"
  "$rc_sim" fuzz --seeds "$seeds" --jobs 2 "$@" > "$tmp/rc-place-j2.out"
  : > "$tmp/rc-place-alone.out"
  s=1
  while [ "$s" -le "$seeds" ]; do
    "$rc_sim" fuzz --seed "$s" "$@" >> "$tmp/rc-place-alone.out"
    s=$((s + 1))
  done
  for run in j1 j2 alone; do
    grep '^seed' "$tmp/rc-place-$run.out" | LC_ALL=C sort > "$tmp/rc-place-$run.sorted"
  done
  cmp "$tmp/rc-place-j1.sorted" "$tmp/rc-place-j2.sorted"
  cmp "$tmp/rc-place-j1.sorted" "$tmp/rc-place-alone.sorted"
}
placement 30
placement 30 --cpus 2
placement 30 --cpus 4
placement 30 --zipf
placement 5 --machines 4

echo "== fuzz gate (the five families' --jobs 1 lines must print results/fuzz_jobs1.txt)"
cmp "$tmp/rc-fuzz-j1.txt" results/fuzz_jobs1.txt

echo "== ablation placement (rc_sim ablation --fast must print its section of rc_sim all --fast)"
"$rc_sim" ablation --fast > "$tmp/rc-ablation.txt"
"$rc_sim" all --fast > "$tmp/rc-all.txt"
lines=$(wc -l < "$tmp/rc-ablation.txt")
start=$(grep -n -x -F "$(head -n 1 "$tmp/rc-ablation.txt")" "$tmp/rc-all.txt" | head -n 1 | cut -d: -f1)
[ -n "$start" ]
tail -n +"$start" "$tmp/rc-all.txt" | head -n "$lines" > "$tmp/rc-all-ablation.txt"
cmp "$tmp/rc-ablation.txt" "$tmp/rc-all-ablation.txt"

echo "== science gate (the same rc_sim all --fast run must print results/rc_sim_all_fast.txt)"
# Table 1's block is cut: its last column is host wall clock.  A
# deliberate model change regenerates the file with the same command and
# lists what moved.
sed '/^== Table 1/,/^$/d' "$tmp/rc-all.txt" | cmp - results/rc_sim_all_fast.txt

echo "CI gate passed."
