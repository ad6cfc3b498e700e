#!/bin/sh
# CI gate: build everything, run the test suites, check the fast-path
# benchmarks against the committed baseline (BENCH_PR15.json), and verify
# the sharded-execution determinism contract (shards=N byte-identical to
# shards=1).  Referenced from README.md "Install and build".
set -eu
cd "$(dirname "$0")"

echo "== dune build @all"
dune build @all

echo "== dune runtest"
dune runtest

echo "== bench smoke (tiny quotas; executes the harness, gates nothing)"
dune exec bench/main.exe -- --json --smoke --label ci-smoke > /dev/null

echo "== dune build @bench-check"
dune build @bench-check

echo "== first-to-latest baseline trend (informational, never fails)"
dune exec bench/compare.exe -- BENCH_PR1.json BENCH_PR15.json --threshold 1000 || true

echo "== sweep smoke (2 jobs must match the serial report byte-for-byte)"
dune exec bin/rc_sim.exe -- sweep --fast --jobs 1 --json-out "${TMPDIR:-/tmp}/rc-sweep-j1.json"
dune exec bin/rc_sim.exe -- sweep --fast --jobs 2 --json-out "${TMPDIR:-/tmp}/rc-sweep-j2.json"
cmp "${TMPDIR:-/tmp}/rc-sweep-j1.json" "${TMPDIR:-/tmp}/rc-sweep-j2.json"

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

echo "== zipf experiment smoke (2e4-doc corpus, flash crowd, invariants armed)"
dune exec bin/rc_sim.exe -- zipf --fast > /dev/null

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

echo "== SMP experiments smoke (steering livelock confinement + sharded fixed shares)"
dune exec bin/rc_sim.exe -- smp --fast > /dev/null

echo "== fuzz self-test (planted mis-charge must be caught)"
dune exec bin/rc_sim.exe -- fuzz --seed 1 --mode rc --inject mischarge \
  --trace-out "${TMPDIR:-/tmp}/rc-fuzz-selftest.trace.jsonl"

echo "CI gate passed."
