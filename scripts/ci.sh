#!/usr/bin/env bash
# The full local/CI gate. The workspace has no external dependencies, so
# every step runs offline. Pass --fast to skip the paper-scale seedcheck.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> wait-for graph, lock table and buffer pool vs their references, full case count (debug builds run a slice)"
cargo test --release -q -p siteselect-locks waitfor
cargo test --release -q -p siteselect-locks --lib dense_table_matches
cargo test --release -q -p siteselect-storage --lib buffer_reference

echo "==> benchmark package (a workspace of its own: its tests must build and pass against the public crates)"
# BENCHMARK.json's program reaches locks/obs/core only through their
# public API and sits outside `--workspace`; without this step an API
# break there fails the benchmark pipeline instead of CI.
cargo test --release -q --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

echo "==> detlint (determinism & safety contract, see detlint.toml)"
# --ratchet: a baseline entry that over-accepts (findings were fixed but
# the baseline not regenerated) fails the gate instead of rotting.
cargo run --release -q -p siteselect-lint --bin detlint -- check --workspace --ratchet

echo "==> cargo clippy (warnings are errors via [workspace.lints])"
cargo clippy --workspace --all-targets

echo "==> trace determinism (repro trace twice at one seed, byte-diff)"
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
cargo run --release -q -p siteselect-bench --bin repro -- trace --quick --seed 7 --out "$tracedir/a" > "$tracedir/a.out"
cargo run --release -q -p siteselect-bench --bin repro -- trace --quick --seed 7 --out "$tracedir/b" > "$tracedir/b.out"
diff "$tracedir/a/trace.jsonl" "$tracedir/b/trace.jsonl"
diff "$tracedir/a/trace.json" "$tracedir/b/trace.json"
# The report must match too; only the "wrote <path>" line may differ.
diff <(grep -v '^wrote ' "$tracedir/a.out") <(grep -v '^wrote ' "$tracedir/b.out")

echo "==> blame determinism (repro blame, jobs 1 vs 8, byte-diff)"
cargo run --release -q -p siteselect-bench --bin repro -- blame --quick --seed 7 --jobs 1 --out "$tracedir/blame.j1.json" > "$tracedir/blame.j1.out"
cargo run --release -q -p siteselect-bench --bin repro -- blame --quick --seed 7 --jobs 8 --out "$tracedir/blame.j8.json" > "$tracedir/blame.j8.out"
diff "$tracedir/blame.j1.json" "$tracedir/blame.j8.json"
# Stdout must match too; only the "wrote <path>" line may differ.
diff <(grep -v '^wrote ' "$tracedir/blame.j1.out") <(grep -v '^wrote ' "$tracedir/blame.j8.out")

echo "==> disabled-path guard (untraced repro output is byte-stable)"
cargo run --release -q -p siteselect-bench --bin repro -- figure3 --quick > "$tracedir/f3.a"
cargo run --release -q -p siteselect-bench --bin repro -- figure3 --quick > "$tracedir/f3.b"
diff "$tracedir/f3.a" "$tracedir/f3.b"

echo "==> parallel-sweep determinism (jobs 1 vs 8, byte-diff)"
cargo run --release -q -p siteselect-bench --bin repro -- figure3 --quick --jobs 1 > "$tracedir/f3.j1"
cargo run --release -q -p siteselect-bench --bin repro -- figure3 --quick --jobs 8 > "$tracedir/f3.j8"
diff "$tracedir/f3.j1" "$tracedir/f3.j8"

echo "==> simcheck (oracle smoke: small seed budget, byte-identical across --jobs)"
cargo run --release -q -p siteselect-bench --bin repro -- check --seeds 18 --jobs 1 > "$tracedir/sc.j1"
cargo run --release -q -p siteselect-bench --bin repro -- check --seeds 18 --jobs 8 > "$tracedir/sc.j8"
diff "$tracedir/sc.j1" "$tracedir/sc.j8"
# The gate must be able to fail: a seeded synthetic violation has to fire.
if cargo run --release -q -p siteselect-bench --bin repro -- check --inject-violation coherence > /dev/null 2>&1; then
  echo "simcheck failed to fail on an injected coherence violation"; exit 1
fi

echo "==> recovery (seeded crash-restart run under all four oracles + oracle self-test)"
# One server crash-restart run per engine family: the WAL replays, the
# site rejoins, and the recovery oracle judges the post-restart state dump.
cargo run --release -q -p siteselect-bench --bin repro -- trace --quick --seed 11 --system ce --chaos 1.0 --restart --out "$tracedir/rec_ce" > /dev/null
cargo run --release -q -p siteselect-bench --bin repro -- trace --quick --seed 11 --system cs --chaos 1.0 --restart --out "$tracedir/rec_cs" > /dev/null
# The durability gate must be able to fail too.
if cargo run --release -q -p siteselect-bench --bin repro -- check --inject-violation recovery > /dev/null 2>&1; then
  echo "simcheck failed to fail on an injected recovery violation"; exit 1
fi

echo "==> bench smoke (suite runs, report parses, no >2x regression vs fresh rerun)"
cargo run --release -q -p siteselect-bench --bin repro -- bench --out "$tracedir/bench.json" > "$tracedir/bench.out"
for field in '"meta"' '"cores"' '"rustc"' '"git_rev"' '"benchmarks"' '"ns_per_iter"' '"events_per_sec"' '"events_per_sec_cpu"'; do
  grep -q "$field" "$tracedir/bench.json" || { echo "bench.json missing $field"; exit 1; }
done
# Sweep benchmarks must report simulated throughput, not null (the sim/*
# and sweep/* rows double as the tracing-off overhead smoke: the suite
# times untraced runs, so span instrumentation that leaks into the
# disabled path shows up here and in the regression gate below).
if grep -E '"name": "(sim|sweep)/' "$tracedir/bench.json" | grep -q '"events_per_sec": null'; then
  echo "a sim/ or sweep/ benchmark reported events_per_sec: null"; exit 1
fi
# Same-machine regression gate: a second run, diffed against the first by
# the compare mode, must keep every benchmark present and within the 2x
# limit (the committed results/BENCH_sim.json baseline documents a
# reference machine and is not comparable across hardware). The delta
# table lands in the CI log either way.
cargo run --release -q -p siteselect-bench --bin repro -- bench --out "$tracedir/bench2.json" > "$tracedir/bench2.out"
cargo run --release -q -p siteselect-bench --bin repro -- bench --compare "$tracedir/bench.json" "$tracedir/bench2.json"
# Hot-loop throughput floor: each end-to-end sim row must hold at least
# 2x the seed-era throughput pinned in results/BENCH_sim.seed.json. The
# gate reads the CPU-time figure, which host-level steal on shared
# runners cannot depress (wall-clock swings several-fold on busy boxes
# while CPU accounting stays steady); it falls back to wall-clock
# events_per_sec where CPU accounting is unavailable.
for row in centralized client_server load_sharing; do
  seed=$(grep "\"sim/${row}_quick\"" results/BENCH_sim.seed.json \
    | sed 's/.*"events_per_sec": \([0-9.]*\).*/\1/')
  cur=$(grep "\"sim/${row}_quick\"" "$tracedir/bench.json" \
    | sed 's/.*"events_per_sec_cpu": \([0-9.]*\).*/\1/')
  if ! [[ "$cur" =~ ^[0-9.]+$ ]]; then
    cur=$(grep "\"sim/${row}_quick\"" "$tracedir/bench.json" \
      | sed 's/.*"events_per_sec": \([0-9.]*\).*/\1/')
  fi
  [[ "$seed" =~ ^[0-9.]+$ && "$cur" =~ ^[0-9.]+$ ]] \
    || { echo "cannot read sim/${row}_quick throughput (seed='$seed' cur='$cur')"; exit 1; }
  awk -v c="$cur" -v s="$seed" 'BEGIN { exit !(c >= 2.0 * s) }' \
    || { echo "sim/${row}_quick throughput $cur below 2x seed baseline ($seed)"; exit 1; }
  echo "sim/${row}_quick: $cur ev/cpu-s vs seed $seed ev/s (floor 2x)"
done

if [[ "$(nproc)" -ge 2 ]]; then
  echo "==> parallel-sweep speedup (quick sweep, jobs=nproc vs jobs=1)"
  t1=$( { time -p cargo run --release -q -p siteselect-bench --bin repro -- figure3 --quick --jobs 1 >/dev/null; } 2>&1 | awk '/^real/{print $2}')
  tn=$( { time -p cargo run --release -q -p siteselect-bench --bin repro -- figure3 --quick --jobs "$(nproc)" >/dev/null; } 2>&1 | awk '/^real/{print $2}')
  echo "jobs=1: ${t1}s  jobs=$(nproc): ${tn}s"
  awk -v a="$t1" -v b="$tn" 'BEGIN { exit !(a >= 2.0 * b) }' \
    || { echo "parallel sweep not >=2x faster (${t1}s vs ${tn}s)"; exit 1; }
else
  echo "==> parallel-sweep speedup skipped (single-core runner)"
fi

if [[ "${1:-}" != "--fast" ]]; then
  echo "==> seed sensitivity (Figure 5 headline point, seeds 1-3)"
  cargo run --release -q -p siteselect-bench --bin seedcheck

  echo "==> golden paper reproduction (repro all matches results/repro_all.txt)"
  cargo test --release -q -p siteselect-bench --test repro_golden -- --ignored
fi

echo "CI OK"
