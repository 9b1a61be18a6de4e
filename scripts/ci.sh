#!/usr/bin/env bash
# The one CI definition: a list of named steps. The workspace has no
# external dependencies, so every step but tsan/miri runs offline.
#   scripts/ci.sh            the full local gate (every step in GATE)
#   scripts/ci.sh --fast     the same without the minutes-long SLOW steps
#   scripts/ci.sh --list     the step names
#   scripts/ci.sh STEP...    those steps only (.github/workflows/ci.yml)
set -euo pipefail
cd "$(dirname "$0")/.."

GATE=(build test references alloc-budget benchmark-tests detlint detlint-selftest clippy doc
  trace-determinism blame-determinism disabled-path jobs-determinism figures
  simcheck recovery benchmark)
SLOW=(seedcheck repro-golden)
# Steps in neither list (tsan, miri, simcheck-nightly) run only when
# named: they need a nightly toolchain or most of an hour.

repro() { cargo run --release -q -p siteselect-bench --bin repro -- "$@"; }
detlint() { cargo run --release -q -p siteselect-lint --bin detlint -- "$@"; }
die() { echo "ci.sh: $*" >&2; exit 1; }
# Same bytes modulo the "wrote <path>" line, which names the output file.
same_report() { diff <(grep -v '^wrote ' "$1") <(grep -v '^wrote ' "$2"); }

tmp="$(mktemp -d)"
seeded="" # the file a detlint self-test appended to; put back on any exit
restore() { [[ -z "$seeded" ]] || cp -p "$tmp/seeded" "$seeded"; seeded=""; }
trap 'restore; rm -rf "$tmp"' EXIT

step_build() { cargo build --release --workspace; }
step_test() { cargo test -q --workspace; }

# reference_tests ARGS...: `cargo test --release -q ARGS`, failing when its
# name filter selects no test, which cargo itself reports as a success.
reference_tests() {
  local out
  out="$(cargo test --release -q "$@" 2>&1)" || { echo "$out"; die "cargo test $* failed"; }
  echo "$out"
  awk '/^test result:/ { n += $4 } END { exit n == 0 }' <<< "$out" \
    || die "cargo test $* ran no test: its filter matches nothing"
}

# The lock table in both layouts (and its deadlock walk and a crash's
# clear), buffer pool and trace exporters against their reference
# implementations at the full case count (debug builds run a slice).
step_references() {
  reference_tests -p siteselect-locks --lib table_matches_hashmap_oracle
  reference_tests -p siteselect-locks --lib cleared_table
  reference_tests -p siteselect-locks --lib deadlock_walk
  reference_tests -p siteselect-storage --lib buffer_reference
  reference_tests -p siteselect-obs --lib export_reference
}

# Whole CS, LS and CE runs at 100 clients and full duration inside their
# allocations-per-transaction budgets and their peak live heap budgets
# (debug builds run 30 clients x 400 s), a lock table whose refill and
# re-waits allocate nothing (one slab of per-object state, spare wait rows),
# a judged run (traced 8 clients x 150 s plus check_trace) inside its own,
# an event queue that a few allocations build and that recycles its nodes
# once warm, a traced LS run at 100 clients inside the trace ring with at
# most two window episodes a transaction, a warm LS decision round that
# allocates only its subtask specs, and a threaded LS cluster whose sites
# keep one spare message buffer of each kind.
step_alloc-budget() {
  cargo test --release -q -p siteselect-core --test alloc_steady_state
  reference_tests -p siteselect-locks --test table_allocs lock_table_
  reference_tests -p siteselect-core --lib a_warm_ls_decision_round
  reference_tests -p siteselect-cluster --lib ls_buffer_pools_stay_bounded
  cargo test --release -q -p siteselect-check --test alloc_judged
  cargo test --release -q -p siteselect-sim --test queue_allocs
  cargo test --release -q -p siteselect-check --test trace_budget
}

# BENCHMARK.json's program is a workspace of its own that reaches the
# engines through their public API; without this an API break fails the
# benchmark pipeline instead of CI.
step_benchmark-tests() {
  cargo test --release -q --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
}

# --ratchet: a baseline entry that over-accepts fails instead of rotting.
step_detlint() { detlint rules; detlint check --workspace --ratchet; }

# expect_findings FILE TAG...: with stdin appended to FILE, detlint must
# fail and report every TAG. The gate has to be able to fail.
expect_findings() {
  local file="$1" out tag; shift
  cp -p "$file" "$tmp/seeded"; seeded="$file"; cat >> "$file"
  if out="$(detlint check --workspace)"; then die "detlint passed a seeded violation in $file"; fi
  restore
  for tag in "$@"; do
    grep -q "$tag" <<< "$out" || { echo "$out"; die "detlint did not report $tag in $file"; }
  done
}
step_detlint-selftest() {
  expect_findings crates/sim/src/rng.rs 'detlint\[D1\]' << 'EOF'

fn _detlint_gate_selftest() {
    let _t = std::time::Instant::now();
}
EOF
  expect_findings crates/sim/src/rng.rs 'detlint\[D2\]' << 'EOF'

struct _DetlintGateSelftestD2 {
    seen: std::collections::HashMap<u64, u64>,
}

impl _DetlintGateSelftestD2 {
    fn _keys(&self) -> Vec<u64> {
        self.seen.keys().copied().collect()
    }
}
EOF
  # The cluster's sites share only channels: a lock field and a `.lock()`
  # call there are each a D7 finding.
  expect_findings crates/cluster/src/runtime.rs \
    'runtime.rs:[0-9]*: detlint\[D7\]: `Mutex`' 'runtime.rs:[0-9]*: detlint\[D7\]: `.lock()`' << 'EOF'

struct _DetlintGateSelftestD7 {
    shared: std::sync::Mutex<u64>,
}

impl _DetlintGateSelftestD7 {
    fn _read(&self) -> u64 {
        self.shared.lock().map_or(0, |g| *g)
    }
}
EOF
  expect_findings crates/sim/src/rng.rs 'detlint\[D10\]' << 'EOF'

fn _detlint_gate_selftest_d10() -> std::collections::HashSet<u64> {
    std::collections::HashSet::new()
}
EOF
  # Not absorbed by detlint.baseline.json: rng.rs has no accepted sites.
  expect_findings crates/sim/src/rng.rs 'detlint\[D9\]' << 'EOF'

fn _detlint_gate_selftest_d9(v: &[u64]) -> u64 {
    v[0]
}
EOF
}

# Warnings are errors through [workspace.lints].
step_clippy() { cargo clippy --workspace --all-targets; }

# A doc link to a deleted item, or from a public doc to a private one,
# fails here instead of rendering as plain text.
step_doc() { RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps; }

step_trace-determinism() {
  for system in ce cs ls; do
    repro trace --quick --seed 7 --system "$system" --out "$tmp/a" > "$tmp/a.out"
    repro trace --quick --seed 7 --system "$system" --out "$tmp/b" > "$tmp/b.out"
    diff "$tmp/a/trace.jsonl" "$tmp/b/trace.jsonl"
    diff "$tmp/a/trace.json" "$tmp/b/trace.json"
    same_report "$tmp/a.out" "$tmp/b.out"
  done
}

step_blame-determinism() {
  repro blame --quick --seed 7 --jobs 1 --out "$tmp/blame.j1.json" > "$tmp/blame.j1.out"
  repro blame --quick --seed 7 --jobs 8 --out "$tmp/blame.j8.json" > "$tmp/blame.j8.out"
  diff "$tmp/blame.j1.json" "$tmp/blame.j8.json"
  same_report "$tmp/blame.j1.out" "$tmp/blame.j8.out"
}

# Untraced output is byte-stable: tracing leaves nothing on when off.
step_disabled-path() {
  repro figure3 --quick > "$tmp/f3.a"
  repro figure3 --quick > "$tmp/f3.b"
  diff "$tmp/f3.a" "$tmp/f3.b"
}

# Every sweep of `all` (figures, tables 2-4, ablations) at jobs 1 vs 8.
step_jobs-determinism() {
  repro all --quick --jobs 1 > "$tmp/all.j1"
  repro all --quick --jobs 8 > "$tmp/all.j8"
  diff "$tmp/all.j1" "$tmp/all.j8"
}

# Figures 1 and 2 are scripted engine runs, seconds not minutes: each
# against its block of results/repro_all.txt (blank lines aside).
step_figures() {
  local n
  for n in 1 2; do
    diff <(repro "figure$n" | sed '/^$/d') \
      <(awk -v h="=== Figure $n:" '/^=== / {p = index($0, h) == 1} p' results/repro_all.txt \
        | sed '/^$/d')
  done
}

# expect_violation KIND: the oracle must fire on its known-bad history and
# say where and how to replay it.
expect_violation() {
  if repro check --inject-violation "$1" > /dev/null 2> "$tmp/inject.err"; then
    die "simcheck passed an injected $1 violation"
  fi
  grep -q "$1 violation at crates/check/src/$1.rs" "$tmp/inject.err" \
    && grep -q "replay:" "$tmp/inject.err" \
    || { cat "$tmp/inject.err"; die "no file:line diagnostic or replay command for $1"; }
}

# The 8-client matrix, 240 cases at 30 clients, 24 at 60 and 24 at the
# paper's 100 (each once found a fault-path race), two paper-scale runs whose callback races once
# failed an oracle (CS 50 clients seed 3, LS 100 clients seed 1; `repro
# trace` exits non-zero on any violation), and the restart-path race,
# closed and pinned as an ignored witness.
step_simcheck() {
  reference_tests -p siteselect-check --test scripted restart_witness -- --ignored
  repro check --seeds 72
  repro check --clients 30 --seeds 240
  repro check --clients 60 --seeds 24
  repro check --clients 100 --seeds 24
  repro trace --system cs --clients 50 --seed 3 --out "$tmp/cs50" > /dev/null
  repro trace --system ls --clients 100 --seed 1 --out "$tmp/ls100" > /dev/null
  repro check --seeds 18 --jobs 1 > "$tmp/sc.j1"
  repro check --seeds 18 --jobs 8 > "$tmp/sc.j8"
  diff "$tmp/sc.j1" "$tmp/sc.j8"
  for kind in serializability coherence deadline recovery; do expect_violation "$kind"; done
}

# A server crash-restart run per engine: the WAL replays, the site rejoins,
# all four oracles judge the trace; each engine twice for the byte-diff.
step_recovery() {
  local system run
  for system in ce cs ls; do
    for run in a b; do
      repro trace --quick --seed 11 --system "$system" --chaos 1.0 --restart \
        --out "$tmp/rec_${system}_$run" > /dev/null
    done
    diff "$tmp/rec_${system}_a/trace.jsonl" "$tmp/rec_${system}_b/trace.jsonl"
  done
  expect_violation recovery
}

# A smoke that the measured program still runs, not a performance gate
# (that is the pipeline's): the exit code is the benchmark's hard
# invariants. The last line is the result as JSON, which the table repeats.
step_benchmark() {
  for workload in ce_paper cs_update20 ls_update5 cs_restart_traced fig4_sweep check_seeds; do
    cargo run --release -q --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
      --workload "$workload" --seed 1 --seconds 1 --trace 0 | sed '$d'
  done
}

# Figure 5's headline point at seeds 1-3, paper scale, against
# results/seedcheck.txt. The runs are deterministic, so the diff is exact.
step_seedcheck() {
  cargo run --release -q -p siteselect-bench --bin seedcheck > "$tmp/seedcheck.txt"
  diff results/seedcheck.txt "$tmp/seedcheck.txt"
}

# `repro all` at paper scale against results/repro_all.txt.
step_repro-golden() { cargo test --release -q -p siteselect-bench --test repro_golden -- --ignored; }

# std must be instrumented too, hence -Zbuild-std.
step_tsan() {
  RUSTFLAGS="-Zsanitizer=thread" TSAN_OPTIONS="halt_on_error=1" \
    cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
    --release -p siteselect --test cluster_concurrency
}

# The pure-compute property tests and the four differential tests (case
# counts reduced under cfg(miri)); the 4000-step lock-table runs are too
# slow under the interpreter.
step_miri() {
  cargo +nightly miri test -p siteselect --test property_tests -- \
    prng histogram online_stats event_queue
  cargo +nightly miri test -p siteselect-locks --lib -- indexed_graph_matches_hashmap_oracle
  cargo +nightly miri test -p siteselect-storage --lib -- listed_pool_matches_scanning_oracle
  cargo +nightly miri test -p siteselect-obs --lib -- format_free_writer_matches_write_reference
}

# The second base seed of each size rotates by date, so every night sees
# new schedules and the printed replay command still pins the one it used.
step_simcheck-nightly() {
  local rotated="$((0x51AC0C43 + $(date -u +%Y%m%d)))"
  repro check --seeds 2000
  repro check --seeds 2000 --seed "$rotated"
  repro check --clients 30 --seeds 2000
  repro check --clients 30 --seeds 2000 --seed "$rotated"
}

case "${1:-}" in
  "") steps=("${GATE[@]}" "${SLOW[@]}") ;;
  --fast) steps=("${GATE[@]}") ;;
  --list) declare -F | sed -n 's/^declare -f step_//p'; exit 0 ;;
  *) steps=("$@") ;;
esac
for step in "${steps[@]}"; do
  declare -F "step_$step" > /dev/null || die "unknown step: $step (see --list)"
done
for step in "${steps[@]}"; do
  echo "==> $step"
  "step_$step"
done
echo "CI OK"
