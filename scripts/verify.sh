#!/usr/bin/env sh
# Repo verification gate, split into composable steps so CI can run (and
# report) each one separately while local use stays one command:
#
#   scripts/verify.sh            # everything, in order (same as `all`)
#   scripts/verify.sh all        # fmt, build, lint, doc, test, bench,
#                                # smoke, tournament, corpus, chaos,
#                                # service
#   scripts/verify.sh fmt        # cargo fmt --check (first CI step)
#   scripts/verify.sh build      # cargo build --release --locked
#   scripts/verify.sh lint       # no std HashMap/HashSet/RandomState
#                                # outside fxhash.rs (grep), then
#                                # cargo clippy --workspace --all-targets
#                                # -- -D warnings (tests, benches, bins),
#                                # then the same for chf-sim alone with
#                                # --no-default-features (feature
#                                # unification turns legacy-sim on in
#                                # the workspace build)
#   scripts/verify.sh doc        # cargo doc --workspace --no-deps with
#                                # warnings denied (broken or private
#                                # intra-doc links fail)
#   scripts/verify.sh test       # cargo test -q --workspace (every crate's
#                                # unit, property and integration tests),
#                                # then prints the suite's wall seconds
#   scripts/verify.sh smoke      # whole_program --smoke, then the ablation
#                                # bin (asserts every compiled micro
#                                # returns its expected value)
#   scripts/verify.sh tournament # policy-tournament gate: portfolio
#                                # dominance over every fixed column,
#                                # winner determinism at 1/2/8 workers,
#                                # CSV byte-stability, shape-cache hot
#                                # path, one formation per policy in a
#                                # cold tournament
#   scripts/verify.sh corpus     # trace-corpus gate: replay every entry
#                                # under tests/corpus/ (zero drift, <10 s),
#                                # then a coverage-guided fuzz smoke;
#                                # summary at results/corpus_summary.json
#   scripts/verify.sh chaos [N]  # fault-injection campaign (default 500)
#   scripts/verify.sh service [N] # compile-service gate: N concurrent
#                                # requests, ~5% carrying an injected
#                                # fault (default 200), then a full
#                                # service-level chaos campaign (500
#                                # faults, 4 clients)
#   scripts/verify.sh bench      # the benchmark's own tests, with a
#                                # one-round smoke of every workload whose
#                                # replica guard proves the stage-by-stage
#                                # replicas still equal the real
#                                # `optimize` and `try_compile`
#   scripts/verify.sh loc        # code lines per crate and in total
#                                # (not in `all`; CI adds them to the
#                                # job summary)
#
# Performance is measured by `benchmark/run.sh` (see benchmark/README.md),
# not by a gate here.
#
# Steps may be chained: `scripts/verify.sh fmt build lint`.
#
# Environment knobs (all optional):
#
#   CHF_JOBS                 Worker count for the parallel evaluation
#                            harness (default: available parallelism).
#   CHF_FAULT_SEED           Pins the `chaos` campaign's fault stream so a
#                            CI failure is replayable locally.
#   CHF_CORPUS_REPLAY_CEILING_S  Wall-time budget for the `corpus` replay
#                            pass (default 10). Raise on slow machines —
#                            or prune the corpus.
#   CHF_BLESS                Set to re-capture golden snapshots under
#                            `test` after an intentional formation change.
set -eu

cd "$(dirname "$0")/.."

run_fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
}

run_build() {
    # --locked: any Cargo.lock drift (a dependency edit without a committed
    # lockfile update) fails here, fast, instead of surfacing as confusing
    # cache misses or version skew in later steps.
    echo "==> cargo build --release --locked"
    cargo build --release --locked
}

# Maps and sets hashed by std's `RandomState` iterate in a different order
# in every process, so code that walks one can build different output from
# the same input. The workspace uses `FxHashMap`/`FxHashSet` (stable hash)
# or `BTreeMap`/`BTreeSet` instead. Clippy's `disallowed-types` cannot
# enforce this: `FxHashMap` is std's `HashMap` with another hasher.
run_lint() {
    echo "==> no std HashMap, HashSet or RandomState outside crates/ir/src/fxhash.rs"
    if grep -rnwE 'Hash(Map|Set)|RandomState' --include='*.rs' crates src tests examples |
        grep -v '^crates/ir/src/fxhash.rs:'; then
        echo "error: use chf_ir::fxhash::{FxHashMap, FxHashSet} or a BTreeMap/BTreeSet" >&2
        exit 1
    fi
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
    echo "==> cargo clippy -p chf-sim --no-default-features --all-targets -- -D warnings"
    cargo clippy -p chf-sim --no-default-features --all-targets -- -D warnings
}

# Rustdoc with warnings denied: a link to a deleted, renamed, private or
# ambiguous item fails here instead of rendering as dead text.
run_doc() {
    echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps --locked"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked
}

# The whole workspace, not just the root package: the simulator property
# suites, the chaos unit tests and the service tests live in crates/*.
# The test binaries are built first, so the printed wall time is the
# suite's own run, not compilation; CI records it in the job summary.
run_test() {
    echo "==> cargo test -q --workspace"
    cargo test -q --workspace --no-run
    start=$(date +%s)
    cargo test -q --workspace
    echo "test suite wall seconds: $(($(date +%s) - start))"
}

# Cycle-simulates a bounded prefix of the SPEC-like composite workloads
# end-to-end through the event-driven core and checks the
# measured-vs-model comparison is produced. Then runs the ablation study
# (~0.3 s), whose private formation pipeline fails if any of the 24
# micros returns a wrong value under any ablated configuration or timing
# model.
run_smoke() {
    echo "==> whole_program --smoke (whole-program cycle-simulation smoke)"
    cargo run --release -p chf-bench --bin whole_program -- --smoke
    echo "==> ablation (design-choice ablation; checks every micro's return value)"
    cargo run --release -p chf-bench --bin ablation
}

# Runs the per-function policy-tournament gate over the 19 composites:
# the portfolio winner must dominate every fixed policy column, winners
# and the table2_budget CSV (portfolio columns included) must be
# byte-identical at 1/2/8 workers and match the committed archive, and a
# second pass through one service must be answered by the CFG-shape
# winner cache (hot path = one entrant). On CSV mismatch the regenerated
# file is left at results/table2_budget.regenerated.csv as a failure
# artifact.
run_tournament() {
    echo "==> tournament (policy-tournament + shape-cache gate)"
    cargo run --release -p chf-bench --bin tournament
}

# Replays every persistent trace-corpus entry through compile → oracle →
# event-sim and fails on any digest or outcome drift, then runs the
# CI-blocking fuzz smoke (a short coverage-guided generation loop). The
# one-line JSON summary lands in results/corpus_summary.json for CI
# failure artifacts.
run_corpus() {
    echo "==> fuzz --smoke (trace-corpus replay + coverage-guided fuzz smoke)"
    cargo run --release -p chf-bench --bin fuzz -- --smoke
}

# Injects N seeded faults (IR corruption, profile corruption, scrambled
# ordering inputs, mid-trial corruption) and fails on any process abort
# or undetected miscompile.
run_chaos() {
    faults="${1:-500}"
    echo "==> chaos ${faults} (fault-injection smoke campaign)"
    cargo run --release -p chf-bench --bin chaos -- "${faults}"
}

# Drives a live compile service with concurrent clients, first with ~5%
# of requests carrying an injected fault and the rest clean hot-set
# compiles, then as a full service-level chaos campaign (all fault kinds
# incl. corrupted-cache-entry, 4 concurrent clients). Both require zero
# aborts / miscompiles / hung requests and closed service accounting. The
# service's stats snapshot lands in results/service_stats.json for CI
# failure artifacts.
run_service() {
    requests="${1:-200}"
    echo "==> chaos --service ${requests} --fault-percent 5 (compile-service soak)"
    cargo run --release -p chf-bench --bin chaos -- --service "${requests}" --clients 8 --fault-percent 5
    echo "==> chaos --service 500 (service-level fault campaign)"
    cargo run --release -p chf-bench --bin chaos -- --service 500 --clients 4
}

# The benchmark is a separate Cargo workspace under benchmark/, so the
# workspace test step does not reach it. Its smoke test runs every
# workload for one round, including the traced run's replica guard.
run_bench() {
    echo "==> cargo test --manifest-path benchmark/Cargo.toml"
    cargo test --manifest-path benchmark/Cargo.toml
}

# Counts the program's code lines, per crate and in total: the non-blank
# lines of crates/*/src/**/*.rs that are not `//`, `///` or `//!` comments
# and come before the file's first column-0 `#[cfg(test)]` (every test
# module sits at the end of its file). Each change reports its net delta
# with this count. It has no threshold.
run_loc() {
    echo "==> code lines per crate (crates/*/src, before each file's first #[cfg(test)])"
    total=0
    for dir in crates/*/; do
        crate=$(basename "${dir}")
        n=$(find "${dir}src" -name '*.rs' | sort | xargs awk '
            FNR == 1 { tests = 0 }
            /^#\[cfg\(test\)\]/ { tests = 1 }
            tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
            { n++ }
            END { print n + 0 }')
        echo "${crate} ${n}"
        total=$((total + n))
    done
    echo "total ${total}"
}

run_all() {
    run_fmt
    run_build
    run_lint
    run_doc
    run_test
    run_bench
    run_smoke
    run_tournament
    run_corpus
    run_chaos "${1:-500}"
    run_service
}

if [ "$#" -eq 0 ]; then
    run_all
    echo "verify.sh: all checks passed"
    exit 0
fi

while [ "$#" -gt 0 ]; do
    step="$1"
    shift
    case "${step}" in
        fmt) run_fmt ;;
        build) run_build ;;
        lint) run_lint ;;
        doc) run_doc ;;
        test) run_test ;;
        smoke) run_smoke ;;
        tournament) run_tournament ;;
        corpus) run_corpus ;;
        bench) run_bench ;;
        loc) run_loc ;;
        chaos | service)
            # Optional numeric fault/request count following the step.
            case "${1:-}" in
                '' | *[!0-9]*) "run_${step}" ;;
                *)
                    "run_${step}" "$1"
                    shift
                    ;;
            esac
            ;;
        all) run_all ;;
        *)
            echo "verify.sh: unknown step '${step}'" >&2
            echo "usage: scripts/verify.sh [fmt|build|lint|doc|test|bench|smoke|tournament|corpus|chaos [N]|service [N]|loc|all]..." >&2
            exit 2
            ;;
    esac
done

echo "verify.sh: requested checks passed"
