#!/usr/bin/env sh
# Repo verification gate, split into composable steps so CI can run (and
# report) each one separately while local use stays one command:
#
#   scripts/verify.sh            # everything, in order (same as `all`)
#   scripts/verify.sh all        # fmt, build, lint, test, perf, smoke,
#                                # tournament, corpus, chaos, service
#   scripts/verify.sh fmt        # cargo fmt --check (first CI step)
#   scripts/verify.sh build      # cargo build --release --locked
#   scripts/verify.sh lint       # cargo clippy --workspace --all-targets
#                                # -- -D warnings (tests, benches, bins)
#   scripts/verify.sh test       # cargo test -q --workspace (every crate's
#                                # unit, property and integration tests)
#   scripts/verify.sh perf       # bench_perf --check (perf regression gate)
#   scripts/verify.sh smoke      # whole_program --smoke
#   scripts/verify.sh tournament # policy-tournament gate: portfolio
#                                # dominance over every fixed column,
#                                # winner determinism at 1/2/8 workers,
#                                # CSV byte-stability, shape-cache hot
#                                # path
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
#
# Steps may be chained: `scripts/verify.sh fmt build lint`.
#
# Environment knobs (all optional):
#
#   CHF_BENCH_CEILING_MS     Wall-time ceiling for the end-to-end Table 1
#                            regeneration in `perf` (default 100). Raise on
#                            slow or shared machines, e.g. CI runners.
#   CHF_BENCH_SIM_FLOOR_MCPS Per-call simulator throughput floor in
#                            Mcycles/s for `perf` (default 23.8). Lower on
#                            slow machines.
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

run_lint() {
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
}

# The whole workspace, not just the root package: the simulator property
# suites, the chaos unit tests and the service tests live in crates/*.
run_test() {
    echo "==> cargo test -q --workspace"
    cargo test -q --workspace
}

# Asserts the end-to-end Table 1 regeneration stays under a generous
# wall-time ceiling, that per-call simulator throughput stays above the
# post-event-core floor, and that the parallel harness produces
# byte-identical output to the sequential path.
run_perf() {
    echo "==> bench_perf --check"
    cargo run --release -p chf-bench --bin bench_perf -- --check
}

# Cycle-simulates a bounded prefix of the SPEC-like composite workloads
# end-to-end through the event-driven core and checks the
# measured-vs-model comparison is produced.
run_smoke() {
    echo "==> whole_program --smoke (whole-program cycle-simulation smoke)"
    cargo run --release -p chf-bench --bin whole_program -- --smoke
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

run_all() {
    run_fmt
    run_build
    run_lint
    run_test
    run_perf
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
        test) run_test ;;
        perf) run_perf ;;
        smoke) run_smoke ;;
        tournament) run_tournament ;;
        corpus) run_corpus ;;
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
            echo "usage: scripts/verify.sh [fmt|build|lint|test|perf|smoke|tournament|corpus|chaos [N]|service [N]|all]..." >&2
            exit 2
            ;;
    esac
done

echo "verify.sh: requested checks passed"
