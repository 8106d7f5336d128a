#!/usr/bin/env bash
# A/A check: two full sets of runs of the same build, compared. Every
# (workload, metric) row must come out `ok`; a `regressed` row here is
# noise the bounds do not cover, not a regression. SEED and REPEAT
# (interleaved repeats per workload, medians compared) may be overridden.
set -euo pipefail
cd "$(dirname "$0")/.."
SEED=${SEED:-42}
REPEAT=${REPEAT:-1}
bench() {
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
bench run --seed "$SEED" --repeat "$REPEAT" --out benchmark/out/aa-a
bench run --seed "$SEED" --repeat "$REPEAT" --out benchmark/out/aa-b
bench compare benchmark/out/aa-a/results.json benchmark/out/aa-b/results.json
