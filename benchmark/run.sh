#!/usr/bin/env bash
# One command: build the benchmark offline and run it.
#
#   benchmark/run.sh                         every workload, untraced then traced
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one workload (the driver's form)
#   benchmark/run.sh --quick                 smoke run of everything, < 10 s
#   benchmark/run.sh --twice [args…]         the suite twice, then `compare`
#   benchmark/run.sh compare A.json B.json
#
# Run it from the root of the checkout. Build products go to
# $CARGO_TARGET_DIR (default benchmark/target); results to benchmark/out.
set -euo pipefail

here="$(dirname "$0")"

bench() {
    cargo run --quiet --release --offline --locked \
        --manifest-path "$here/Cargo.toml" -- "$@"
}

if [[ "${1:-}" == "--twice" ]]; then
    shift
    mkdir -p "$here/out"
    bench run --trace 0 --out "$here/out/A.json" "$@"
    bench run --trace 0 --out "$here/out/B.json" "$@"
    bench compare "$here/out/A.json" "$here/out/B.json"
else
    bench "$@"
fi
