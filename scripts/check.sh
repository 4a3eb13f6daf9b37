#!/usr/bin/env bash
# Full local gate. The rule: a committed artifact is gated by `diff -u`
# against a fresh regeneration, a threshold is gated by exactly one
# #[test] on the typed struct that produced it (DESIGN.md "Verification"
# maps each gate to its test), and this script holds neither numbers nor
# column positions: it is fmt, clippy, the workspace tests and diffs.
#
# Each `repro` experiment has exactly one committed text artifact, its
# stdout: repro_output.txt (the paper's figures), loadgen_smoke.txt and
# profile_smoke.txt. Each is regenerated into target/ and diffed below,
# and these commands are the one place its regeneration flags are
# written down. The committed files are never written here. A
# deliberate simulated-clock change re-blesses them by hand
# (`cp target/<name> <name>`) and journals why in PERF.md.
#
# Run from anywhere; operates on the repo this script lives in.
# CHECK_SLOW=1 additionally runs the #[ignore]d long campaigns, among them
# the full crash enumeration: a power cut after every flash program.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> a C compiler on the PATH"
# `cargo test` only uses cc: without one the C-header tests print a note
# and pass. This gate runs them for real, so it refuses to start without.
if ! command -v cc > /dev/null; then
    echo "check.sh: no \`cc\` on the PATH; the generated C headers and the C harness" \
        "(crates/core/tests/c_headers.rs) cannot be compiled" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings: every intra-doc link resolves)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> every library denies non-test unwraps and unreachable pub"
# The clippy run above is the enforcement; this pins the attributes
# themselves so they cannot be silently dropped, in every library,
# including one added later.
for lib in crates/*/src/lib.rs; do
    grep -q 'cfg_attr(not(test), deny(clippy::unwrap_used))' "$lib"
    grep -q 'deny(unreachable_pub)' "$lib"
done

if [ "${CHECK_SLOW:-0}" = "1" ]; then
    echo "==> cargo test (including #[ignore]d slow campaigns)"
    cargo test --workspace -q -- --include-ignored
else
    echo "==> cargo test"
    cargo test --workspace -q
fi

echo "==> every example runs"
# An API change that still compiles can panic in an example; each takes
# milliseconds in release. Those that write files write under target/.
cargo build --release -q --examples
for src in examples/*.rs; do
    example=$(basename "$src" .rs)
    case $example in
        codegen_export) args=(target/codegen_export) ;;
        profiling) args=(target/profile_trace.json) ;;
        *) args=() ;;
    esac
    echo "  $example"
    "target/release/examples/$example" "${args[@]}" > /dev/null
done

cargo build --release -p bench -q
repro=target/release/repro
smoke_scale=0.00048828125 # 1/2048, the scale of the typed gates in crates/bench

echo "==> repro_output.txt: every paper figure, byte for byte"
$repro all --scale 0.0625 > target/repro_output.txt
diff -u repro_output.txt target/repro_output.txt

echo "==> loadgen_smoke.txt: queue engine + clients x devices matrix (+ merged cluster trace)"
$repro loadgen --clients 1,2,4 --depth 2 --ops 8 --seed 7 --scale $smoke_scale \
    --devices 1,2,4 --trace target/cluster_trace.json > target/loadgen_smoke.txt
diff -u loadgen_smoke.txt target/loadgen_smoke.txt
test -s target/cluster_trace.json

echo "==> profile_smoke.txt: single-device and fleet profile"
# 1/512: below it the profiling SCAN is too short for the flash occupancy
# to measure the flash-bandwidth bottleneck.
$repro profile --scale 0.001953125 --devices 4 > target/profile_smoke.txt
diff -u profile_smoke.txt target/profile_smoke.txt

echo "==> benchmark package: unit tests + smoke run correct, simulated clock pinned"
# benchmark/ is its own workspace, so the runs above never see it. The
# smoke run prints one result line per workload, untraced then traced.
cargo test -q --manifest-path benchmark/Cargo.toml --offline
benchmark/run.sh --quick > target/benchmark_quick.txt
test "$(grep -c '"correct":true' target/benchmark_quick.txt)" -eq 10
# Each workload's sim_digest folds every simulated time it produced; it
# sees timing-model drift that no test and no repro figure exercises
# (e.g. how many register writes a multi-block serial GET pays).
awk '/^== /{run = $2 " " substr($5, 2)} / sim_digest /{for (i = 1; i < NF; i++) if ($i == "sim_digest") print run, $(i + 1)}' \
    target/benchmark_quick.txt > target/sim_digests_quick.txt
diff -u sim_digests_quick.txt target/sim_digests_quick.txt

echo "All checks passed."
