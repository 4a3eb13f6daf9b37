#!/usr/bin/env bash
# Full local gate. The rule: a committed artifact is gated by `diff -u`
# against a fresh regeneration, a threshold is gated by exactly one
# #[test] on the typed struct that produced it (DESIGN.md "Verification"
# maps each gate to its test), and this script holds neither numbers nor
# column positions: it is fmt, clippy, the workspace tests and diffs.
#
# The commands below are the one place each committed artifact's
# regeneration flags are written down. Fresh copies land in target/; the
# committed files are never written here. A deliberate simulated-clock
# change re-blesses them by hand (`cp target/<name> <name>`) and journals
# why in PERF.md.
#
# Run from anywhere; operates on the repo this script lives in.
# CHECK_SLOW=1 additionally runs the #[ignore]d long campaigns.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings: every intra-doc link resolves)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> non-test unwraps stay denied"
# The clippy run above is the enforcement; this pins the attribute
# itself so it cannot be silently dropped.
for crate in nkv cosmos-sim ndp-ir ndp-hdl ndp-swgen ndp-pe ndp-spec core ndp-workload bench; do
    grep -q 'cfg_attr(not(test), deny(clippy::unwrap_used))' "crates/$crate/src/lib.rs"
done

if [ "${CHECK_SLOW:-0}" = "1" ]; then
    echo "==> cargo test (including #[ignore]d slow campaigns)"
    cargo test --workspace -q -- --include-ignored
else
    echo "==> cargo test"
    cargo test --workspace -q
fi

echo "==> profiling example runs"
cargo run --release --example profiling -- target/profile_trace.json > /dev/null

cargo build --release -p bench -q
repro=target/release/repro
smoke_scale=0.00048828125 # 1/2048, the scale of the typed gates in crates/bench

echo "==> repro_output.txt: every paper figure, byte for byte"
$repro all --scale 0.0625 > target/repro_output.txt
diff -u repro_output.txt target/repro_output.txt

echo "==> loadgen_smoke.txt: queue engine with every optional sweep off"
$repro loadgen --clients 1,2,4 --depth 2 --ops 8 --seed 7 \
    --scale $smoke_scale > target/loadgen_smoke.txt
diff -u loadgen_smoke.txt target/loadgen_smoke.txt

echo "==> BENCH_loadgen.json: clients x devices matrix (+ merged cluster trace)"
$repro loadgen --clients 2 --depth 4 --ops 32 --seed 42 --scale $smoke_scale \
    --devices 1,2,4 --json target/BENCH_loadgen.json \
    --trace target/cluster_trace.json > /dev/null
diff -u BENCH_loadgen.json target/BENCH_loadgen.json
test -s target/cluster_trace.json

echo "==> BENCH_profile.json: fleet profile (perf-journal snapshot)"
$repro profile --scale $smoke_scale --devices 4 \
    --json target/BENCH_profile.json > target/profile_fleet.txt
diff -u BENCH_profile.json target/BENCH_profile.json
# The profile's text is printed by the binary, not by a typed renderer.
for line in 'fleet profile (4 hash-sharded devices)' 'cluster stats: 4 shards' \
    'batched GET (key-list descriptors' 'key lists cut the config tax'; do
    grep -qF "$line" target/profile_fleet.txt
done

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
