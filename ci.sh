#!/usr/bin/env bash
# Full CI gate: formatting, lints, build, tests, clause verification,
# fault-injection sweep.
#
#   ./ci.sh          # everything
#   ./ci.sh quick    # skip the release build (lints + hostbench check + tests + verify)
#   ./ci.sh verify   # only the ompss-verify sweep over the apps
#   ./ci.sh chaos    # only the fault-injection sweep over the apps
#   ./ci.sh churn    # elastic-membership grid: joins/drains/kill races
#   ./ci.sh bench    # job-server throughput gate (serve --bench --check)
#   ./ci.sh scale    # 1000-node demo, 1M-process RSS bound, 64-node weak-scaling gate,
#                    # 4→256-node master host-cost gate (release)
#   ./ci.sh mc       # bounded model-check of matmul+stream schedules
#   ./ci.sh serve    # job-server soak: overload, cancels, fairness
#   ./ci.sh hostbench # the repo benchmark's own tests (release)
#   ./ci.sh mc_defects # seeded-defect corpus of the model checker (cfg mc_defects build)
set -euo pipefail
cd "$(dirname "$0")"

verify() {
    echo "==> ompss-verify (all apps, multi-GPU + flat cluster + sharded cluster, schedule sweep)"
    cargo run -q --release -p ompss-verify --bin verify -- --all
}

chaos() {
    echo "==> ompss-chaos (all apps, two rates x three seeds, both topologies)"
    cargo run -q --release -p ompss-chaos --bin chaos -- --rates 0.05,0.1 --seeds 1,2,3
    echo "==> ompss-chaos --node-kill (all apps, flat clusters 2+3 + sharded cluster 3, every slave, three kill points)"
    cargo run -q --release -p ompss-chaos --bin chaos -- --node-kill --kill-points 20,45,70
}

churn() {
    echo "==> ompss-chaos --churn (perlin+stream, flat + sharded 3-node cluster, join/drain/kill races)"
    cargo run -q --release -p ompss-chaos --bin chaos -- --churn perlin stream
}

bench() {
    echo "==> serve --bench (daemon throughput vs committed BENCH_serve.json, -20% budget)"
    cargo run -q --release -p ompss-serve --bin serve -- --bench --check --jobs 4
}

serve() {
    echo "==> ompss-serve soak (500 mixed-priority jobs, overload bursts, cancels, drain)"
    cargo run -q --release -p ompss-serve --bin serve -- --soak 500 --jobs 4
}

scale() {
    echo "==> 1000-node cluster demonstration (release, in-memory)"
    cargo test -q --release -p ompss-runtime --test runtime_tests -- --ignored thousand_node
    echo "==> 1M stackless processes (release, peak-RSS growth < 512 MiB)"
    cargo test -q --release -p ompss-sim --test spawn_scale -- --ignored
    echo "==> weak scaling at 64 nodes (sharded control plane must beat the flat master)"
    cargo test -q --release -p ompss-apps --lib -- --ignored weak_scaling
    echo "==> master host cost 4->256 nodes (flat matmul_ws host us/task at 256 nodes <= 3x at 4)"
    cargo test -q --release -p ompss-apps --lib -- --ignored --exact \
        ws::tests::host_cost_per_task_at_256_nodes_within_3x_of_4_nodes
}

mc() {
    echo "==> ompss-mc (matmul+stream, 2-node cluster, >=1000 interleavings each)"
    cargo run -q --release -p ompss-mc --bin mc -- \
        --apps matmul,stream --nodes 2 --max-interleavings 1200 --min-interleavings 1000
}

hostbench() {
    echo "==> hostbench tests (a package outside the workspace that compiles against crates/*)"
    cargo test --release -q --manifest-path hostbench/Cargo.toml
}

mc_defects() {
    echo "==> ompss-mc seeded-defect corpus (cfg mc_defects build)"
    RUSTFLAGS="--cfg mc_defects" CARGO_TARGET_DIR=target/mc-defects \
        cargo test -q -p ompss-mc --test defects
}

# A named stage runs alone; `quick` or no argument runs the suite.
stages=(verify chaos churn bench scale mc serve hostbench mc_defects)
if [[ -n "${1:-}" && "$1" != quick ]]; then
    if [[ " ${stages[*]} " != *" $1 "* ]]; then
        echo "ci.sh: unknown stage '$1'; valid stages: quick ${stages[*]}" >&2
        exit 2
    fi
    "$1"
    echo "CI green."
    exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# hostbench/ sits outside the workspace, so the workspace build never
# compiles it; check it here so a bound change that breaks it fails fast.
echo "==> cargo check hostbench (outside the workspace, compiles against crates/*)"
cargo check --release --manifest-path hostbench/Cargo.toml --all-targets

if [[ "${1:-}" != "quick" ]]; then
    echo "==> cargo build --release"
    cargo build --release
    scale
fi

echo "==> cargo test"
cargo test --workspace -q

verify

chaos

churn

mc

serve

if [[ "${1:-}" != "quick" ]]; then
    mc_defects
    hostbench
fi

echo "CI green."
