#!/usr/bin/env bash
# Tier-1 verification for the Bitcoin-NG reproduction workspace.
#
# Mirrors .github/workflows/ci.yml so the same gate runs locally and in CI:
#   0. the size gate: product LOC ratchet and the engine's per-module product-line limit
#   1. release build of every crate and target
#   2. the full test suite (facade integration tests + every crate's unit tests)
#   3. the live-network suites under explicit timeouts
#   4. the stand-alone pipeline benchmark (bench/) builds and passes its smoke run;
#      bench/Cargo.lock is put back afterwards — bench/ builds without --locked,
#      so cargo rewrites that file in place whenever the workspace's dependency
#      graph differs from the one recorded there, and nothing under bench/ may
#      change outside a [benchmark] PR. A local run leaves `git status` clean.
#   5. clippy with warnings denied
#
# The workspace has no registry dependencies (everything external is vendored
# under vendor/), so this runs fully offline.
#
# The net/attacks suites and the node crate's loopback-convergence suite open
# real sockets and run multi-threaded event loops; each runs under `timeout` so
# a hung socket loop fails the gate fast instead of wedging the workflow. The
# SimNet suites are socket-free and deterministic, so they run bare.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> scripts/loc.sh --check (product LOC at or below the recorded total; every engine module at most 500 product lines)"
scripts/loc.sh --check

echo "==> cargo build --release"
cargo build --release

echo "==> ng-lint (deny-all invariant gate: sans-io, determinism, bounds, panics, wire coverage, vendor lock)"
cargo run -q --release -p ng_lint --bin ng-lint

echo "==> ng-lint self-test (lexer, rule fixtures with goldens, seeded-violation acceptance checks)"
cargo test -q -p ng_lint

echo "==> cargo test -q (facade: integration + property suites)"
timeout 900 cargo test -q

echo "==> cargo test --workspace -q (all crates except the timed live-network suites)"
timeout 1200 cargo test --workspace -q \
  --exclude ng_net --exclude ng_node --exclude ng_attacks

echo "==> cargo test -p ng_net -q (codec round-trip properties, 120s budget)"
timeout 120 cargo test -q -p ng_net

echo "==> cargo test -p ng_node -q --lib --bins (pure engine + driver units, socket-free)"
cargo test -q -p ng_node --lib --bins

echo "==> SimNet determinism + seed-sweep suites (socket-free and deterministic: no timeout wrapper needed)"
cargo test -q -p ng_node --test simnet_determinism
cargo test -q -p ng_node --test simnet_scenarios

echo "==> fast-sync suite (headers-first parallel download, stalling-peer eviction, snapshot bootstrap; SimNet, socket-free)"
cargo test -q -p ng_node --test fast_sync

echo "==> gossip-scale suite (100-node compact relay + overlay vs flood, self-heal, loss/churn sweep; SimNet, socket-free)"
cargo test -q -p ng_node --test gossip_scale

echo "==> chainstate differential suite (incremental view ≡ rebuild-from-genesis oracle)"
cargo test -q -p ng_node --test chainstate_equivalence

echo "==> crash-recovery suite (proptest-driven kill/truncate/reopen vs in-memory oracle; scratch datadirs under \$TMPDIR, removed on drop)"
timeout 300 cargo test -q -p ng_node --test crash_recovery

echo "==> crypto differential suite (comb/wNAF/Strauss/Pippenger/batch ≡ double-and-add oracle)"
cargo test -q -p ng_crypto --release --test scalar_mul_oracle

echo "==> cargo test -p ng_node -q --test testnet_convergence (loopback sockets, 300s budget)"
timeout 300 cargo test -q -p ng_node --test testnet_convergence

echo "==> cargo test -p ng_attacks -q (attack scenarios vs paper bounds, 300s budget)"
timeout 300 cargo test -q -p ng_attacks

echo "==> chaos suite (fault injection + equivocation fraud proofs: 16-seed sweep, eclipse, churn, long-range rewrite; SimNet, socket-free)"
timeout 300 cargo test -q -p ng_attacks --test chaos_scenarios
timeout 300 cargo test -q -p ng_node --test chaos_durability

echo "==> cargo build --workspace --all-targets (benches, bins, examples)"
cargo build --workspace --all-targets

echo "==> bench snapshot smoke (ledger_snapshot emits valid JSON and --assert-fast pins the crypto fast paths; committed BENCH_ledger.json untouched)"
timeout 300 ./scripts/bench_snapshot.sh --smoke

echo "==> pipeline benchmark builds and smokes against this tree (bench/ is its own package; a PR that breaks the surface it compiles against fails here, not in the benchmark run)"
bench_lock=$(mktemp)
cp bench/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" bench/Cargo.lock; rm -f "$bench_lock"' EXIT
cargo build --release --offline --manifest-path bench/Cargo.toml
timeout 600 bench/run.sh --smoke

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI checks passed."
