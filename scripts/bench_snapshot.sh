#!/usr/bin/env bash
# Snapshot the hot-path latencies (crypto backend + incremental chainstate) into
# BENCH_ledger.json so the perf trajectory is tracked in-repo from PR 4 on.
#
#   scripts/bench_snapshot.sh              # full run (200 iterations) → BENCH_ledger.json
#   scripts/bench_snapshot.sh --smoke      # tiny run for CI: verifies the tool works
#                                          # AND asserts the crypto fast paths have not
#                                          # regressed (--assert-fast); writes to a temp
#                                          # file, never touches the committed snapshot
#
# The emitted JSON (schema bench_ledger/v5) holds medians of:
#   * schnorr_sign_us / schnorr_verify_us — one Schnorr signing (fixed-base comb) and
#     one verification (Strauss–Shamir double-scalar multiplication)
#   * verify_batch_256_us — 256 signatures checked as one random-linear-combination
#     batch (a single Pippenger multi-scalar pass)
#   * microblock_cycle_4tx_us.chain_16 / .chain_1024 — one full leader cycle
#     (4 tx submits + signed microblock + ledger roll) at two chain depths; their
#     ratio (depth_ratio ≈ 1.0) is the flatness claim of the incremental chainstate
#   * microblock_cycle_256tx_us — producing and fully validating a 256-signature
#     microblock through the batched + worker-pool connect
#   * connect_256tx — the batched+parallel connect vs sequential per-signature
#     verification, with the measured speedup and the worker count it used
#   * reorg_depth8_us — an 8-block undo-record rewind + rival-epoch connect
#   * ledger_replay_from_genesis_1024_us — the old per-tip-change in-memory replay
#     cost, for contrast with the incremental view
#   * rebuild_from_genesis_1024_us / restart_to_tip_us — cold reopen of a durable
#     1024-block datadir without vs with UTXO snapshot checkpoints, plus their
#     ratio (restart_speedup_vs_rebuild); --assert-fast pins the ratio ≥ 5x
#   * cold_sync_to_tip_1024_us — a fresh node joining an established SimNet,
#     in deterministic simulated time: serial download (one peer, one request
#     in flight) vs the headers-first parallel download vs snapshot bootstrap,
#     plus snapshot bootstrap at depth 128 and the 1024/128 ratio
#     (snapshot_depth_ratio); --assert-fast pins parallel ≥ 4x serial, snapshot
#     ≤ parallel, and the depth ratio ≤ 2 (near-flat onboarding)
#   * propagation_100 / propagation_1000 — one leader microblock propagating
#     through a degree-8 SimNet in deterministic simulated time: classic full-
#     carrier flood vs the compact-relay + eager/lazy overlay stack, with
#     coverage, p50/p99 delay, per-node relay bytes, and the flood-vs-overlay
#     byte reduction; --assert-fast pins reduction ≥ 5x and coverage ≥ 0.99 at
#     both 100 and 1000 nodes
#   * tx_relay_mesh4 — 200 transactions relayed through a 4-node full mesh
#     (links 2–20 virtual ms, no blocks): tx bodies, inv + getdata + tx
#     messages and wire bytes per transaction, and the median virtual time from
#     submit to "in every mempool"; the first-hop push (current) beside the
#     values PR 14 measured when every hop was announced

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_ledger.json"
ITERS=200
EXTRA=()
if [[ "${1:-}" == "--smoke" ]]; then
    OUT="$(mktemp /tmp/bench_ledger.XXXXXX.json)"
    ITERS=5
    EXTRA+=("--assert-fast")
fi

echo "==> cargo run --release -p ng_bench --bin ledger_snapshot -- --iters ${ITERS} ${EXTRA[*]:-}"
cargo run --release -q -p ng_bench --bin ledger_snapshot -- --iters "${ITERS}" ${EXTRA[@]:+"${EXTRA[@]}"} > "${OUT}"

echo "==> wrote ${OUT}:"
cat "${OUT}"
