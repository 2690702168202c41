//! The fraud component: §4.5 equivocation detection and poison transactions.

use ng_chain::amount::Amount;
use ng_chain::fifo::BoundedFifoMap;
use ng_core::poison::PoisonTransaction;
use ng_crypto::sha256::Hash256;
use std::collections::BTreeMap;

/// Cap on tracked `(parent, leader)` → first-seen-microblock sightings for
/// equivocation detection. Entries outlive their usefulness once the epoch
/// closes; eviction drops the **oldest** sighting (insertion order), so
/// sustained load sheds closed-epoch entries first and never silently disables
/// detection for a still-active key that merely sorts low.
pub(super) const MAX_MICRO_SIGHTINGS: usize = 4096;

/// Cap on recorded poisons. The protocol admits at most one poison per cheater
/// per epoch (§4.5), so this is reached only if hundreds of distinct leaders
/// cheat in distinct epochs; past it, further poisons are rejected.
pub(super) const MAX_POISON_RECORDS: usize = 256;

/// Cap on poisons parked while their epoch key block is still unknown (a node
/// mid-sync receiving the flood before the history it judges against).
pub(super) const MAX_PENDING_POISONS: usize = 64;

/// Cap on poisons parked under one unknown fork point. A small list (rather
/// than a single smallest-txid slot) keeps a genuine proof parked even when an
/// attacker grinds competitors with smaller txids under the same parent key —
/// displacing it would take [`MAX_PENDING_PER_PARENT`] shape-valid forgeries
/// that all sort below it.
pub(super) const MAX_PENDING_PER_PARENT: usize = 4;

/// An accepted fraud proof and the statically determined facts its ledger
/// effect derives from. The canonical poison per `(cheater, epoch)` is the one
/// with the smallest [`PoisonTransaction::txid`]: several honest nodes can
/// detect the same equivocation simultaneously and each names itself poisoner,
/// so convergence needs a total order, and min-txid is one every node computes
/// identically. A smaller-txid competitor replaces the incumbent (its bounty is
/// reverted) and is re-flooded; anything else is dropped, so the flood
/// terminates and the network converges on the minimum.
#[derive(Clone, Debug)]
pub(super) struct PoisonRecord {
    /// The canonical fraud proof.
    pub(super) poison: PoisonTransaction,
    /// Cached [`PoisonTransaction::txid`]; the bounty is minted at `(txid, 0)`.
    pub(super) txid: Hash256,
    /// The epoch key block whose coinbase pays the revoked revenue.
    pub(super) epoch_id: Hash256,
    /// Height of that key block — the bounty entry's height, so every node's
    /// entry digest matches no matter when it applied the poison.
    pub(super) epoch_height: u64,
    /// The statically determined revocable amount.
    pub(super) revoked: Amount,
    /// The poisoner's bounty (`poison_reward_percent` of `revoked`).
    pub(super) reward: Amount,
}

/// Equivocation sightings and the fraud proofs built or received from them.
#[derive(Debug)]
pub(super) struct Fraud {
    /// First-seen microblock id per `(parent, leader)`. A second distinct id under
    /// the same key is an equivocation: the leader signed two microblocks at the
    /// same height (§4.5), and this node constructs the fraud proof. Oldest-first
    /// eviction at [`MAX_MICRO_SIGHTINGS`].
    pub(super) micro_sightings: BoundedFifoMap<(Hash256, u64), Hash256>,
    /// Canonical accepted poison per `(accused leader, epoch key block)` — see
    /// [`PoisonRecord`] for the min-txid convergence rule. Re-asserted against the
    /// main chain after every ledger roll.
    // ng-lint: bound(MAX_POISON_RECORDS)
    pub(super) poisons: BTreeMap<(u64, Hash256), PoisonRecord>,
    /// Poisons whose epoch cannot be attributed yet, keyed by the unknown parent
    /// block id and retried when that block arrives. Each parent keeps a short
    /// txid-sorted list ([`MAX_PENDING_PER_PARENT`]) of `(txid, proof)` pairs;
    /// only shape-valid conflicts ([`PoisonTransaction::check_conflict`]) are
    /// parked, so unverifiable garbage cannot displace a genuine proof.
    // ng-lint: bound(MAX_PENDING_POISONS)
    pub(super) pending_poisons: BTreeMap<Hash256, Vec<(Hash256, PoisonTransaction)>>,
}
