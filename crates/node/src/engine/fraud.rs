//! The fraud component: §4.5 equivocation detection and poison transactions.
//!
//! It owns the `(parent, leader)` microblock sightings, the accepted poison
//! records and the proofs parked until their epoch can be attributed. It reads the
//! block tree and writes the poison's ledger effect (revocation, bounty) through
//! the [`Chain`] it is handed, and floods over the [`Relay`]'s ready peers.

use super::chain::Chain;
use super::relay::Relay;
use super::{Effect, ReportEvent};
use ng_chain::amount::Amount;
use ng_chain::fifo::BoundedFifoMap;
use ng_chain::transaction::OutPoint;
use ng_core::block::NgBlock;
use ng_core::poison::{poison_effect, PoisonError, PoisonTransaction};
use ng_crypto::keys::KeyPair;
use ng_crypto::sha256::Hash256;
use ng_net::message::Message;
use std::collections::BTreeMap;

/// Cap on tracked `(parent, leader)` → first-seen-microblock sightings for
/// equivocation detection. Entries outlive their usefulness once the epoch
/// closes; eviction drops the **oldest** sighting (insertion order), so
/// sustained load sheds closed-epoch entries first and never silently disables
/// detection for a still-active key that merely sorts low.
const MAX_MICRO_SIGHTINGS: usize = 4096;

/// Cap on recorded poisons. The protocol admits at most one poison per cheater
/// per epoch (§4.5), so this is reached only if hundreds of distinct leaders
/// cheat in distinct epochs; past it, further poisons are rejected.
const MAX_POISON_RECORDS: usize = 256;

/// Cap on poisons parked while their epoch key block is still unknown (a node
/// mid-sync receiving the flood before the history it judges against).
const MAX_PENDING_POISONS: usize = 64;

/// Cap on poisons parked under one unknown fork point. A small list (rather
/// than a single smallest-txid slot) keeps a genuine proof parked even when an
/// attacker grinds competitors with smaller txids under the same parent key —
/// displacing it would take [`MAX_PENDING_PER_PARENT`] shape-valid forgeries
/// that all sort below it.
const MAX_PENDING_PER_PARENT: usize = 4;

/// An accepted fraud proof and the statically determined facts its ledger
/// effect derives from. The canonical poison per `(cheater, epoch)` is the one
/// with the smallest [`PoisonTransaction::txid`]: several honest nodes can
/// detect the same equivocation simultaneously and each names itself poisoner,
/// so convergence needs a total order, and min-txid is one every node computes
/// identically. A smaller-txid competitor replaces the incumbent (its bounty is
/// reverted) and is re-flooded; anything else is dropped, so the flood
/// terminates and the network converges on the minimum.
#[derive(Clone, Debug)]
struct PoisonRecord {
    /// The canonical fraud proof.
    poison: PoisonTransaction,
    /// Cached [`PoisonTransaction::txid`]; the bounty is minted at `(txid, 0)`.
    txid: Hash256,
    /// The epoch key block whose coinbase pays the revoked revenue.
    epoch_id: Hash256,
    /// Height of that key block — the bounty entry's height, so every node's
    /// entry digest matches no matter when it applied the poison.
    epoch_height: u64,
    /// The statically determined revocable amount.
    revoked: Amount,
    /// The poisoner's bounty (`poison_reward_percent` of `revoked`).
    reward: Amount,
}

/// Equivocation sightings and the fraud proofs built or received from them.
#[derive(Debug)]
pub(super) struct Fraud {
    /// First-seen microblock id per `(parent, leader)`. A second distinct id under
    /// the same key is an equivocation: the leader signed two microblocks at the
    /// same height (§4.5), and this node constructs the fraud proof. Oldest-first
    /// eviction at [`MAX_MICRO_SIGHTINGS`].
    micro_sightings: BoundedFifoMap<(Hash256, u64), Hash256>,
    /// Canonical accepted poison per `(accused leader, epoch key block)` — see
    /// [`PoisonRecord`] for the min-txid convergence rule. Re-asserted against the
    /// main chain after every ledger roll.
    // ng-lint: bound(MAX_POISON_RECORDS)
    poisons: BTreeMap<(u64, Hash256), PoisonRecord>,
    /// Poisons whose epoch cannot be attributed yet, keyed by the unknown parent
    /// block id and retried when that block arrives. Each parent keeps a short
    /// txid-sorted list ([`MAX_PENDING_PER_PARENT`]) of `(txid, proof)` pairs;
    /// only shape-valid conflicts ([`PoisonTransaction::check_conflict`]) are
    /// parked, so unverifiable garbage cannot displace a genuine proof.
    // ng-lint: bound(MAX_PENDING_POISONS)
    pending_poisons: BTreeMap<Hash256, Vec<(Hash256, PoisonTransaction)>>,
}

impl Fraud {
    /// No sightings, no records, nothing parked.
    pub(super) fn new() -> Self {
        Fraud {
            micro_sightings: BoundedFifoMap::new(MAX_MICRO_SIGHTINGS),
            poisons: BTreeMap::new(),
            pending_poisons: BTreeMap::new(),
        }
    }

    /// The `(accused leader, epoch key block)` keys of every recorded poison.
    pub(super) fn poisoned(&self) -> Vec<(u64, Hash256)> {
        self.poisons.keys().copied().collect()
    }

    /// Total revenue revoked across every recorded poison (the statically
    /// determined amounts, not live balances).
    pub(super) fn revoked_total(&self) -> Amount {
        self.poisons
            .values()
            .fold(Amount::ZERO, |acc, record| acc + record.revoked)
    }

    /// Hands a freshly handshaken peer every recorded fraud proof: floods are
    /// one-shot, so without this a node that was dark (eclipsed, crashed,
    /// late-joining) while a poison spread would never revoke the cheater and its
    /// commitment would diverge forever. Bounded by [`MAX_POISON_RECORDS`];
    /// duplicates are dropped without relay on the receiving side.
    pub(super) fn offer_records(&self, peer: u64, effects: &mut Vec<Effect>) {
        for record in self.poisons.values() {
            effects.push(Effect::Send {
                peer,
                message: Message::Poison(Box::new(record.poison.clone())),
            });
        }
    }

    /// Block `id` joined the tree. A microblock is checked against the sightings
    /// under its `(parent, leader)` key — a stored sibling is proof of
    /// equivocation — and proofs parked under `id` as their unknown fork point
    /// are retried.
    pub(super) fn block_stored(
        &mut self,
        chain: &mut Chain,
        relay: &Relay,
        micro_key: Option<(Hash256, u64)>,
        id: Hash256,
        effects: &mut Vec<Effect>,
    ) {
        if let Some(key) = micro_key {
            self.detect_equivocation(chain, relay, key, id, effects);
        }
        if let Some(parked) = self.pending_poisons.remove(&id) {
            for (_, poison) in parked {
                self.adopt(chain, relay, None, poison, effects);
            }
        }
    }

    /// The ledger view moved. The roll may have taken the epoch key block of a
    /// recorded poison on or off the main chain, so every record is re-asserted
    /// before the new view state is persisted; it may also have made a parked
    /// proof attributable (its fork point connected as part of a multi-block
    /// adoption), so the whole parked set is retried — anything still
    /// unattributable re-parks via the same bounded path.
    pub(super) fn ledger_rolled(
        &mut self,
        chain: &mut Chain,
        relay: &Relay,
        effects: &mut Vec<Effect>,
    ) {
        self.assert_on(chain);
        if !self.pending_poisons.is_empty() {
            let parked: Vec<PoisonTransaction> = std::mem::take(&mut self.pending_poisons)
                .into_values()
                .flatten()
                .map(|(_, poison)| poison)
                .collect();
            for poison in parked {
                self.adopt(chain, relay, None, poison, effects);
            }
        }
    }

    /// Records a stored microblock's `(parent, leader)` sighting; a second distinct
    /// microblock under the same key is an equivocation and this node constructs
    /// the fraud proof from **both** signed siblings. The evidence is therefore
    /// self-contained — two conflicting headers under one parent, both signed by
    /// the leader — and validates network-wide regardless of which sibling any
    /// particular node's main chain carries.
    fn detect_equivocation(
        &mut self,
        chain: &mut Chain,
        relay: &Relay,
        key: (Hash256, u64),
        id: Hash256,
        effects: &mut Vec<Effect>,
    ) {
        match self.micro_sightings.get(&key).copied() {
            None => {
                self.micro_sightings.insert(key, id);
            }
            Some(first) if first == id => {}
            Some(first) => {
                let node = chain.node();
                let (Some(a), Some(b)) = (
                    node.chain().get(&first).and_then(NgBlock::as_micro),
                    node.chain().get(&id).and_then(NgBlock::as_micro),
                ) else {
                    return;
                };
                let Some(poison) = node.build_poison(a, b) else {
                    return;
                };
                effects.push(Effect::Report(ReportEvent::PoisonDetected {
                    accused: poison.accused_leader,
                    txid: poison.txid(),
                }));
                self.adopt(chain, relay, None, poison, effects);
            }
        }
    }

    /// Validates a poison transaction (locally constructed or delivered by a peer)
    /// and, if it is the canonical one for its `(cheater, epoch)`, records it,
    /// applies the revenue revocation to the ledger view and floods it onward.
    /// `origin` is the delivering link (excluded from the flood); `None` marks a
    /// locally constructed or re-tried poison.
    pub(super) fn adopt(
        &mut self,
        chain: &mut Chain,
        relay: &Relay,
        origin: Option<u64>,
        poison: PoisonTransaction,
        effects: &mut Vec<Effect>,
    ) {
        let txid = poison.txid();
        let (epoch_id, revoked) = match chain.node().validate_poison(&poison) {
            Ok(verdict) => verdict,
            Err(err @ PoisonError::UnknownParent) => {
                // Transient: this node is behind and cannot attribute the epoch
                // yet. Park the proof instead of dropping it — floods are
                // one-shot and never repeat — and retry when the fork point
                // arrives (and after every ledger roll). Only shape-valid
                // conflicts park: garbage that could never validate must not
                // occupy (or displace anything from) the bounded buffer.
                // An overflow just drops the proof (the flood is redundant, and
                // a fresh handshake re-offers every record).
                if poison.check_conflict().is_ok() {
                    self.park(txid, poison);
                }
                effects.push(Effect::Report(ReportEvent::PoisonRejected {
                    reason: format!("{err} (parked)"),
                }));
                return;
            }
            Err(err) => {
                effects.push(Effect::Report(ReportEvent::PoisonRejected {
                    reason: err.to_string(),
                }));
                return;
            }
        };
        let key = (poison.accused_leader, epoch_id);
        match self.poisons.get(&key) {
            Some(existing) if existing.txid <= txid => {
                // A duplicate of the canonical poison, or a losing competitor:
                // drop without relaying, so the flood terminates.
                effects.push(Effect::Report(ReportEvent::PoisonRejected {
                    reason: if existing.txid == txid {
                        "duplicate poison".to_string()
                    } else {
                        "losing competitor of the canonical poison".to_string()
                    },
                }));
                return;
            }
            Some(existing) => {
                // Smaller txid wins: revert the incumbent's bounty and replace
                // it — unless that bounty already matured and was spent, in
                // which case its value is irrevocably in circulation and
                // minting a replacement bounty would inflate the supply. The
                // late competitor is rejected instead; the network keeps the
                // incumbent it converged on.
                let old_outpoint = OutPoint::new(existing.txid, 0);
                if chain.view().bounty_spent(&old_outpoint) {
                    effects.push(Effect::Report(ReportEvent::PoisonRejected {
                        reason: "canonical poison bounty already spent; competitor too late"
                            .to_string(),
                    }));
                    return;
                }
                chain.ledger_mut().1.revert_poison_reward(&old_outpoint);
                self.poisons.remove(&key);
            }
            None => {
                if self.poisons.len() >= MAX_POISON_RECORDS {
                    effects.push(Effect::Report(ReportEvent::PoisonRejected {
                        reason: "poison record capacity reached".to_string(),
                    }));
                    return;
                }
            }
        }
        let Some(epoch_height) = chain.node().chain().store().height_of(&epoch_id) else {
            effects.push(Effect::Report(ReportEvent::PoisonRejected {
                reason: "epoch key block height unknown".to_string(),
            }));
            return;
        };
        let params = chain.node().chain().params();
        let reward = poison_effect(poison.accused_leader, revoked, params).poisoner_reward;
        self.poisons.insert(
            key,
            PoisonRecord {
                poison: poison.clone(),
                txid,
                epoch_id,
                epoch_height,
                revoked,
                reward,
            },
        );
        self.assert_on(chain);
        effects.push(Effect::Report(ReportEvent::PoisonAccepted {
            accused: poison.accused_leader,
            revoked_sats: revoked.sats(),
        }));
        flood(relay, origin, poison, txid, effects);
    }

    /// Parks a shape-valid proof whose epoch cannot be attributed yet under its
    /// fork-point key. Each parent keeps the [`MAX_PENDING_PER_PARENT`] smallest
    /// txids in sorted order; the global entry count stays under
    /// [`MAX_PENDING_POISONS`] by shedding the largest parked txid across all
    /// parents — deterministic, and the entry least likely to win adoption.
    fn park(&mut self, txid: Hash256, poison: PoisonTransaction) {
        let parent = poison.parent();
        let list = self.pending_poisons.entry(parent).or_default();
        if let Err(at) = list.binary_search_by(|(parked, _)| parked.cmp(&txid)) {
            if at < MAX_PENDING_PER_PARENT {
                list.insert(at, (txid, poison));
                list.truncate(MAX_PENDING_PER_PARENT);
            }
        }
        if list.is_empty() {
            self.pending_poisons.remove(&parent);
            return;
        }
        loop {
            let total: usize = self.pending_poisons.values().map(Vec::len).sum();
            if total <= MAX_PENDING_POISONS {
                break;
            }
            let Some((_, worst_parent)) = self
                .pending_poisons
                .iter()
                .filter_map(|(p, l)| l.last().map(|(t, _)| (*t, *p)))
                .max()
            else {
                break;
            };
            if let Some(l) = self.pending_poisons.get_mut(&worst_parent) {
                l.pop();
                if l.is_empty() {
                    self.pending_poisons.remove(&worst_parent);
                }
            }
        }
    }

    /// Re-asserts every recorded poison against the current main chain: while the
    /// epoch key block is on the main chain the revocation holds (idempotently —
    /// a reorg that reconnects the key block resurrects the cheater's outputs via
    /// its undo/connect cycle, and they are removed again here); while it is off
    /// the main chain the bounty is reverted (the revoked outputs themselves were
    /// rewound by the disconnect). The evidence itself is chain-independent — two
    /// conflicting signed headers prove the equivocation no matter which sibling
    /// the current main chain carries — so the epoch key block's membership is the
    /// *only* chain-dependent input. Runs after every ledger roll, so the ledger
    /// effect of a poison is a pure function of (main chain, poison set) and
    /// every honest node's commitment converges.
    fn assert_on(&self, chain: &mut Chain) {
        if self.poisons.is_empty() {
            return;
        }
        let (node, view) = chain.ledger_mut();
        for record in self.poisons.values() {
            let reward_outpoint = OutPoint::new(record.txid, 0);
            if node.chain().store().is_in_main_chain(&record.epoch_id) {
                let Some(NgBlock::Key(kb)) = node.chain().get(&record.epoch_id) else {
                    continue;
                };
                view.apply_poison_revocation(
                    kb,
                    record.epoch_id,
                    record.epoch_height,
                    reward_outpoint,
                    record.reward,
                    KeyPair::from_id(record.poison.poisoner).address(),
                );
            } else {
                view.revert_poison_reward(&reward_outpoint);
            }
        }
    }
}

/// Floods a poison transaction to every ready peer except the link it arrived
/// on. Poisons never take the overlay: a fraud proof must reach every honest
/// node even when eager links are degraded, and its size makes the flood cheap.
fn flood(
    relay: &Relay,
    origin: Option<u64>,
    poison: PoisonTransaction,
    txid: Hash256,
    effects: &mut Vec<Effect>,
) {
    let message = Message::Poison(Box::new(poison));
    let mut relayed = false;
    for peer in relay.ready_peers() {
        if Some(peer) == origin {
            continue;
        }
        effects.push(Effect::Send {
            peer,
            message: message.clone(),
        });
        relayed = true;
    }
    if relayed {
        effects.push(Effect::Report(ReportEvent::PoisonRelayed { txid }));
    }
}
