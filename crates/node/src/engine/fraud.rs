//! The fraud component: §4.5 equivocation detection and poison transactions.
//!
//! It owns the `(parent, leader)` microblock sightings, the accepted poison
//! records and the proofs parked until their epoch can be attributed. It reads the
//! block tree and writes the poison's ledger effect (revocation, bounty) through
//! the [`Chain`] it is handed, and floods over the [`Relay`]'s ready peers.

use super::chain::Chain;
use super::relay::Relay;
use super::{report, send, Effect, ReportEvent};
use ng_chain::amount::Amount;
use ng_chain::fifo::BoundedFifoMap;
use ng_chain::transaction::OutPoint;
use ng_core::block::NgBlock;
use ng_core::node::NgNode;
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
            send(effects, peer, Message::Poison(Box::new(record.poison.clone())));
        }
    }

    /// Block `id` joined the tree. A microblock is checked against the sightings
    /// under its `(parent, leader)` key — a stored sibling is proof of
    /// equivocation, and this node constructs the fraud proof — and proofs parked
    /// under `id` as their unknown fork point are retried.
    pub(super) fn block_stored(
        &mut self,
        chain: &mut Chain,
        relay: &Relay,
        micro_key: Option<(Hash256, u64)>,
        id: Hash256,
        effects: &mut Vec<Effect>,
    ) {
        if let Some(poison) = micro_key.and_then(|key| self.sight(chain.node(), key, id)) {
            let (accused, txid) = (poison.accused_leader, poison.txid());
            report(effects, ReportEvent::PoisonDetected { accused, txid });
            self.adopt(chain, relay, None, poison, effects);
        }
        for (_, poison) in self.pending_poisons.remove(&id).unwrap_or_default() {
            self.adopt(chain, relay, None, poison, effects);
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
        let parked = std::mem::take(&mut self.pending_poisons);
        for (_, poison) in parked.into_values().flatten() {
            self.adopt(chain, relay, None, poison, effects);
        }
    }

    /// Records a stored microblock's `(parent, leader)` sighting; a second distinct
    /// microblock under the same key is an equivocation, and the fraud proof is
    /// built from **both** signed siblings. The evidence is therefore
    /// self-contained — two conflicting headers under one parent, both signed by
    /// the leader — and validates network-wide regardless of which sibling any
    /// particular node's main chain carries.
    fn sight(
        &mut self,
        node: &NgNode,
        key: (Hash256, u64),
        id: Hash256,
    ) -> Option<PoisonTransaction> {
        let first = match self.micro_sightings.get(&key) {
            Some(first) if *first != id => *first,
            Some(_) => return None,
            None => {
                self.micro_sightings.insert(key, id);
                return None;
            }
        };
        let a = node.chain().get(&first).and_then(NgBlock::as_micro)?;
        let b = node.chain().get(&id).and_then(NgBlock::as_micro)?;
        node.build_poison(a, b)
    }

    /// Validates a poison transaction (locally constructed or delivered by a peer)
    /// and, if it is the canonical one for its `(cheater, epoch)`, records it,
    /// applies the revenue revocation to the ledger view and floods it onward.
    /// `origin` is the delivering link (excluded from the flood); `None` marks a
    /// locally constructed or re-tried poison. A proof that is not adopted is
    /// reported with the reason.
    pub(super) fn adopt(
        &mut self,
        chain: &mut Chain,
        relay: &Relay,
        origin: Option<u64>,
        poison: PoisonTransaction,
        effects: &mut Vec<Effect>,
    ) {
        let (accused, txid) = (poison.accused_leader, poison.txid());
        let revoked = match self.record(chain, txid, &poison) {
            Ok(revoked) => revoked,
            Err(reason) => return report(effects, ReportEvent::PoisonRejected { reason }),
        };
        let revoked_sats = revoked.sats();
        report(effects, ReportEvent::PoisonAccepted { accused, revoked_sats });
        // Flood to every ready peer except the link the proof arrived on. Poisons
        // never take the overlay: a fraud proof must reach every honest node even
        // when eager links are degraded, and its size makes the flood cheap.
        let message = Message::Poison(Box::new(poison));
        let before = effects.len();
        for peer in relay.ready().filter(|peer| Some(*peer) != origin) {
            send(effects, peer, message.clone());
        }
        if effects.len() > before {
            report(effects, ReportEvent::PoisonRelayed { txid });
        }
    }

    /// Judges a poison and, if it is valid and canonical, records it and applies
    /// its ledger effect; returns the revoked amount, or why the proof was dropped.
    fn record(
        &mut self,
        chain: &mut Chain,
        txid: Hash256,
        poison: &PoisonTransaction,
    ) -> Result<Amount, String> {
        let (epoch_id, revoked) = match chain.node().validate_poison(poison) {
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
                    self.park(txid, poison.clone());
                }
                return Err(format!("{err} (parked)"));
            }
            Err(err) => return Err(err.to_string()),
        };
        let key = (poison.accused_leader, epoch_id);
        match self.poisons.get(&key) {
            // A duplicate of the canonical poison, or a losing competitor: dropped
            // without relaying, so the flood terminates.
            Some(existing) if existing.txid == txid => return Err("duplicate poison".into()),
            Some(existing) if existing.txid < txid => {
                return Err("losing competitor of the canonical poison".into());
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
                    return Err("canonical poison bounty already spent; competitor too late".into());
                }
                chain.ledger_mut().1.revert_poison_reward(&old_outpoint);
                self.poisons.remove(&key);
            }
            None if self.poisons.len() >= MAX_POISON_RECORDS => {
                return Err("poison record capacity reached".into());
            }
            None => {}
        }
        let tree = chain.node().chain();
        let Some(epoch_height) = tree.store().height_of(&epoch_id) else {
            return Err("epoch key block height unknown".into());
        };
        let reward = poison_effect(poison.accused_leader, revoked, tree.params()).poisoner_reward;
        let record = PoisonRecord {
            poison: poison.clone(),
            txid,
            epoch_id,
            epoch_height,
            revoked,
            reward,
        };
        self.poisons.insert(key, record);
        self.assert_on(chain);
        Ok(revoked)
    }

    /// Parks a shape-valid proof whose epoch cannot be attributed yet under its
    /// fork-point key. Each parent keeps the [`MAX_PENDING_PER_PARENT`] smallest
    /// txids in sorted order; the global entry count stays under
    /// [`MAX_PENDING_POISONS`] by shedding the largest parked txid across all
    /// parents — deterministic, and the entry least likely to win adoption.
    fn park(&mut self, txid: Hash256, poison: PoisonTransaction) {
        let list = self.pending_poisons.entry(poison.parent()).or_default();
        if let Err(at) = list.binary_search_by(|(parked, _)| parked.cmp(&txid)) {
            if at < MAX_PENDING_PER_PARENT {
                list.insert(at, (txid, poison));
                list.truncate(MAX_PENDING_PER_PARENT);
            }
        }
        // At most one entry was added, so at most one has to go.
        let total: usize = self.pending_poisons.values().map(Vec::len).sum();
        if total <= MAX_PENDING_POISONS {
            return;
        }
        let worst = self
            .pending_poisons
            .iter()
            .filter_map(|(parent, list)| list.last().map(|(txid, _)| (*txid, *parent)))
            .max();
        if let Some((_, parent)) = worst {
            if let Some(list) = self.pending_poisons.get_mut(&parent) {
                list.pop();
                if list.is_empty() {
                    self.pending_poisons.remove(&parent);
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

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::EngineConfig;
    use super::*;
    use ng_core::block::MicroHeader;
    use ng_crypto::sha256::sha256;
    use ng_crypto::signer::{SchnorrSigner, SignatureBytes};

    /// The fraud component with the two siblings it is handed, nothing else.
    fn component() -> (Fraud, Chain, Relay) {
        let cfg = EngineConfig::new(1, params());
        (Fraud::new(), Chain::new(&cfg), Relay::new(&cfg))
    }

    /// Two headers of `leader` over `parent`, told apart by `salt`; with `sign`,
    /// carrying signatures that verify under its key.
    fn conflict(parent: Hash256, leader: u64, salt: u64, sign: bool) -> PoisonTransaction {
        let header = |time_ms| MicroHeader {
            prev: parent,
            time_ms,
            payload_digest: sha256(&salt.to_le_bytes()),
            leader,
        };
        let signature = |header: &MicroHeader| {
            if sign {
                SchnorrSigner::new(KeyPair::from_id(leader)).sign(&header.signing_hash())
            } else {
                SignatureBytes::Schnorr([0; 65])
            }
        };
        let (a, b) = (header(1), header(2));
        let (first, second) = if a.id() <= b.id() { (a, b) } else { (b, a) };
        PoisonTransaction {
            signature_a: signature(&first),
            header_a: first,
            signature_b: signature(&second),
            header_b: second,
            accused_leader: leader,
            poisoner: 9,
        }
    }

    fn parked_txids(fraud: &Fraud, parent: &Hash256) -> Vec<Hash256> {
        fraud.pending_poisons[parent].iter().map(|(txid, _)| *txid).collect()
    }

    fn rejections(effects: &[Effect]) -> Vec<&str> {
        effects
            .iter()
            .filter_map(|effect| match effect {
                Effect::Report(ReportEvent::PoisonRejected { reason }) => Some(reason.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn an_unknown_fork_point_parks_the_four_smallest_txids() {
        let (mut fraud, mut chain, relay) = component();
        let parent = sha256(b"a fork point this node has not seen");
        let mut txids = Vec::new();
        let mut effects = Vec::new();
        for salt in 0..7 {
            let poison = conflict(parent, 3, salt, false);
            txids.push(poison.txid());
            fraud.adopt(&mut chain, &relay, None, poison, &mut effects);
        }
        txids.sort_unstable();
        assert_eq!(parked_txids(&fraud, &parent), txids[..MAX_PENDING_PER_PARENT]);
        assert_eq!(rejections(&effects).len(), 7, "each is reported, parked or not");
        assert!(effects.iter().all(|e| matches!(e, Effect::Report(_))), "nothing is relayed");
    }

    #[test]
    fn a_proof_that_is_no_conflict_is_never_parked() {
        let (mut fraud, mut chain, relay) = component();
        let mut poison = conflict(sha256(b"unknown"), 3, 0, false);
        poison.header_b = poison.header_a.clone(); // one header twice proves nothing
        fraud.adopt(&mut chain, &relay, None, poison, &mut Vec::new());
        assert!(fraud.pending_poisons.is_empty());
    }

    #[test]
    fn the_parked_set_sheds_its_globally_largest_txid() {
        let (mut fraud, mut chain, relay) = component();
        // The model: per parent the four smallest, then the largest of all goes.
        let mut model: Vec<(Hash256, Hash256)> = Vec::new(); // (txid, parent)
        for round in 0..3u64 {
            for p in 0..24u64 {
                let parent = sha256(&p.to_le_bytes());
                let poison = conflict(parent, 3, round, false);
                model.push((poison.txid(), parent));
                model.sort_unstable();
                while model.iter().filter(|e| e.1 == parent).count() > MAX_PENDING_PER_PARENT {
                    let last = model.iter().rposition(|e| e.1 == parent).expect("present");
                    model.remove(last);
                }
                model.truncate(MAX_PENDING_POISONS);
                fraud.adopt(&mut chain, &relay, None, poison, &mut Vec::new());

                let mut parked: Vec<(Hash256, Hash256)> = fraud
                    .pending_poisons
                    .iter()
                    .flat_map(|(parent, list)| list.iter().map(|(txid, _)| (*txid, *parent)))
                    .collect();
                parked.sort_unstable();
                assert_eq!(parked, model, "round {round}, parent {p}");
            }
        }
        assert_eq!(model.len(), MAX_PENDING_POISONS, "the cap was reached and held");
    }

    /// A chain on which node 1 led `epochs` epochs; returns their key block ids.
    fn lead_epochs(
        chain: &mut Chain,
        fraud: &mut Fraud,
        relay: &mut Relay,
        epochs: u64,
    ) -> Vec<Hash256> {
        (0..epochs)
            .map(|epoch| {
                let id = chain.mine_key_block(1_000 + epoch);
                chain.roll_ledger(None, fraud, relay, &mut Vec::new());
                id
            })
            .collect()
    }

    #[test]
    fn a_full_record_table_refuses_a_new_leader_epoch_pair() {
        let (mut fraud, mut chain, mut relay) = component();
        let epochs = lead_epochs(&mut chain, &mut fraud, &mut relay, 2);
        let mut effects = Vec::new();
        fraud.adopt(&mut chain, &relay, None, conflict(epochs[0], 1, 0, true), &mut effects);
        assert_eq!(rejections(&effects), Vec::<&str>::new());
        // Fill the rest of the table with records of other leaders' (long
        // reorganised-away) epochs.
        for leader in 2..=MAX_POISON_RECORDS as u64 {
            let epoch_id = sha256(&leader.to_le_bytes());
            let poison = conflict(epoch_id, leader, 0, false);
            let record = PoisonRecord {
                txid: poison.txid(),
                poison,
                epoch_id,
                epoch_height: 0,
                revoked: Amount::ZERO,
                reward: Amount::ZERO,
            };
            fraud.poisons.insert((leader, epoch_id), record);
        }
        assert_eq!(fraud.poisoned().len(), MAX_POISON_RECORDS);

        let one_more = conflict(epochs[1], 1, 0, true);
        let mut effects = Vec::new();
        fraud.adopt(&mut chain, &relay, None, one_more, &mut effects);
        assert_eq!(rejections(&effects), vec!["poison record capacity reached"]);
        assert_eq!(fraud.poisoned().len(), MAX_POISON_RECORDS);
        // A better proof for a pair already recorded is not a new pair: it still wins.
        let recorded = fraud.poisons[&(1, epochs[0])].txid;
        let rival = (1..)
            .map(|salt| conflict(epochs[0], 1, salt, true))
            .find(|rival| rival.txid() < recorded)
            .expect("some salt sorts lower");
        let mut effects = Vec::new();
        fraud.adopt(&mut chain, &relay, None, rival.clone(), &mut effects);
        assert_eq!(rejections(&effects), Vec::<&str>::new());
        assert_eq!(fraud.poisons[&(1, epochs[0])].txid, rival.txid());
    }

    #[test]
    fn the_smallest_txid_wins_and_everything_else_is_dropped_with_its_reason() {
        let (mut fraud, mut chain, mut relay) = component();
        let kb = lead_epochs(&mut chain, &mut fraud, &mut relay, 1)[0];
        let mut proofs: Vec<_> = (0..3).map(|salt| conflict(kb, 1, salt, true)).collect();
        proofs.sort_by_key(PoisonTransaction::txid);
        let adopt = |fraud: &mut Fraud, chain: &mut Chain, poison: &PoisonTransaction| {
            let mut effects = Vec::new();
            fraud.adopt(chain, &relay, None, poison.clone(), &mut effects);
            rejections(&effects).into_iter().map(str::to_owned).collect::<Vec<_>>()
        };
        assert!(adopt(&mut fraud, &mut chain, &proofs[1]).is_empty(), "first proof is adopted");
        assert_eq!(
            adopt(&mut fraud, &mut chain, &proofs[2]),
            vec!["losing competitor of the canonical poison"]
        );
        assert!(adopt(&mut fraud, &mut chain, &proofs[0]).is_empty(), "a smaller txid replaces it");
        assert_eq!(adopt(&mut fraud, &mut chain, &proofs[0]), vec!["duplicate poison"]);
        assert_eq!(fraud.poisons[&(1, kb)].txid, proofs[0].txid());
        assert_eq!(fraud.poisoned(), vec![(1, kb)], "one record per leader and epoch");
        // The wrong leader's signature convinces nobody.
        let forged = conflict(kb, 2, 0, true);
        assert_eq!(adopt(&mut fraud, &mut chain, &forged).len(), 1);
    }
}
