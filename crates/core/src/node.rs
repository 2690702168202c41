//! The Bitcoin-NG full node: leader election, microblock production, block handling
//! and poison-transaction construction.
//!
//! The node is written in an event-driven style with no I/O of its own: the caller (an
//! application, the examples, or the `ng-sim` discrete-event network) feeds it received
//! blocks and timer/mining events and broadcasts whatever the node returns. This mirrors
//! the paper's testbed, where an external controller triggers block generation (§7).

use crate::block::{KeyBlock, MicroBlock, MicroHeader, NgBlock};
use crate::chain::{genesis_key_block, NgChainState};
use crate::fees::{build_coinbase, CoinbasePlan};
use crate::params::NgParams;
use crate::poison::{poison_effect, verify_evidence, PoisonEffect, PoisonError, PoisonTransaction};
use ng_chain::amount::Amount;
use ng_chain::chainstore::InsertOutcome;
use ng_chain::error::BlockError;
use ng_chain::payload::Payload;
use ng_crypto::keys::KeyPair;
use ng_crypto::sha256::Hash256;
use ng_crypto::signer::SchnorrSigner;

/// A Bitcoin-NG full node.
#[derive(Clone, Debug)]
pub struct NgNode {
    /// Stable node identity (also the miner id recorded in blocks it produces).
    pub id: u64,
    keys: KeyPair,
    chain: NgChainState,
    /// Timestamp of the last microblock this node produced as leader.
    last_microblock_ms: u64,
}

impl NgNode {
    /// Creates a node with deterministic keys derived from its id.
    pub fn new(id: u64, params: NgParams, tie_break_seed: u64) -> Self {
        NgNode {
            id,
            keys: KeyPair::from_id(id),
            chain: NgChainState::new(params, tie_break_seed),
            last_microblock_ms: 0,
        }
    }

    /// Wraps a restored chain state (see [`NgChainState::from_root`]) in a node —
    /// the restart path. Keys are re-derived exactly as [`Self::new`] does, so a
    /// restored node signs identically to its previous incarnation.
    pub fn from_chain(id: u64, chain: NgChainState) -> Self {
        NgNode {
            id,
            keys: KeyPair::from_id(id),
            chain,
            last_microblock_ms: 0,
        }
    }

    /// The node's key pair.
    pub fn keys(&self) -> &KeyPair {
        &self.keys
    }

    /// Read access to the chain state.
    pub fn chain(&self) -> &NgChainState {
        &self.chain
    }

    /// Mutable access to the chain state — used by the node's incremental
    /// chainstate to store per-block undo records as it connects blocks and to
    /// invalidate blocks whose transactions fail validation on connect.
    pub fn chain_mut(&mut self) -> &mut NgChainState {
        &mut self.chain
    }

    /// The deterministic genesis key block for a parameter set (all nodes share it).
    pub fn genesis(params: &NgParams) -> KeyBlock {
        genesis_key_block(params)
    }

    /// True if this node is the current leader (its key block is the latest on the main
    /// chain) and is therefore entitled to produce microblocks (§4.2).
    pub fn is_leader(&self) -> bool {
        self.chain
            .current_leader()
            .map(|(leader, _)| leader == self.id)
            .unwrap_or(false)
    }

    /// Handles a block received from the network (or produced locally by a peer).
    pub fn on_block(&mut self, block: NgBlock, now_ms: u64) -> Result<InsertOutcome, BlockError> {
        self.chain.insert(block, now_ms)
    }

    /// Produces a key block on the current tip. Called when the mining scheduler (or
    /// real proof-of-work search) determines this node found a solution.
    ///
    /// The coinbase implements the §4.4 remuneration: key-block reward to this node,
    /// plus the 40%/60% split of the closing epoch's fees.
    pub fn mine_key_block(&mut self, now_ms: u64) -> KeyBlock {
        let parent = self.chain.tip();
        let plan = match self.chain.closing_epoch(&parent) {
            Some(epoch) => CoinbasePlan {
                new_leader: self.keys.address(),
                previous_leader: Some(epoch.leader_address),
                previous_epoch_fees: epoch.fees,
            },
            None => CoinbasePlan {
                new_leader: self.keys.address(),
                previous_leader: None,
                previous_epoch_fees: Amount::ZERO,
            },
        };
        let coinbase = build_coinbase(&plan, self.chain.params());
        let mut key_block = KeyBlock {
            prev: parent,
            time_ms: now_ms,
            target: self.chain.params().key_block_target,
            nonce: 0,
            miner: self.id,
            leader_pubkey: self.keys.public,
            coinbase,
        };
        // Search for a satisfying nonce. With the regtest-style target used by the
        // simulations this terminates almost immediately; with a real target the caller
        // is expected to use a scheduler instead (as the paper does).
        while !key_block.meets_target() {
            key_block.nonce += 1;
        }
        key_block
    }

    /// Accepts a locally mined key block into the node's own chain and returns it for
    /// broadcast.
    pub fn mine_and_adopt_key_block(&mut self, now_ms: u64) -> KeyBlock {
        let kb = self.mine_key_block(now_ms);
        self.chain
            .insert(NgBlock::Key(kb.clone()), now_ms)
            .expect("locally mined key block is valid");
        kb
    }

    /// Timestamp of the last microblock this node produced (0 if none yet).
    pub fn last_microblock_ms(&self) -> u64 {
        self.last_microblock_ms
    }

    /// True if this node could produce a microblock at `now_ms`: it is the leader and
    /// both the protocol minimum and the configured production interval have elapsed.
    /// Production hook for external schedulers (the live daemon's event loop), which
    /// check readiness before assembling a payload from their mempool.
    pub fn microblock_ready(&self, now_ms: u64) -> bool {
        if !self.is_leader() {
            return false;
        }
        let params = self.chain.params();
        let parent = self.chain.tip();
        let parent_time = self.chain.get(&parent).map(|b| b.time_ms()).unwrap_or(0);
        now_ms >= parent_time + params.min_microblock_interval_ms
            && now_ms >= self.last_microblock_ms + params.microblock_interval_ms
    }

    /// The earliest timestamp at which [`Self::microblock_ready`] would return true,
    /// or `None` when this node is not the leader (no amount of waiting helps — only
    /// a new key block can). Event-loop drivers arm their wakeup timer with this
    /// deadline instead of polling, so an idle node sleeps until the protocol
    /// actually allows the next microblock.
    pub fn next_microblock_ms(&self) -> Option<u64> {
        if !self.is_leader() {
            return None;
        }
        let params = self.chain.params();
        let parent = self.chain.tip();
        let parent_time = self.chain.get(&parent).map(|b| b.time_ms()).unwrap_or(0);
        Some(
            (parent_time + params.min_microblock_interval_ms)
                .max(self.last_microblock_ms + params.microblock_interval_ms),
        )
    }

    /// Produces (and adopts) a microblock carrying `payload` if this node is the
    /// current leader and the minimum microblock spacing has elapsed (§4.2).
    pub fn produce_microblock(&mut self, now_ms: u64, payload: Payload) -> Option<MicroBlock> {
        if !self.microblock_ready(now_ms) {
            return None;
        }
        let params = *self.chain.params();
        let parent = self.chain.tip();
        let header = MicroHeader {
            prev: parent,
            time_ms: now_ms,
            payload_digest: payload.digest(),
            leader: self.id,
        };
        let signature = SchnorrSigner::new(self.keys).sign(&header.signing_hash());
        let micro = MicroBlock {
            header,
            payload,
            signature,
        };
        if micro.size_bytes() > params.max_microblock_bytes {
            return None;
        }
        // We computed this signature a moment ago: prime the chain's signature
        // cache so validation on insert does not pay a redundant verification.
        self.chain.note_microblock_signature(&micro);
        self.chain
            .insert(NgBlock::Micro(micro.clone()), now_ms)
            .ok()?;
        self.last_microblock_ms = now_ms;
        Some(micro)
    }

    /// Builds a poison transaction from two conflicting microblocks this node
    /// observed (§4.5): same parent, same leader, different contents. Returns
    /// `None` unless the pair genuinely proves an equivocation — a single pruned
    /// microblock is not fraud (competing key blocks prune honest tails all the
    /// time), so honest leaders cannot be framed.
    pub fn build_poison(&self, a: &MicroBlock, b: &MicroBlock) -> Option<PoisonTransaction> {
        PoisonTransaction::from_conflict(a, b, self.id)
    }

    /// Read-only poison validation: checks the evidence against this node's chain
    /// without recording anything, and returns the epoch key block's id together
    /// with the revocable amount — the coinbase value that key block pays to the
    /// accused leader's address. The evidence itself (two conflicting headers,
    /// both signed by the epoch leader) is self-contained, so validity never
    /// depends on which sibling this node's main chain happens to carry; the
    /// amount is a pure function of chain data. Every honest node therefore
    /// computes the same verdict and figure no matter when the poison arrives
    /// relative to other traffic.
    pub fn validate_poison(
        &self,
        poison: &PoisonTransaction,
    ) -> Result<(Hash256, Amount), PoisonError> {
        let parent = poison.parent();
        let Some((epoch_id, epoch_key)) = self.chain.epoch_key_block(&parent) else {
            return Err(PoisonError::UnknownParent);
        };
        if epoch_key.miner != poison.accused_leader {
            return Err(PoisonError::WrongLeader);
        }
        verify_evidence(poison, &epoch_key.leader_pubkey)?;
        let cheater = epoch_key.leader_pubkey.address();
        let revocable = epoch_key
            .coinbase
            .iter()
            .filter(|output| output.address == cheater)
            .map(|output| output.amount)
            .sum();
        Ok((epoch_id, revocable))
    }

    /// Validates a poison transaction against this node's chain view and, if valid,
    /// records it and returns its economic effect. `revoked_amount` is the accused
    /// leader's epoch compensation being invalidated.
    pub fn accept_poison(
        &mut self,
        poison: &PoisonTransaction,
        revoked_amount: Amount,
    ) -> Result<PoisonEffect, PoisonError> {
        // The conflicting headers' parent must be known so the epoch can be attributed.
        let parent = poison.parent();
        let Some((epoch_id, epoch_key)) = self.chain.epoch_key_block(&parent) else {
            return Err(PoisonError::UnknownParent);
        };
        if epoch_key.miner != poison.accused_leader {
            return Err(PoisonError::WrongLeader);
        }
        verify_evidence(poison, &epoch_key.leader_pubkey)?;
        if !self.chain.record_poison(poison.accused_leader, epoch_id) {
            return Err(PoisonError::AlreadyPoisoned);
        }
        Ok(poison_effect(
            poison.accused_leader,
            revoked_amount,
            self.chain.params(),
        ))
    }

    /// The node's view of the current leader.
    pub fn current_leader(&self) -> Option<u64> {
        self.chain.current_leader().map(|(id, _)| id)
    }

    /// The current main-chain tip.
    pub fn tip(&self) -> Hash256 {
        self.chain.tip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> NgParams {
        NgParams {
            min_microblock_interval_ms: 10,
            microblock_interval_ms: 100,
            ..Default::default()
        }
    }

    fn synthetic_payload(tag: u64, fees: u64) -> Payload {
        Payload::Synthetic {
            bytes: 1_000,
            tx_count: 5,
            total_fees: Amount::from_sats(fees),
            tag,
        }
    }

    #[test]
    fn mining_a_key_block_makes_the_node_leader() {
        let mut node = NgNode::new(1, params(), 42);
        assert!(!node.is_leader());
        let kb = node.mine_and_adopt_key_block(1_000);
        assert!(node.is_leader());
        assert_eq!(node.current_leader(), Some(1));
        assert_eq!(node.tip(), kb.id());
    }

    #[test]
    fn non_leader_cannot_produce_microblocks() {
        let mut node = NgNode::new(1, params(), 42);
        assert!(!node.microblock_ready(1_000));
        assert!(node.produce_microblock(1_000, synthetic_payload(1, 0)).is_none());
    }

    #[test]
    fn microblock_ready_tracks_spacing_rules() {
        let mut node = NgNode::new(1, params(), 42);
        node.mine_and_adopt_key_block(1_000);
        // Too close to the key block (min interval 10 ms).
        assert!(!node.microblock_ready(1_005));
        assert!(node.microblock_ready(1_100));
        node.produce_microblock(1_100, synthetic_payload(1, 0)).unwrap();
        assert_eq!(node.last_microblock_ms(), 1_100);
        // Configured production interval is 100 ms.
        assert!(!node.microblock_ready(1_150));
        assert!(node.microblock_ready(1_200));
    }

    #[test]
    fn next_microblock_ms_matches_readiness() {
        let mut node = NgNode::new(1, params(), 42);
        assert_eq!(node.next_microblock_ms(), None, "not leader yet");
        node.mine_and_adopt_key_block(1_000);
        // Gated by the 10 ms minimum distance from the parent key block.
        let deadline = node.next_microblock_ms().expect("leader");
        assert_eq!(deadline, 1_010);
        assert!(!node.microblock_ready(deadline - 1));
        assert!(node.microblock_ready(deadline));
        node.produce_microblock(1_100, synthetic_payload(1, 0)).unwrap();
        // Now gated by the 100 ms production interval.
        let deadline = node.next_microblock_ms().expect("still leader");
        assert_eq!(deadline, 1_200);
        assert!(!node.microblock_ready(deadline - 1));
        assert!(node.microblock_ready(deadline));
    }

    #[test]
    fn leader_produces_rate_limited_microblocks() {
        let mut node = NgNode::new(1, params(), 42);
        node.mine_and_adopt_key_block(1_000);
        let m1 = node.produce_microblock(1_100, synthetic_payload(1, 10));
        assert!(m1.is_some());
        // Too soon: configured interval is 100 ms.
        assert!(node.produce_microblock(1_150, synthetic_payload(2, 10)).is_none());
        let m2 = node.produce_microblock(1_250, synthetic_payload(3, 10));
        assert!(m2.is_some());
        assert_eq!(node.chain().microblocks_on_main_chain().len(), 2);
    }

    #[test]
    fn oversized_microblock_not_produced() {
        let mut p = params();
        p.max_microblock_bytes = 500;
        let mut node = NgNode::new(1, p, 42);
        node.mine_and_adopt_key_block(1_000);
        let oversized = Payload::Synthetic {
            bytes: 10_000,
            tx_count: 50,
            total_fees: Amount::ZERO,
            tag: 1,
        };
        assert!(node.produce_microblock(1_200, oversized).is_none());
    }

    #[test]
    fn payload_sized_by_budget_helper_fits_the_limit() {
        // Regression test: a payload of exactly `max_microblock_payload_bytes()` must
        // produce a valid microblock (the header + signature overhead is accounted
        // for). Workloads that used the raw `max_microblock_bytes` were silently
        // rejected, stalling simulations.
        let mut p = params();
        p.max_microblock_bytes = 20_000;
        let mut node = NgNode::new(1, p, 42);
        node.mine_and_adopt_key_block(1_000);
        let payload = Payload::Synthetic {
            bytes: p.max_microblock_payload_bytes(),
            tx_count: 10,
            total_fees: Amount::from_sats(10),
            tag: 1,
        };
        let micro = node
            .produce_microblock(1_200, payload)
            .expect("budgeted payload fits");
        assert!(micro.size_bytes() <= p.max_microblock_bytes);
        // One byte more than the budget is rejected.
        let over = Payload::Synthetic {
            bytes: p.max_microblock_payload_bytes() + 1,
            tx_count: 10,
            total_fees: Amount::from_sats(10),
            tag: 2,
        };
        assert!(node.produce_microblock(1_400, over).is_none());
    }

    #[test]
    fn blocks_flow_between_nodes() {
        let mut alice = NgNode::new(1, params(), 42);
        let mut bob = NgNode::new(2, params(), 42);
        let kb = alice.mine_and_adopt_key_block(1_000);
        bob.on_block(NgBlock::Key(kb.clone()), 1_010).unwrap();
        assert_eq!(bob.current_leader(), Some(1));
        let micro = alice
            .produce_microblock(1_200, synthetic_payload(1, 100))
            .unwrap();
        bob.on_block(NgBlock::Micro(micro.clone()), 1_210).unwrap();
        assert_eq!(bob.tip(), micro.id());
        // Bob now mines the next key block; its coinbase pays alice her 40%.
        let kb2 = bob.mine_and_adopt_key_block(2_000);
        assert!(kb2
            .coinbase
            .iter()
            .any(|o| o.address == alice.keys().address()
                && o.amount == Amount::from_sats(40)));
        assert!(kb2
            .coinbase
            .iter()
            .any(|o| o.address == bob.keys().address()));
        alice.on_block(NgBlock::Key(kb2.clone()), 2_010).unwrap();
        assert_eq!(alice.current_leader(), Some(2));
        assert!(!alice.is_leader());
    }

    #[test]
    fn leader_change_ends_previous_leaders_epoch() {
        let mut alice = NgNode::new(1, params(), 42);
        let mut bob = NgNode::new(2, params(), 42);
        let kb = alice.mine_and_adopt_key_block(1_000);
        bob.on_block(NgBlock::Key(kb), 1_001).unwrap();
        let kb2 = bob.mine_and_adopt_key_block(2_000);
        alice.on_block(NgBlock::Key(kb2), 2_001).unwrap();
        // Alice is no longer leader and cannot produce microblocks.
        assert!(alice.produce_microblock(2_200, synthetic_payload(9, 0)).is_none());
    }

    #[test]
    fn poison_lifecycle() {
        let mut alice = NgNode::new(1, params(), 42); // equivocating leader
        let mut carol = NgNode::new(3, params(), 42); // honest observer / poisoner
        let kb = alice.mine_and_adopt_key_block(1_000);
        carol.on_block(NgBlock::Key(kb.clone()), 1_001).unwrap();

        // Alice produces a public microblock and, behind the scenes, an equivocating
        // sibling with the same parent (split-brain attempt, §4.5).
        let public = alice
            .produce_microblock(1_200, synthetic_payload(1, 100))
            .unwrap();
        let secret_header = MicroHeader {
            prev: kb.id(),
            time_ms: 1_201,
            payload_digest: synthetic_payload(2, 100).digest(),
            leader: 1,
        };
        let secret = MicroBlock {
            signature: SchnorrSigner::new(*alice.keys()).sign(&secret_header.signing_hash()),
            header: secret_header,
            payload: synthetic_payload(2, 100),
        };

        carol.on_block(NgBlock::Micro(public.clone()), 1_210).unwrap();
        carol.on_block(NgBlock::Micro(secret.clone()), 1_211).unwrap();
        // Both equivocating siblings together are the poison evidence: two signed
        // headers with the same parent prove fraud regardless of which one carol's
        // main chain carries.
        let poison = carol.build_poison(&public, &secret).expect("evidence available");
        let effect = carol
            .accept_poison(&poison, Amount::from_sats(1_000))
            .unwrap();
        assert_eq!(effect.revoked_leader, 1);
        assert_eq!(effect.poisoner_reward, Amount::from_sats(50));
        // Only one poison per cheater per epoch.
        assert_eq!(
            carol.accept_poison(&poison, Amount::from_sats(1_000)),
            Err(PoisonError::AlreadyPoisoned)
        );
    }

    #[test]
    fn poison_requires_a_genuine_conflict() {
        let mut alice = NgNode::new(1, params(), 42);
        let mut carol = NgNode::new(3, params(), 42);
        let kb = alice.mine_and_adopt_key_block(1_000);
        carol.on_block(NgBlock::Key(kb.clone()), 1_001).unwrap();
        let public = alice
            .produce_microblock(1_200, synthetic_payload(1, 0))
            .unwrap();
        carol.on_block(NgBlock::Micro(public.clone()), 1_201).unwrap();
        // A single microblock — even cited twice — is no equivocation: honest
        // leaders whose tails get pruned by a competing key block cannot be framed.
        assert!(carol.build_poison(&public, &public).is_none());
        let bogus = PoisonTransaction {
            header_a: public.header.clone(),
            signature_a: public.signature.clone(),
            header_b: public.header.clone(),
            signature_b: public.signature.clone(),
            accused_leader: 1,
            poisoner: 3,
        };
        assert_eq!(
            carol.accept_poison(&bogus, Amount::from_sats(10)),
            Err(PoisonError::NoConflict)
        );
        // Two microblocks at *different* heights are ordinary leadership, not fraud.
        let successor = alice
            .produce_microblock(1_400, synthetic_payload(2, 0))
            .unwrap();
        carol.on_block(NgBlock::Micro(successor.clone()), 1_401).unwrap();
        assert!(carol.build_poison(&public, &successor).is_none());
    }

    #[test]
    fn skipping_the_signature_check_is_local_and_the_leader_signs_regardless() {
        let mut p = params();
        p.verify_microblock_signatures = false;
        let mut alice = NgNode::new(1, p, 42);
        let mut lax = NgNode::new(2, p, 42);
        let mut strict = NgNode::new(3, params(), 42);
        let kb = alice.mine_and_adopt_key_block(1_000);
        lax.on_block(NgBlock::Key(kb.clone()), 1_001).unwrap();
        strict.on_block(NgBlock::Key(kb), 1_001).unwrap();
        let mut micro = alice
            .produce_microblock(1_200, synthetic_payload(1, 0))
            .unwrap();
        strict.on_block(NgBlock::Micro(micro.clone()), 1_201).unwrap();
        assert_eq!(strict.tip(), micro.id(), "a verifying peer accepts what alice signed");
        // A header under somebody else's signature: only the node told to skip
        // its own check takes it.
        micro.header.time_ms += 1;
        micro.signature = SchnorrSigner::new(KeyPair::from_id(9)).sign(&micro.header.signing_hash());
        lax.on_block(NgBlock::Micro(micro.clone()), 1_202).unwrap();
        assert_eq!(lax.tip(), micro.id());
        assert_eq!(
            strict.on_block(NgBlock::Micro(micro), 1_202),
            Err(BlockError::BadLeaderSignature)
        );
    }
}
