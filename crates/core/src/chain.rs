//! The Bitcoin-NG chain state: validation of key blocks and microblocks, epoch/leader
//! tracking and fee accounting, layered over the generic [`ChainStore`].

use crate::block::{KeyBlock, MicroBlock, NgBlock};
use crate::fees::{max_coinbase_value, CoinbasePlan};
use crate::params::NgParams;
use ng_chain::amount::Amount;
use ng_chain::chainstore::{BlockLike, ChainStore, InsertOutcome};
use ng_chain::error::BlockError;
use ng_chain::forkchoice::{ForkRule, TieBreak};
use ng_chain::chainstore::BoundedParentBuffer;
use ng_chain::fifo::BoundedFifoMap;
use ng_chain::sigcache::SigCache;
use ng_crypto::keys::Address;
use ng_crypto::sha256::Hash256;
use ng_crypto::signer::{verify_signature, SignatureBytes};
use ng_crypto::PublicKey;
use std::collections::{HashMap, HashSet};

/// A convenience bundle describing the epoch a new key block would close.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClosingEpoch {
    /// The key block that opened the epoch (none if the tip is the genesis key block
    /// and it opened the first epoch itself).
    pub key_block: Hash256,
    /// Miner id of the epoch's leader.
    pub leader: u64,
    /// Address the epoch leader's fee share should be paid to.
    pub leader_address: Address,
    /// Total fees carried by the epoch's microblocks (on the branch being extended).
    pub fees: Amount,
    /// Number of microblocks in the epoch.
    pub microblocks: u64,
}

/// Bound on blocks buffered while their parent is missing. Like the chain store's
/// orphan buffer, the pending buffer fills from untrusted peers before validation
/// can run, so it must not grow without limit; the oldest entry is evicted first.
const MAX_PENDING_BLOCKS: usize = 512;

/// The Bitcoin-NG chain state machine.
#[derive(Clone, Debug)]
pub struct NgChainState {
    params: NgParams,
    store: ChainStore<NgBlock>,
    /// Blocks whose parent has not been validated yet, bounded with oldest-first
    /// eviction (see [`MAX_PENDING_BLOCKS`]).
    pending: BoundedParentBuffer<NgBlock>,
    /// Blocks that failed full validation when connecting to the ledger (and their
    /// descendants). Re-offered copies are refused without revalidation. Bounded
    /// FIFO: an evicted id merely costs a revalidation (which re-rejects it), so
    /// even a leader mass-producing invalid microblocks cannot grow memory.
    invalid: BoundedFifoMap<Hash256, ()>,
    /// Verified microblock leader signatures, keyed by a digest binding the signing
    /// hash, the leader public key *and* the signature bytes (see
    /// [`microblock_sig_digest`]). Primed when this node signs its own microblocks,
    /// so a producer does not pay a full Schnorr verification to re-check the
    /// signature it computed a microsecond earlier.
    microblock_sigs: SigCache,
    /// Block id → the id of its epoch's key block, maintained on insert so leader
    /// lookups are O(1) instead of walking the epoch's microblock run (an epoch can
    /// hold thousands of microblocks at high stream rates).
    epoch_key: HashMap<Hash256, Hash256>,
    /// Leaders already hit by an accepted poison transaction, per epoch key block
    /// ("Only one poison transaction can be placed per cheater", §4.5).
    poisoned: HashSet<(u64, Hash256)>,
    /// Newest finality checkpoint (height, block id): blocks forking the chain at or
    /// below this height are refused outright, and undo records below it can be
    /// pruned.
    finalized: Option<(u64, Hash256)>,
    /// Ids of blocks accepted into the store since the last drain, in connection
    /// order — the durable backend's feed. Only populated when tracking is enabled
    /// (a node without persistence must not accumulate an unbounded list).
    newly_stored: Vec<Hash256>,
    track_stored: bool,
}

/// Digest binding everything a cached microblock-signature verdict depends on: the
/// header's signing hash, the leader public key it must verify under, and the
/// signature bytes themselves. A cache hit on this digest is exactly the statement
/// "this signature verifies this header under this key".
pub fn microblock_sig_digest(
    micro: &MicroBlock,
    leader_pubkey: &PublicKey,
) -> Hash256 {
    let mut data = Vec::with_capacity(32 + 33 + 65);
    data.extend_from_slice(&micro.header.signing_hash().0);
    data.extend_from_slice(&leader_pubkey.to_compressed());
    let SignatureBytes::Schnorr(bytes) = &micro.signature;
    data.extend_from_slice(bytes);
    ng_crypto::sha256::tagged_hash("BitcoinNG/microblock-sig", &data)
}

/// Builds the deterministic genesis key block shared by every node.
pub fn genesis_key_block(params: &NgParams) -> KeyBlock {
    let kp = ng_crypto::keys::KeyPair::from_seed(b"bitcoin-ng genesis leader");
    KeyBlock {
        prev: Hash256::ZERO,
        time_ms: 0,
        target: params.key_block_target,
        nonce: 0,
        miner: u64::MAX, // the genesis "leader" is nobody
        leader_pubkey: kp.public,
        coinbase: Vec::new(),
    }
}

impl NgChainState {
    /// Creates a chain state rooted at the deterministic genesis key block.
    pub fn new(params: NgParams, tie_break_seed: u64) -> Self {
        let genesis = NgBlock::Key(genesis_key_block(&params));
        let genesis_id = genesis.id();
        let mut epoch_key = HashMap::new();
        epoch_key.insert(genesis_id, genesis_id);
        NgChainState {
            params,
            store: ChainStore::new(
                genesis,
                ForkRule::HeaviestChain,
                TieBreak::Random {
                    seed: tie_break_seed,
                },
            ),
            pending: BoundedParentBuffer::new(MAX_PENDING_BLOCKS),
            invalid: BoundedFifoMap::new(1 << 16),
            microblock_sigs: SigCache::new(4096),
            epoch_key,
            poisoned: HashSet::new(),
            finalized: None,
            newly_stored: Vec::new(),
            track_stored: false,
        }
    }

    /// Recreates a chain state rooted at a restored finality checkpoint instead of
    /// genesis — the restart path. The root must be a **key block** so epoch context
    /// (the leader entitled to sign microblocks above it, and fee attribution for
    /// the epoch it opens) is self-contained; restoring mid-epoch would leave
    /// microblock validation without a resolvable leader. `height` and `total_work`
    /// are the root's stored chain position. Restored descendants are then replayed
    /// through [`Self::restore_insert`] in their original connection order.
    pub fn from_root(
        params: NgParams,
        tie_break_seed: u64,
        root: KeyBlock,
        height: u64,
        total_work: ng_crypto::pow::Work,
    ) -> Self {
        let root_block = NgBlock::Key(root);
        let root_id = root_block.id();
        let mut epoch_key = HashMap::new();
        epoch_key.insert(root_id, root_id);
        NgChainState {
            params,
            store: ChainStore::with_root(
                root_block,
                height,
                total_work,
                ForkRule::HeaviestChain,
                TieBreak::Random {
                    seed: tie_break_seed,
                },
            ),
            pending: BoundedParentBuffer::new(MAX_PENDING_BLOCKS),
            invalid: BoundedFifoMap::new(1 << 16),
            microblock_sigs: SigCache::new(4096),
            epoch_key,
            poisoned: HashSet::new(),
            finalized: Some((height, root_id)),
            newly_stored: Vec::new(),
            track_stored: false,
        }
    }

    /// Inserts a block that was already fully validated before it was made durable,
    /// skipping signature and proof-of-work re-verification — the restart replay
    /// path, where re-checking a long chain's Schnorr signatures would turn an
    /// O(µs) reopen into an O(minutes) one. The parent must already be present
    /// (restore feeds blocks in their original connection order); duplicates are
    /// no-ops. Never used for blocks from the network.
    pub fn restore_insert(&mut self, block: NgBlock) -> Result<InsertOutcome, BlockError> {
        let id = block.id();
        self.restore_insert_with_id(block, id)
    }

    /// [`Self::restore_insert`] with the id already known (restart replay reads it
    /// from the block file's index header, so recomputing the double SHA-256 per
    /// block would be the replay loop's single largest cost).
    pub fn restore_insert_with_id(
        &mut self,
        block: NgBlock,
        id: Hash256,
    ) -> Result<InsertOutcome, BlockError> {
        if self.store.contains(&id) {
            return Ok(InsertOutcome::Duplicate);
        }
        let parent = block.prev();
        if !self.store.contains(&parent) {
            return Err(BlockError::UnknownParent(parent));
        }
        let is_key = block.is_key();
        let outcome = self.store.insert_with_id(block, id);
        self.note_epoch(id, parent, is_key);
        Ok(outcome)
    }


    /// Enables (or disables) recording of newly stored block ids for
    /// [`Self::drain_newly_stored`]. Off by default: only a node with a durable
    /// backend drains the feed, and without a consumer it would grow forever.
    pub fn track_newly_stored(&mut self, enable: bool) {
        self.track_stored = enable;
        if !enable {
            self.newly_stored.clear();
        }
    }

    /// Returns (and clears) the ids of blocks accepted into the store since the
    /// last drain, in connection order — including pending descendants adopted as
    /// a side effect of their parent's arrival, which the [`InsertOutcome`] alone
    /// does not always surface.
    pub fn drain_newly_stored(&mut self) -> Vec<Hash256> {
        std::mem::take(&mut self.newly_stored)
    }

    /// Marks `id` as the newest finality checkpoint. From here on, any block that
    /// would fork the chain at or below this height is refused on insert, closing
    /// the long-range-rewrite hole: no amount of withheld work can rewind finalized
    /// history. Finality only advances (a lower or unknown block is a no-op);
    /// returns the active checkpoint after the call.
    pub fn set_finalized(&mut self, id: &Hash256) -> Option<(u64, Hash256)> {
        if let Some(height) = self.store.height_of(id) {
            if self.finalized.is_none_or(|(h, _)| height > h) {
                self.finalized = Some((height, *id));
            }
        }
        self.finalized
    }

    /// The newest finality checkpoint, if any.
    pub fn finalized(&self) -> Option<(u64, Hash256)> {
        self.finalized
    }

    /// Drops undo records of blocks below `keep_from_height` (see
    /// [`ChainStore::prune_undo`]); returns how many were pruned.
    pub fn prune_undo(&mut self, keep_from_height: u64) -> usize {
        self.store.prune_undo(keep_from_height)
    }

    /// Number of retained undo records.
    pub fn undo_count(&self) -> usize {
        self.store.undo_count()
    }

    /// Checks that a block attaching to `parent` does not fork the chain below the
    /// newest finality checkpoint: the parent must sit at or above the finalized
    /// height **and** descend from the finalized block.
    fn check_finality(&self, parent: &Hash256) -> Result<(), BlockError> {
        let Some((fin_height, fin_id)) = self.finalized else {
            return Ok(());
        };
        let parent_height = self
            .store
            .height_of(parent)
            .ok_or(BlockError::UnknownParent(*parent))?;
        if parent_height < fin_height
            || self.store.ancestor_at(parent, fin_height) != Some(fin_id)
        {
            return Err(BlockError::FinalityViolation {
                fork_height: parent_height.min(fin_height),
                finalized_height: fin_height,
            });
        }
        Ok(())
    }

    /// Records that a microblock's leader signature is known good — called by the
    /// producing node right after signing, so validation on insert skips the
    /// redundant Schnorr verification of a signature this process just computed.
    /// A no-op if the epoch leader cannot be resolved (the insert path would reject
    /// such a block anyway).
    pub fn note_microblock_signature(&mut self, micro: &MicroBlock) {
        if let Some((_, key)) = self.epoch_key_block(&micro.header.prev) {
            let digest = microblock_sig_digest(micro, &key.leader_pubkey);
            self.microblock_sigs.insert(digest);
        }
    }

    /// The protocol parameters.
    pub fn params(&self) -> &NgParams {
        &self.params
    }

    /// The underlying block tree.
    pub fn store(&self) -> &ChainStore<NgBlock> {
        &self.store
    }

    /// Genesis block id.
    pub fn genesis_id(&self) -> Hash256 {
        self.store.genesis()
    }

    /// Current main-chain tip (may be a key block or a microblock).
    pub fn tip(&self) -> Hash256 {
        self.store.tip()
    }

    /// Number of blocks known (key blocks + microblocks, excluding pending orphans).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if only the genesis is known.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Number of blocks waiting for a missing parent.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// True if the block waits in the pending buffer for a missing parent.
    pub fn is_pending(&self, id: &Hash256) -> bool {
        self.pending.contains(id)
    }

    /// Looks up a block.
    pub fn get(&self, id: &Hash256) -> Option<&NgBlock> {
        self.store.get(id).map(|s| &s.block)
    }

    /// The key block of the epoch containing `start` (inclusive): O(1) through the
    /// maintained epoch map, with a walk up the microblock run as the fallback.
    pub fn epoch_key_block(&self, start: &Hash256) -> Option<(Hash256, &KeyBlock)> {
        if let Some(key_id) = self.epoch_key.get(start) {
            if let Some(NgBlock::Key(k)) = self.store.get(key_id).map(|s| &s.block) {
                return Some((*key_id, k));
            }
        }
        let mut cursor = *start;
        loop {
            let stored = self.store.get(&cursor)?;
            if let NgBlock::Key(k) = &stored.block {
                return Some((cursor, k));
            }
            cursor = stored.block.parent();
        }
    }

    /// Records a freshly stored block's epoch key block in the O(1) lookup map.
    fn note_epoch(&mut self, id: Hash256, parent: Hash256, is_key: bool) {
        let epoch = if is_key {
            id
        } else {
            match self.epoch_key.get(&parent) {
                Some(key_id) => *key_id,
                None => match self.epoch_key_block(&parent) {
                    Some((key_id, _)) => key_id,
                    None => return,
                },
            }
        };
        self.epoch_key.insert(id, epoch);
    }

    /// The leader currently entitled to produce microblocks on the main chain: the
    /// miner and public key of the latest key block at or before the tip.
    pub fn current_leader(&self) -> Option<(u64, PublicKey)> {
        let (_, key) = self.epoch_key_block(&self.tip())?;
        Some((key.miner, key.leader_pubkey))
    }

    /// Fees and metadata of the epoch that a key block built on `parent` would close.
    pub fn closing_epoch(&self, parent: &Hash256) -> Option<ClosingEpoch> {
        let (key_id, key) = self.epoch_key_block(parent)?;
        let mut fees = Amount::ZERO;
        let mut microblocks = 0u64;
        let mut cursor = *parent;
        while cursor != key_id {
            let stored = self.store.get(&cursor)?;
            if let NgBlock::Micro(m) = &stored.block {
                fees += match &m.payload {
                    ng_chain::payload::Payload::Synthetic { total_fees, .. } => *total_fees,
                    ng_chain::payload::Payload::Transactions(_) => {
                        // Without a UTXO context the fee of real transactions is not
                        // recomputed here; the node layer tracks it when building blocks.
                        Amount::ZERO
                    }
                };
                microblocks += 1;
            }
            cursor = stored.block.parent();
        }
        Some(ClosingEpoch {
            key_block: key_id,
            leader: key.miner,
            leader_address: key.leader_pubkey.address(),
            fees,
            microblocks,
        })
    }

    /// Validates a block whose parent is already known.
    pub fn validate(&self, block: &NgBlock, now_ms: u64) -> Result<(), BlockError> {
        let parent_id = block.prev();
        let parent = self
            .store
            .get(&parent_id)
            .ok_or(BlockError::UnknownParent(parent_id))?;

        if block.time_ms() > now_ms + self.params.max_future_drift_ms {
            return Err(BlockError::BadTimestamp);
        }

        match block {
            NgBlock::Key(key) => self.validate_key_block(key, &parent_id),
            NgBlock::Micro(micro) => self.validate_microblock(micro, &parent_id, parent.block.time_ms()),
        }
    }

    fn validate_key_block(&self, key: &KeyBlock, parent_id: &Hash256) -> Result<(), BlockError> {
        if !key.meets_target() {
            return Err(BlockError::PowNotMet(key.id()));
        }
        // Coinbase may claim at most the key-block reward plus the closing epoch's fees.
        if let Some(epoch) = self.closing_epoch(parent_id) {
            let plan = CoinbasePlan {
                new_leader: key.leader_pubkey.address(),
                previous_leader: Some(epoch.leader_address),
                previous_epoch_fees: epoch.fees,
            };
            let allowed = max_coinbase_value(&plan, &self.params);
            let claimed = key.coinbase_value();
            if claimed > allowed {
                return Err(BlockError::ExcessiveCoinbase { claimed, allowed });
            }
        }
        Ok(())
    }

    fn validate_microblock(
        &self,
        micro: &MicroBlock,
        parent_id: &Hash256,
        parent_time_ms: u64,
    ) -> Result<(), BlockError> {
        if !micro.payload_digest_matches() {
            return Err(BlockError::MerkleMismatch);
        }
        if micro.size_bytes() > self.params.max_microblock_bytes {
            return Err(BlockError::OversizedBlock {
                size: micro.size_bytes() as usize,
                max: self.params.max_microblock_bytes as usize,
            });
        }
        // Rate limiting (§4.2): a microblock must be at least the minimum interval after
        // its predecessor. The predecessor may be the epoch's key block itself.
        if micro.header.time_ms < parent_time_ms + self.params.min_microblock_interval_ms {
            return Err(BlockError::MicroblockRateExceeded);
        }
        // The microblock must be signed by the leader announced in the epoch's key block.
        let (_, key) = self
            .epoch_key_block(parent_id)
            .ok_or(BlockError::UnknownParent(*parent_id))?;
        if micro.header.leader != key.miner {
            return Err(BlockError::BadLeaderSignature);
        }
        if self.params.verify_microblock_signatures
            && !self
                .microblock_sigs
                .contains(&microblock_sig_digest(micro, &key.leader_pubkey))
        {
            verify_signature(
                &key.leader_pubkey,
                &micro.header.signing_hash(),
                &micro.signature,
            )
            .map_err(|_| BlockError::BadLeaderSignature)?;
        }
        Ok(())
    }

    /// Validates and inserts a block. Blocks with unknown parents are buffered and
    /// revalidated once the parent arrives; blocks previously invalidated by the
    /// ledger (or descending from one) are refused outright.
    pub fn insert(&mut self, block: NgBlock, now_ms: u64) -> Result<InsertOutcome, BlockError> {
        let id = block.id();
        if self.invalid.contains_key(&id) {
            return Err(BlockError::KnownInvalid(id));
        }
        if self.store.contains(&id) {
            return Ok(InsertOutcome::Duplicate);
        }
        let parent = block.prev();
        if self.invalid.contains_key(&parent) {
            return Err(BlockError::KnownInvalid(parent));
        }
        if !self.store.contains(&parent) {
            self.pending.insert(parent, id, block);
            return Ok(InsertOutcome::Orphaned {
                missing_parent: parent,
            });
        }
        self.check_finality(&parent)?;
        self.validate(&block, now_ms)?;
        let is_key = block.is_key();
        let mut outcome = self.store.insert_with_id(block, id);
        self.note_epoch(id, parent, is_key);
        if self.track_stored {
            self.newly_stored.push(id);
        }
        // Connect any pending descendants that are now valid.
        let mut newly_connected = vec![id];
        while let Some(ready_parent) = newly_connected.pop() {
            for child in self.pending.take(&ready_parent) {
                let child_id = child.id();
                if self.store.contains(&child_id) || self.invalid.contains_key(&child_id) {
                    continue;
                }
                if self.validate(&child, now_ms).is_ok() {
                    let child_is_key = child.is_key();
                    let child_outcome = self.store.insert_with_id(child, child_id);
                    self.note_epoch(child_id, ready_parent, child_is_key);
                    if self.track_stored {
                        self.newly_stored.push(child_id);
                    }
                    // Keep the most informative outcome: a later tip move
                    // supersedes — but an adopted child that merely *extends* a
                    // tip the parent's insert already moved reports no reorg of
                    // its own, and must not erase the one recorded when the tip
                    // left the old branch (observers key "did blocks leave the
                    // main chain" off this field).
                    if let InsertOutcome::Accepted {
                        tip_changed: true,
                        reorg: child_reorg,
                        also_connected,
                    } = child_outcome
                    {
                        let prior_reorg = match outcome {
                            InsertOutcome::Accepted { reorg, .. } => reorg,
                            _ => None,
                        };
                        outcome = InsertOutcome::Accepted {
                            tip_changed: true,
                            reorg: child_reorg.or(prior_reorg),
                            also_connected,
                        };
                    }
                    newly_connected.push(child_id);
                }
            }
        }
        Ok(outcome)
    }

    /// Cuts a block (and its descendant subtree) out of the tree after its
    /// transactions failed full validation on connect, re-selecting the best
    /// remaining tip. Every removed id is remembered as invalid so re-offered
    /// copies are refused without revalidation. Returns the removed ids.
    pub fn invalidate(&mut self, id: &Hash256) -> Vec<Hash256> {
        let removed = self.store.invalidate(id);
        for gone in &removed {
            self.invalid.insert(*gone, ());
            self.pending.remove_parent(gone);
            self.epoch_key.remove(gone);
        }
        self.invalid.insert(*id, ());
        removed
    }

    /// True if the block was invalidated by the ledger (directly or via an ancestor).
    pub fn is_invalid(&self, id: &Hash256) -> bool {
        self.invalid.contains_key(id)
    }

    /// Stores the ledger undo record produced when `id` connected.
    pub fn set_undo(&mut self, id: Hash256, undo: ng_chain::undo::BlockUndo) {
        self.store.set_undo(id, undo);
    }

    /// The stored undo record for a block, if any.
    pub fn undo_of(&self, id: &Hash256) -> Option<&ng_chain::undo::BlockUndo> {
        self.store.undo_of(id)
    }

    /// Removes and returns a block's undo record (consumed on disconnect).
    pub fn take_undo(&mut self, id: &Hash256) -> Option<ng_chain::undo::BlockUndo> {
        self.store.take_undo(id)
    }

    /// Key blocks on the current main chain, genesis first.
    pub fn key_blocks_on_main_chain(&self) -> Vec<Hash256> {
        self.store
            .main_chain()
            .into_iter()
            .filter(|id| matches!(self.get(id), Some(NgBlock::Key(_))))
            .collect()
    }

    /// Microblocks on the current main chain, oldest first.
    pub fn microblocks_on_main_chain(&self) -> Vec<Hash256> {
        self.store
            .main_chain()
            .into_iter()
            .filter(|id| matches!(self.get(id), Some(NgBlock::Micro(_))))
            .collect()
    }

    /// Total transactions serialized on the main chain.
    pub fn main_chain_tx_count(&self) -> u64 {
        self.store
            .main_chain()
            .iter()
            .filter_map(|id| self.get(id))
            .map(|b| b.tx_count())
            .sum()
    }

    /// Confirmation rule (§4.3): a block is confirmed once it is on the main chain and
    /// at least `propagation_delay_ms` has elapsed since it was produced, so a newer
    /// key block pruning it would already have arrived.
    pub fn is_confirmed(&self, id: &Hash256, now_ms: u64, propagation_delay_ms: u64) -> bool {
        if !self.store.is_in_main_chain(id) {
            return false;
        }
        let Some(block) = self.get(id) else {
            return false;
        };
        now_ms >= block.time_ms() + propagation_delay_ms
    }

    /// Records an accepted poison transaction against `leader` for the epoch opened by
    /// `epoch_key_block`. Returns false if that leader was already poisoned for the
    /// epoch (at most one poison per cheater, §4.5).
    pub fn record_poison(&mut self, leader: u64, epoch_key_block: Hash256) -> bool {
        self.poisoned.insert((leader, epoch_key_block))
    }

    /// True if the leader has already been poisoned for the given epoch.
    pub fn is_poisoned(&self, leader: u64, epoch_key_block: &Hash256) -> bool {
        self.poisoned.contains(&(leader, *epoch_key_block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MicroHeader;
    use ng_chain::payload::Payload;
    use ng_crypto::keys::KeyPair;
    use ng_crypto::signer::SchnorrSigner;

    fn params() -> NgParams {
        NgParams {
            min_microblock_interval_ms: 10,
            ..Default::default()
        }
    }

    fn make_key_block(chain: &NgChainState, miner: u64, prev: Hash256, time_ms: u64) -> KeyBlock {
        let kp = KeyPair::from_id(miner);
        let coinbase = match chain.closing_epoch(&prev) {
            Some(epoch) => crate::fees::build_coinbase(
                &CoinbasePlan {
                    new_leader: kp.address(),
                    previous_leader: Some(epoch.leader_address),
                    previous_epoch_fees: epoch.fees,
                },
                chain.params(),
            ),
            None => Vec::new(),
        };
        let mut kb = KeyBlock {
            prev,
            time_ms,
            target: chain.params().key_block_target,
            nonce: 0,
            miner,
            leader_pubkey: kp.public,
            coinbase,
        };
        while !kb.meets_target() {
            kb.nonce += 1;
        }
        kb
    }

    fn make_microblock(leader: u64, prev: Hash256, time_ms: u64, fees: u64) -> MicroBlock {
        let kp = KeyPair::from_id(leader);
        let payload = Payload::Synthetic {
            bytes: 2_000,
            tx_count: 10,
            total_fees: Amount::from_sats(fees),
            tag: time_ms,
        };
        let header = MicroHeader {
            prev,
            time_ms,
            payload_digest: payload.digest(),
            leader,
        };
        let signature = SchnorrSigner::new(kp).sign(&header.signing_hash());
        MicroBlock {
            header,
            payload,
            signature,
        }
    }

    #[test]
    fn key_block_becomes_leader() {
        let mut chain = NgChainState::new(params(), 1);
        let kb = make_key_block(&chain, 5, chain.genesis_id(), 1_000);
        chain.insert(NgBlock::Key(kb.clone()), 1_000).unwrap();
        assert_eq!(chain.tip(), kb.id());
        let (leader, pubkey) = chain.current_leader().unwrap();
        assert_eq!(leader, 5);
        assert_eq!(pubkey, KeyPair::from_id(5).public);
    }

    #[test]
    fn microblocks_extend_leader_chain() {
        let mut chain = NgChainState::new(params(), 1);
        let kb = make_key_block(&chain, 5, chain.genesis_id(), 1_000);
        chain.insert(NgBlock::Key(kb.clone()), 1_000).unwrap();
        let m1 = make_microblock(5, kb.id(), 2_000, 100);
        let m2 = make_microblock(5, m1.id(), 3_000, 200);
        chain.insert(NgBlock::Micro(m1.clone()), 2_000).unwrap();
        chain.insert(NgBlock::Micro(m2.clone()), 3_000).unwrap();
        assert_eq!(chain.tip(), m2.id());
        assert_eq!(chain.microblocks_on_main_chain().len(), 2);
        assert_eq!(chain.main_chain_tx_count(), 20);
        let epoch = chain.closing_epoch(&chain.tip()).unwrap();
        assert_eq!(epoch.leader, 5);
        assert_eq!(epoch.fees, Amount::from_sats(300));
        assert_eq!(epoch.microblocks, 2);
    }

    #[test]
    fn microblock_from_non_leader_rejected() {
        let mut chain = NgChainState::new(params(), 1);
        let kb = make_key_block(&chain, 5, chain.genesis_id(), 1_000);
        chain.insert(NgBlock::Key(kb.clone()), 1_000).unwrap();
        // Node 6 signs a microblock even though node 5 is the leader.
        let rogue = make_microblock(6, kb.id(), 2_000, 0);
        assert_eq!(
            chain.insert(NgBlock::Micro(rogue), 2_000),
            Err(BlockError::BadLeaderSignature)
        );
    }

    #[test]
    fn microblock_with_wrong_signature_rejected() {
        let mut chain = NgChainState::new(params(), 1);
        let kb = make_key_block(&chain, 5, chain.genesis_id(), 1_000);
        chain.insert(NgBlock::Key(kb.clone()), 1_000).unwrap();
        let mut forged = make_microblock(5, kb.id(), 2_000, 0);
        // Replace the signature with one from a different key.
        let other = KeyPair::from_id(9);
        forged.signature = SchnorrSigner::new(other).sign(&forged.header.signing_hash());
        assert_eq!(
            chain.insert(NgBlock::Micro(forged), 2_000),
            Err(BlockError::BadLeaderSignature)
        );
    }

    #[test]
    fn microblock_rate_limit_enforced() {
        let mut chain = NgChainState::new(params(), 1);
        let kb = make_key_block(&chain, 5, chain.genesis_id(), 1_000);
        chain.insert(NgBlock::Key(kb.clone()), 1_000).unwrap();
        // Too soon after the key block (interval < 10 ms).
        let too_soon = make_microblock(5, kb.id(), 1_005, 0);
        assert_eq!(
            chain.insert(NgBlock::Micro(too_soon), 1_005),
            Err(BlockError::MicroblockRateExceeded)
        );
    }

    #[test]
    fn future_timestamp_rejected() {
        let mut chain = NgChainState::new(params(), 1);
        let far_future = 1_000 + chain.params().max_future_drift_ms + 1;
        let kb = make_key_block(&chain, 5, chain.genesis_id(), far_future);
        assert_eq!(
            chain.insert(NgBlock::Key(kb), 1_000),
            Err(BlockError::BadTimestamp)
        );
    }

    #[test]
    fn greedy_coinbase_rejected() {
        let mut chain = NgChainState::new(params(), 1);
        let kb = make_key_block(&chain, 5, chain.genesis_id(), 1_000);
        chain.insert(NgBlock::Key(kb.clone()), 1_000).unwrap();
        let m1 = make_microblock(5, kb.id(), 2_000, 1_000);
        chain.insert(NgBlock::Micro(m1.clone()), 2_000).unwrap();

        let mut greedy = make_key_block(&chain, 6, m1.id(), 3_000);
        // Claim far more than reward + epoch fees, then redo the proof of work so the
        // coinbase check (not the PoW check) is what rejects the block.
        greedy.coinbase = vec![ng_chain::transaction::TxOutput::new(
            Amount::from_coins(1_000),
            KeyPair::from_id(6).address(),
        )];
        while !greedy.meets_target() {
            greedy.nonce += 1;
        }
        assert!(matches!(
            chain.insert(NgBlock::Key(greedy), 3_000),
            Err(BlockError::ExcessiveCoinbase { .. })
        ));
    }

    #[test]
    fn orphans_buffered_until_parent_arrives() {
        let mut chain = NgChainState::new(params(), 1);
        let kb = make_key_block(&chain, 5, chain.genesis_id(), 1_000);
        let m1 = make_microblock(5, kb.id(), 2_000, 0);
        // Microblock arrives before its key block.
        assert!(matches!(
            chain.insert(NgBlock::Micro(m1.clone()), 2_000),
            Ok(InsertOutcome::Orphaned { .. })
        ));
        assert_eq!(chain.pending_count(), 1);
        chain.insert(NgBlock::Key(kb.clone()), 2_100).unwrap();
        assert_eq!(chain.pending_count(), 0);
        assert_eq!(chain.tip(), m1.id());
    }

    #[test]
    fn key_block_fork_resolved_by_next_key_block() {
        // Figure 3 of the paper: two competing key blocks after the same prefix; the
        // fork persists until the next key block lands on one branch.
        let mut chain = NgChainState::new(params(), 1);
        let kb1 = make_key_block(&chain, 1, chain.genesis_id(), 1_000);
        chain.insert(NgBlock::Key(kb1.clone()), 1_000).unwrap();
        let ka = make_key_block(&chain, 2, kb1.id(), 2_000);
        let kb = make_key_block(&chain, 3, kb1.id(), 2_000);
        chain.insert(NgBlock::Key(ka.clone()), 2_000).unwrap();
        chain.insert(NgBlock::Key(kb.clone()), 2_001).unwrap();
        let tip_before = chain.tip();
        assert!(tip_before == ka.id() || tip_before == kb.id());
        // A key block on the losing branch flips the chain to it.
        let loser = if tip_before == ka.id() { kb.clone() } else { ka.clone() };
        let resolver = make_key_block(&chain, 4, loser.id(), 3_000);
        chain.insert(NgBlock::Key(resolver.clone()), 3_000).unwrap();
        assert_eq!(chain.tip(), resolver.id());
        assert!(chain.store().is_in_main_chain(&loser.id()));
    }

    #[test]
    fn leader_switch_prunes_unseen_microblocks() {
        // §4.3 / Figure 2: a new key block built on an older microblock prunes the
        // previous leader's later microblocks.
        let mut chain = NgChainState::new(params(), 1);
        let kb1 = make_key_block(&chain, 1, chain.genesis_id(), 1_000);
        chain.insert(NgBlock::Key(kb1.clone()), 1_000).unwrap();
        let m1 = make_microblock(1, kb1.id(), 2_000, 0);
        let m2 = make_microblock(1, m1.id(), 3_000, 0);
        chain.insert(NgBlock::Micro(m1.clone()), 2_000).unwrap();
        chain.insert(NgBlock::Micro(m2.clone()), 3_000).unwrap();
        assert_eq!(chain.tip(), m2.id());
        // The next miner did not hear m2; it mines on m1.
        let kb2 = make_key_block(&chain, 2, m1.id(), 4_000);
        chain.insert(NgBlock::Key(kb2.clone()), 4_000).unwrap();
        assert_eq!(chain.tip(), kb2.id());
        assert!(!chain.store().is_in_main_chain(&m2.id()), "m2 was pruned");
        assert!(chain.store().is_in_main_chain(&m1.id()));
    }

    #[test]
    fn confirmation_requires_propagation_delay() {
        let mut chain = NgChainState::new(params(), 1);
        let kb = make_key_block(&chain, 1, chain.genesis_id(), 1_000);
        chain.insert(NgBlock::Key(kb.clone()), 1_000).unwrap();
        let m1 = make_microblock(1, kb.id(), 2_000, 0);
        chain.insert(NgBlock::Micro(m1.clone()), 2_000).unwrap();
        assert!(!chain.is_confirmed(&m1.id(), 2_100, 500));
        assert!(chain.is_confirmed(&m1.id(), 2_600, 500));
    }

    #[test]
    fn pending_buffer_is_bounded_against_spam() {
        let mut chain = NgChainState::new(params(), 1);
        let kb = make_key_block(&chain, 5, chain.genesis_id(), 1_000);
        chain.insert(NgBlock::Key(kb.clone()), 1_000).unwrap();
        // A spamming peer floods microblocks whose parents do not exist.
        let mut m = make_microblock(5, kb.id(), 2_000, 0);
        for i in 0..2_000u64 {
            m.header.prev = ng_crypto::sha256::sha256(&i.to_le_bytes());
            assert!(matches!(
                chain.insert(NgBlock::Micro(m.clone()), 2_000),
                Ok(InsertOutcome::Orphaned { .. })
            ));
            assert!(
                chain.pending_count() <= MAX_PENDING_BLOCKS,
                "pending buffer exceeded its bound"
            );
        }
        assert_eq!(chain.pending_count(), MAX_PENDING_BLOCKS);
    }

    #[test]
    fn invalidated_blocks_are_cut_out_and_refused_thereafter() {
        let mut chain = NgChainState::new(params(), 1);
        let kb = make_key_block(&chain, 5, chain.genesis_id(), 1_000);
        chain.insert(NgBlock::Key(kb.clone()), 1_000).unwrap();
        let m1 = make_microblock(5, kb.id(), 2_000, 0);
        let m2 = make_microblock(5, m1.id(), 3_000, 0);
        chain.insert(NgBlock::Micro(m1.clone()), 2_000).unwrap();
        chain.insert(NgBlock::Micro(m2.clone()), 3_000).unwrap();
        assert_eq!(chain.tip(), m2.id());

        let removed = chain.invalidate(&m1.id());
        assert_eq!(removed.len(), 2, "m1 and its descendant m2 removed");
        assert!(chain.is_invalid(&m1.id()) && chain.is_invalid(&m2.id()));
        assert_eq!(chain.tip(), kb.id(), "tip falls back to the key block");

        // Re-offering the invalid block (or a child of it) is refused outright.
        assert_eq!(
            chain.insert(NgBlock::Micro(m1.clone()), 4_000),
            Err(BlockError::KnownInvalid(m1.id()))
        );
        let m2_id = m2.id();
        assert_eq!(
            chain.insert(NgBlock::Micro(m2), 4_000),
            Err(BlockError::KnownInvalid(m2_id))
        );
        // A fresh child of an invalid block is refused through the parent check.
        let m3 = make_microblock(5, m1.id(), 5_000, 0);
        assert_eq!(
            chain.insert(NgBlock::Micro(m3), 5_000),
            Err(BlockError::KnownInvalid(m1.id()))
        );
    }

    #[test]
    fn adopted_child_extension_does_not_erase_the_parents_reorg() {
        // Regression: a rival key block ties with the local branch's tip and wins
        // the random tie-break, moving the tip (a reorg). Its child, waiting in
        // the pending buffer, is then adopted and merely *extends* the new tip —
        // reporting no reorg of its own. The adoption merge must not let that
        // later outcome erase the reorg recorded when the tip left the local
        // branch: over a real network the child routinely arrives first, and
        // observers key "did blocks leave the main chain" off the merged flag.
        //
        // First find a tie-break seed where the rival wins the tie (both outcomes
        // are legal; the bug only fired on this one).
        let mut chosen = None;
        for seed in 0..64 {
            let mut chain = NgChainState::new(params(), seed);
            let kb1 = make_key_block(&chain, 1, chain.genesis_id(), 1_000);
            chain.insert(NgBlock::Key(kb1.clone()), 1_000).unwrap();
            let m1 = make_microblock(1, kb1.id(), 2_000, 0);
            chain.insert(NgBlock::Micro(m1.clone()), 2_000).unwrap();
            let kb2 = make_key_block(&chain, 2, m1.id(), 3_000);
            chain.insert(NgBlock::Key(kb2.clone()), 3_000).unwrap();
            let m2 = make_microblock(2, kb2.id(), 4_000, 0);
            chain.insert(NgBlock::Micro(m2.clone()), 4_000).unwrap();
            assert_eq!(chain.tip(), m2.id());
            let rival_a = make_key_block(&chain, 3, m1.id(), 3_500);
            chain.insert(NgBlock::Key(rival_a.clone()), 3_500).unwrap();
            if chain.tip() == rival_a.id() {
                let rival_b = make_key_block(&chain, 4, rival_a.id(), 4_500);
                chosen = Some((seed, kb1, m1, kb2, m2, rival_a, rival_b));
                break;
            }
        }
        let (seed, kb1, m1, kb2, m2, rival_a, rival_b) =
            chosen.expect("some seed lets the rival win the tie");

        // Replay with the rival's child arriving before its parent.
        let mut chain = NgChainState::new(params(), seed);
        chain.insert(NgBlock::Key(kb1), 1_000).unwrap();
        chain.insert(NgBlock::Micro(m1), 2_000).unwrap();
        chain.insert(NgBlock::Key(kb2.clone()), 3_000).unwrap();
        chain.insert(NgBlock::Micro(m2.clone()), 4_000).unwrap();
        assert!(matches!(
            chain.insert(NgBlock::Key(rival_b.clone()), 4_500),
            Ok(InsertOutcome::Orphaned { .. })
        ));
        match chain.insert(NgBlock::Key(rival_a), 4_600).unwrap() {
            InsertOutcome::Accepted {
                tip_changed, reorg, ..
            } => {
                assert!(tip_changed);
                let reorg = reorg.expect("blocks left the main chain");
                assert_eq!(reorg.disconnected, vec![m2.id(), kb2.id()]);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert_eq!(chain.tip(), rival_b.id(), "the adopted child is the new tip");
    }

    #[test]
    fn undo_records_round_trip_through_the_chain_state() {
        let mut chain = NgChainState::new(params(), 1);
        let kb = make_key_block(&chain, 5, chain.genesis_id(), 1_000);
        chain.insert(NgBlock::Key(kb.clone()), 1_000).unwrap();
        chain.set_undo(kb.id(), ng_chain::undo::BlockUndo::default());
        assert!(chain.undo_of(&kb.id()).is_some());
        assert!(chain.take_undo(&kb.id()).is_some());
        assert!(chain.undo_of(&kb.id()).is_none());
    }

    #[test]
    fn finality_checkpoint_rejects_deep_forks_but_not_extensions() {
        let mut chain = NgChainState::new(params(), 1);
        let kb1 = make_key_block(&chain, 1, chain.genesis_id(), 1_000);
        chain.insert(NgBlock::Key(kb1.clone()), 1_000).unwrap();
        let kb2 = make_key_block(&chain, 2, kb1.id(), 2_000);
        chain.insert(NgBlock::Key(kb2.clone()), 2_000).unwrap();
        assert_eq!(chain.set_finalized(&kb1.id()), Some((1, kb1.id())));

        // Extending the finalized chain is unaffected.
        let kb3 = make_key_block(&chain, 3, kb2.id(), 3_000);
        chain.insert(NgBlock::Key(kb3.clone()), 3_000).unwrap();
        assert_eq!(chain.tip(), kb3.id());

        // A rival branch forking at genesis — below finality — is refused outright,
        // no matter that its proof of work is valid.
        let rewrite = make_key_block(&chain, 9, chain.genesis_id(), 3_500);
        assert!(matches!(
            chain.insert(NgBlock::Key(rewrite), 3_500),
            Err(BlockError::FinalityViolation { finalized_height: 1, .. })
        ));

        // Finality never regresses.
        chain.set_finalized(&kb2.id());
        assert_eq!(chain.finalized(), Some((2, kb2.id())));
        chain.set_finalized(&kb1.id());
        assert_eq!(chain.finalized(), Some((2, kb2.id())), "lower checkpoint ignored");
    }

    #[test]
    fn finality_rejects_branches_that_forked_before_the_checkpoint() {
        let mut chain = NgChainState::new(params(), 1);
        let kb1 = make_key_block(&chain, 1, chain.genesis_id(), 1_000);
        chain.insert(NgBlock::Key(kb1.clone()), 1_000).unwrap();
        // A rival branch already exists when finality lands on the main chain.
        let rival = make_key_block(&chain, 2, chain.genesis_id(), 1_100);
        chain.insert(NgBlock::Key(rival.clone()), 1_100).unwrap();
        let main2 = make_key_block(&chain, 3, kb1.id(), 2_000);
        chain.insert(NgBlock::Key(main2.clone()), 2_000).unwrap();
        chain.set_finalized(&kb1.id());
        // Extending the pre-existing rival branch is refused: its height matches the
        // checkpoint but it does not descend from the finalized block.
        let extend_rival = make_key_block(&chain, 4, rival.id(), 3_000);
        assert!(matches!(
            chain.insert(NgBlock::Key(extend_rival), 3_000),
            Err(BlockError::FinalityViolation { .. })
        ));
    }

    #[test]
    fn restore_from_root_replays_without_revalidation() {
        // Build a reference chain: genesis → kb1 → m1 → kb2.
        let mut chain = NgChainState::new(params(), 7);
        let kb1 = make_key_block(&chain, 1, chain.genesis_id(), 1_000);
        chain.insert(NgBlock::Key(kb1.clone()), 1_000).unwrap();
        let m1 = make_microblock(1, kb1.id(), 2_000, 50);
        chain.insert(NgBlock::Micro(m1.clone()), 2_000).unwrap();
        let kb2 = make_key_block(&chain, 2, m1.id(), 3_000);
        chain.insert(NgBlock::Key(kb2.clone()), 3_000).unwrap();

        // Restore rooted at kb1 (as if it were the newest durable checkpoint).
        let stored = chain.store().get(&kb1.id()).unwrap();
        let mut restored = NgChainState::from_root(
            params(),
            7,
            kb1.clone(),
            stored.height,
            stored.total_work,
        );
        // Corrupt the microblock signature: restore_insert must accept it anyway
        // (durable blocks were validated before they were written).
        let mut tampered = m1.clone();
        tampered.signature = SchnorrSigner::new(KeyPair::from_id(99))
            .sign(&tampered.header.signing_hash());
        // Tampering changes nothing the id commits to for a Synthetic payload check,
        // but the signature no longer verifies — exactly what restore skips.
        restored.restore_insert(NgBlock::Micro(m1.clone())).unwrap();
        restored.restore_insert(NgBlock::Key(kb2.clone())).unwrap();
        assert_eq!(restored.tip(), chain.tip());
        assert_eq!(restored.store().tip_height(), chain.store().tip_height());
        assert_eq!(restored.store().tip_work(), chain.store().tip_work());
        assert_eq!(restored.finalized(), Some((stored.height, kb1.id())));
        // Epoch context survived the rooted restore: the restored node knows the
        // current leader and can validate fresh microblocks above the old tip.
        assert_eq!(restored.current_leader().map(|(id, _)| id), Some(2));
        let m2 = make_microblock(2, kb2.id(), 4_000, 0);
        restored.insert(NgBlock::Micro(m2.clone()), 4_000).unwrap();
        assert_eq!(restored.tip(), m2.id());
        // Out-of-order restore is an error, duplicates are no-ops.
        assert!(matches!(
            restored.restore_insert(NgBlock::Micro(tampered)),
            Ok(InsertOutcome::Duplicate) | Err(BlockError::UnknownParent(_))
        ));
    }

    #[test]
    fn newly_stored_drain_surfaces_adopted_descendants() {
        let mut chain = NgChainState::new(params(), 1);
        chain.track_newly_stored(true);
        let kb = make_key_block(&chain, 5, chain.genesis_id(), 1_000);
        let m1 = make_microblock(5, kb.id(), 2_000, 0);
        // The microblock arrives first and parks in the pending buffer.
        chain.insert(NgBlock::Micro(m1.clone()), 2_000).unwrap();
        assert!(chain.drain_newly_stored().is_empty(), "orphans are not stored");
        // Its parent's arrival stores both; the drain reports them in order.
        chain.insert(NgBlock::Key(kb.clone()), 2_100).unwrap();
        assert_eq!(chain.drain_newly_stored(), vec![kb.id(), m1.id()]);
        assert!(chain.drain_newly_stored().is_empty(), "drain clears the feed");
        // Disabled tracking records nothing.
        chain.track_newly_stored(false);
        let m2 = make_microblock(5, m1.id(), 3_000, 0);
        chain.insert(NgBlock::Micro(m2), 3_000).unwrap();
        assert!(chain.drain_newly_stored().is_empty());
    }

    #[test]
    fn poison_bookkeeping_allows_single_poison_per_epoch() {
        let mut chain = NgChainState::new(params(), 1);
        let epoch = chain.genesis_id();
        assert!(!chain.is_poisoned(3, &epoch));
        assert!(chain.record_poison(3, epoch));
        assert!(!chain.record_poison(3, epoch));
        assert!(chain.is_poisoned(3, &epoch));
    }
}
