//! A generic block tree ("chain store") with work accounting, orphan handling and
//! reorg computation.
//!
//! Every protocol in the workspace — Bitcoin, GHOST and Bitcoin-NG — maintains a tree
//! of blocks and selects a *main chain* from it ("If multiple miners create blocks with
//! the same preceding block, the chain is forked into branches, forming a tree", §3).
//! [`ChainStore`] is generic over the block type so the same code backs Bitcoin blocks,
//! Bitcoin-NG key blocks and the simulator's lightweight block descriptors.

use crate::fifo::BoundedFifoMap;
use crate::forkchoice::{ForkRule, TieBreak};
use crate::undo::BlockUndo;
use ng_crypto::pow::Work;
use ng_crypto::sha256::Hash256;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Default bound on buffered orphan blocks. Orphans arrive from untrusted peers
/// before any validation can tie them to the chain, so an unbounded buffer is a
/// memory-exhaustion vector; at the cap the oldest orphan is evicted first (it can
/// always be re-fetched through header sync once its parent arrives).
pub const DEFAULT_ORPHAN_CAP: usize = 512;

/// A bounded buffer of items waiting on a missing parent, with oldest-first
/// eviction at capacity. Backs both the chain store's orphan buffer and the NG
/// chain state's pending-validation buffer — anything an untrusted peer can fill
/// before validation runs must be bounded.
#[derive(Clone, Debug)]
pub struct BoundedParentBuffer<T> {
    /// Every buffered item under its own id, tagged with the parent it waits on.
    /// The map is the bound, the eviction order and the dedup set in one: a
    /// re-sent duplicate must not buffer a second copy (at capacity each duplicate
    /// would evict a distinct honest item, turning retransmission into an
    /// eviction amplifier).
    items: BoundedFifoMap<Hash256, (Hash256, T)>,
    /// Ids of the items waiting on each parent, in arrival order.
    by_parent: HashMap<Hash256, Vec<Hash256>>,
}

impl<T> BoundedParentBuffer<T> {
    /// A buffer holding at most `cap` items.
    pub fn new(cap: usize) -> Self {
        BoundedParentBuffer {
            items: BoundedFifoMap::new(cap),
            by_parent: HashMap::new(),
        }
    }

    /// Overrides the bound (tests use tiny caps).
    pub fn set_cap(&mut self, cap: usize) {
        self.items.set_cap(cap);
        let items = &self.items;
        self.by_parent.retain(|_, ids| {
            ids.retain(|id| items.contains_key(id));
            !ids.is_empty()
        });
    }

    /// Total buffered items across all parents.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The parent ids currently waited on, in canonical (sorted) order so the
    /// buffer's hash-map layout never leaks into caller behavior.
    pub fn parents(&self) -> Vec<Hash256> {
        let mut parents: Vec<Hash256> = self.by_parent.keys().copied().collect();
        parents.sort_unstable();
        parents
    }

    /// Buffers an item (identified by `id`) under its missing parent, evicting the
    /// globally oldest buffered item first when at capacity. A duplicate id is a
    /// no-op: retransmitting the same item never evicts anything.
    pub fn insert(&mut self, parent: Hash256, id: Hash256, item: T) {
        if self.items.contains_key(&id) {
            return;
        }
        if let Some((evicted, (waited_on, _))) = self.items.insert(id, (parent, item)) {
            if let Some(ids) = self.by_parent.get_mut(&waited_on) {
                ids.retain(|waiting| *waiting != evicted);
                if ids.is_empty() {
                    self.by_parent.remove(&waited_on);
                }
            }
        }
        self.by_parent.entry(parent).or_default().push(id);
    }

    /// Removes and returns everything buffered under `parent` (in arrival order).
    pub fn take(&mut self, parent: &Hash256) -> Vec<T> {
        let ids = self.by_parent.remove(parent).unwrap_or_default();
        ids.iter()
            .filter_map(|id| self.items.remove(id))
            .map(|(_, item)| item)
            .collect()
    }

    /// Drops everything buffered under `parent` without returning it.
    pub fn remove_parent(&mut self, parent: &Hash256) {
        self.take(parent);
    }
}

/// Minimal interface a block must offer to live in a [`ChainStore`].
pub trait BlockLike: Clone {
    /// Unique identifier of the block.
    fn id(&self) -> Hash256;
    /// Identifier of the parent block.
    fn parent(&self) -> Hash256;
    /// Proof-of-work weight contributed by this block. Bitcoin-NG microblocks
    /// contribute [`Work::ZERO`]: "microblocks do not affect the weight of the chain,
    /// as they do not contain proof of work" (§4.2).
    fn work(&self) -> Work;
    /// Block timestamp in simulation/wall-clock seconds.
    fn timestamp(&self) -> u64;
    /// Identity of the miner/leader that produced the block (for fairness metrics).
    fn miner(&self) -> u64;
}

/// A block stored in the tree together with derived chain metadata.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoredBlock<B> {
    /// The block itself.
    pub block: B,
    /// Distance from genesis (genesis is height 0).
    pub height: u64,
    /// Total work from genesis to this block inclusive.
    pub total_work: Work,
    /// Insertion sequence number (used by the first-seen tie-break rule).
    pub arrival: u64,
}

/// Description of a main-chain switch.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reorg {
    /// Last common ancestor of the old and new tips.
    pub fork_point: Hash256,
    /// Blocks leaving the main chain, ordered from the old tip down to (excluding) the
    /// fork point.
    pub disconnected: Vec<Hash256>,
    /// Blocks joining the main chain, ordered from (excluding) the fork point up to the
    /// new tip.
    pub connected: Vec<Hash256>,
}

/// Result of inserting a block.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum InsertOutcome {
    /// The block was already known.
    Duplicate,
    /// The block's parent is unknown; it is buffered until the parent arrives.
    Orphaned {
        /// The missing parent id.
        missing_parent: Hash256,
    },
    /// The block (and possibly buffered orphan descendants) joined the tree.
    Accepted {
        /// Whether the main-chain tip changed as a result.
        tip_changed: bool,
        /// Reorg details when blocks left the main chain (`None` for a plain extension).
        reorg: Option<Reorg>,
        /// Previously orphaned blocks that were connected as a consequence.
        also_connected: Vec<Hash256>,
    },
}

/// A block tree plus main-chain selection state.
#[derive(Clone, Debug)]
pub struct ChainStore<B: BlockLike> {
    blocks: HashMap<Hash256, StoredBlock<B>>,
    children: HashMap<Hash256, Vec<Hash256>>,
    /// Buffered blocks whose parent has not arrived, bounded with oldest-first
    /// eviction (see [`DEFAULT_ORPHAN_CAP`]).
    orphans: BoundedParentBuffer<B>,
    /// Per-block ledger undo records, stored alongside the blocks they rewind
    /// (populated by the node's chainstate when it connects a block).
    undo: HashMap<Hash256, BlockUndo>,
    /// Subtree work rooted at each block (own work + all descendants), for GHOST.
    subtree_work: HashMap<Hash256, Work>,
    genesis: Hash256,
    tip: Hash256,
    rule: ForkRule,
    tie: TieBreak,
    arrival_counter: u64,
}

impl<B: BlockLike> ChainStore<B> {
    /// Creates a store rooted at `genesis_block` using the given fork-choice rule.
    pub fn new(genesis_block: B, rule: ForkRule, tie: TieBreak) -> Self {
        let id = genesis_block.id();
        let work = genesis_block.work();
        let mut blocks = HashMap::new();
        blocks.insert(
            id,
            StoredBlock {
                block: genesis_block,
                height: 0,
                total_work: work,
                arrival: 0,
            },
        );
        let mut subtree_work = HashMap::new();
        subtree_work.insert(id, work);
        ChainStore {
            blocks,
            children: HashMap::new(),
            orphans: BoundedParentBuffer::new(DEFAULT_ORPHAN_CAP),
            undo: HashMap::new(),
            subtree_work,
            genesis: id,
            tip: id,
            rule,
            tie,
            arrival_counter: 1,
        }
    }

    /// Creates a store rooted at an arbitrary block with pre-seeded height and total
    /// work — the restart path: a durable backend restores the tree from its newest
    /// finality checkpoint instead of genesis, so reopening a deep chain costs
    /// O(finality depth), not O(chain length). The root plays the structural role of
    /// genesis (it cannot be invalidated and every path query stops there).
    pub fn with_root(root_block: B, height: u64, total_work: Work, rule: ForkRule, tie: TieBreak) -> Self {
        let id = root_block.id();
        let mut blocks = HashMap::new();
        blocks.insert(
            id,
            StoredBlock {
                block: root_block,
                height,
                total_work,
                arrival: 0,
            },
        );
        let mut subtree_work = HashMap::new();
        subtree_work.insert(id, total_work);
        ChainStore {
            blocks,
            children: HashMap::new(),
            orphans: BoundedParentBuffer::new(DEFAULT_ORPHAN_CAP),
            undo: HashMap::new(),
            subtree_work,
            genesis: id,
            tip: id,
            rule,
            tie,
            arrival_counter: 1,
        }
    }

    /// Overrides the orphan-buffer bound (tests use tiny caps).
    pub fn set_orphan_cap(&mut self, cap: usize) {
        self.orphans.set_cap(cap);
    }

    /// The genesis block id.
    pub fn genesis(&self) -> Hash256 {
        self.genesis
    }

    /// The current main-chain tip.
    pub fn tip(&self) -> Hash256 {
        self.tip
    }

    /// Height of the current tip.
    pub fn tip_height(&self) -> u64 {
        self.blocks[&self.tip].height
    }

    /// Total work of the current tip.
    pub fn tip_work(&self) -> Work {
        self.blocks[&self.tip].total_work
    }

    /// The fork-choice rule in use.
    pub fn rule(&self) -> ForkRule {
        self.rule
    }

    /// Number of blocks in the tree (excluding buffered orphans).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if only the genesis block is present.
    pub fn is_empty(&self) -> bool {
        self.blocks.len() == 1
    }

    /// Number of buffered orphan blocks.
    pub fn orphan_count(&self) -> usize {
        self.orphans.len()
    }

    /// Looks up a stored block.
    pub fn get(&self, id: &Hash256) -> Option<&StoredBlock<B>> {
        self.blocks.get(id)
    }

    /// True if the block is present in the tree.
    pub fn contains(&self, id: &Hash256) -> bool {
        self.blocks.contains_key(id)
    }

    /// Children of a block.
    pub fn children_of(&self, id: &Hash256) -> &[Hash256] {
        self.children.get(id).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Height of a block, if known.
    pub fn height_of(&self, id: &Hash256) -> Option<u64> {
        self.blocks.get(id).map(|b| b.height)
    }

    /// Inserts a block into the tree, connecting any buffered orphans that depended on
    /// it, and re-evaluates the main chain.
    pub fn insert(&mut self, block: B) -> InsertOutcome {
        let id = block.id();
        self.insert_with_id(block, id)
    }

    /// [`Self::insert`] with the block id already computed. Ids are a double
    /// SHA-256 of the serialized header, so callers that already hold the id (the
    /// validation pipeline, restart replay) shave a hash per insert by passing it
    /// down instead of letting the store recompute it.
    pub fn insert_with_id(&mut self, block: B, id: Hash256) -> InsertOutcome {
        if self.blocks.contains_key(&id) {
            return InsertOutcome::Duplicate;
        }
        let parent = block.parent();
        if !self.blocks.contains_key(&parent) {
            self.orphans.insert(parent, id, block);
            return InsertOutcome::Orphaned {
                missing_parent: parent,
            };
        }

        let old_tip = self.tip;
        let mut connected_ids = Vec::new();
        self.connect(block, id, &mut connected_ids);
        // Connect any orphans now unblocked (repeatedly, since orphans may chain).
        let mut progress = true;
        while progress {
            progress = false;
            // Canonical order: orphan-map iteration order must not influence arrival
            // numbering (and thus first-seen tie-breaks) between identical runs.
            // `parents()` already yields sorted ids.
            let ready: Vec<Hash256> = self
                .orphans
                .parents()
                .into_iter()
                .filter(|p| self.blocks.contains_key(p))
                .collect();
            for parent in ready {
                for child in self.orphans.take(&parent) {
                    let child_id = child.id();
                    if !self.blocks.contains_key(&child_id) {
                        self.connect(child, child_id, &mut connected_ids);
                        progress = true;
                    }
                }
            }
        }

        let tip_changed = self.tip != old_tip;
        let reorg = if tip_changed {
            let reorg = self.compute_reorg(&old_tip, &self.tip.clone());
            if reorg.disconnected.is_empty() {
                None
            } else {
                Some(reorg)
            }
        } else {
            None
        };
        let first = connected_ids.first().copied();
        InsertOutcome::Accepted {
            tip_changed,
            reorg,
            also_connected: connected_ids
                .into_iter()
                .filter(|c| Some(*c) != first)
                .collect(),
        }
    }

    fn connect(&mut self, block: B, id: Hash256, connected: &mut Vec<Hash256>) {
        let parent = block.parent();
        let parent_meta = &self.blocks[&parent];
        let height = parent_meta.height + 1;
        let total_work = parent_meta.total_work + block.work();
        let own_work = block.work();
        let arrival = self.arrival_counter;
        self.arrival_counter += 1;
        self.blocks.insert(
            id,
            StoredBlock {
                block,
                height,
                total_work,
                arrival,
            },
        );
        self.children.entry(parent).or_default().push(id);
        // Update subtree work up the ancestor chain. Only GHOST reads subtree
        // totals; under the chain rules the walk would make every insert O(depth),
        // so it is skipped and [`Self::subtree_work_of`] computes on demand.
        if self.rule == ForkRule::Ghost {
            self.subtree_work.insert(id, own_work);
            let mut cursor = parent;
            loop {
                let entry = self.subtree_work.entry(cursor).or_insert(Work::ZERO);
                *entry = *entry + own_work;
                if cursor == self.genesis {
                    break;
                }
                cursor = self.blocks[&cursor].block.parent();
            }
        }
        connected.push(id);
        self.reevaluate_tip(&id);
    }

    // ---- per-block undo records ----------------------------------------------

    /// Stores the ledger undo record produced when `id` was connected.
    pub fn set_undo(&mut self, id: Hash256, undo: BlockUndo) {
        self.undo.insert(id, undo);
    }

    /// The stored undo record for a block, if any.
    pub fn undo_of(&self, id: &Hash256) -> Option<&BlockUndo> {
        self.undo.get(id)
    }

    /// Removes and returns a block's undo record. Callers rewinding the ledger must
    /// only consume the record **after** the disconnect has fully succeeded — peek
    /// with [`Self::undo_of`] first, roll back, then take (an aborted rollback that
    /// already consumed its undo would leave the block unrewindable).
    pub fn take_undo(&mut self, id: &Hash256) -> Option<BlockUndo> {
        self.undo.remove(id)
    }

    /// Number of retained undo records (bounded by [`Self::prune_undo`]).
    pub fn undo_count(&self) -> usize {
        self.undo.len()
    }

    /// Drops undo records of blocks below `keep_from_height`. Once a block is
    /// final it can never be disconnected, so its undo record is dead weight; the
    /// node calls this as finality advances, keeping the map at O(finality depth)
    /// instead of O(chain length). Returns how many records were pruned. Each call
    /// scans the (already bounded) map, so the steady-state cost per block is
    /// O(finality depth) hash lookups, never O(chain length).
    pub fn prune_undo(&mut self, keep_from_height: u64) -> usize {
        let before = self.undo.len();
        let blocks = &self.blocks;
        self.undo
            .retain(|id, _| blocks.get(id).is_none_or(|b| b.height >= keep_from_height));
        before - self.undo.len()
    }

    /// Removes a block and its entire descendant subtree from the tree — the
    /// structural backstop behind validate-on-connect: a block whose transactions
    /// fail full validation is cut out, and the best remaining tip re-selected
    /// deterministically. Returns the removed ids (the target first). The genesis
    /// block cannot be invalidated.
    pub fn invalidate(&mut self, id: &Hash256) -> Vec<Hash256> {
        if *id == self.genesis || !self.blocks.contains_key(id) {
            return Vec::new();
        }
        // Collect the subtree rooted at `id`.
        let mut removed = Vec::new();
        let mut stack = vec![*id];
        while let Some(cur) = stack.pop() {
            removed.push(cur);
            stack.extend(self.children.get(&cur).into_iter().flatten().copied());
        }
        // The whole subtree's work leaves every remaining ancestor's subtree total
        // (only maintained under GHOST).
        let parent = self.blocks[id].block.parent();
        if self.rule == ForkRule::Ghost {
            let subtree = self.subtree_work.get(id).copied().unwrap_or(Work::ZERO);
            let mut cursor = parent;
            loop {
                if let Some(entry) = self.subtree_work.get_mut(&cursor) {
                    *entry = *entry - subtree;
                }
                if cursor == self.genesis {
                    break;
                }
                cursor = self.blocks[&cursor].block.parent();
            }
        }
        if let Some(siblings) = self.children.get_mut(&parent) {
            siblings.retain(|c| c != id);
        }
        for gone in &removed {
            self.blocks.remove(gone);
            self.children.remove(gone);
            self.subtree_work.remove(gone);
            self.undo.remove(gone);
            self.orphans.remove_parent(gone);
        }
        // Re-select the tip by replaying fork choice over the survivors in arrival
        // order, which reproduces the insertion-order-dependent tie-breaks exactly.
        // This is O(surviving blocks), but only on invalidation of the current tip
        // — a path an attacker can reach no faster than one correctly signed block
        // per attempt, whose Schnorr verification (milliseconds) dwarfs this scan
        // until chains grow past ~10^5 blocks.
        if removed.contains(&self.tip) {
            self.tip = self.genesis;
            let mut survivors: Vec<Hash256> = self
                .blocks
                .keys()
                .filter(|b| **b != self.genesis)
                .copied()
                .collect();
            survivors.sort_unstable_by_key(|b| self.blocks[b].arrival);
            for block in survivors {
                self.reevaluate_tip(&block);
            }
        }
        removed
    }

    /// Re-evaluates the best tip after `candidate` was connected.
    fn reevaluate_tip(&mut self, candidate: &Hash256) {
        match self.rule {
            ForkRule::HeaviestChain | ForkRule::LongestChain => {
                if self.candidate_beats_tip(candidate) {
                    self.tip = *candidate;
                }
            }
            ForkRule::Ghost => {
                self.tip = self.ghost_tip();
            }
        }
    }

    fn candidate_beats_tip(&self, candidate: &Hash256) -> bool {
        let cand = &self.blocks[candidate];
        let tip = &self.blocks[&self.tip];
        let (cand_key, tip_key) = match self.rule {
            ForkRule::HeaviestChain => (cand.total_work, tip.total_work),
            ForkRule::LongestChain => (
                Work(ng_crypto::u256::U256::from_u64(cand.height)),
                Work(ng_crypto::u256::U256::from_u64(tip.height)),
            ),
            ForkRule::Ghost => unreachable!("ghost handled separately"),
        };
        if cand_key > tip_key {
            return true;
        }
        if cand_key < tip_key {
            return false;
        }
        // A candidate that strictly extends the current tip always wins the tie. This is
        // how Bitcoin-NG microblocks (zero weight) advance a leader's chain without
        // affecting fork choice between competing key-block branches (§4.2).
        if self.ancestor_at(candidate, self.blocks[&self.tip].height) == Some(self.tip) {
            return true;
        }
        // Tie between distinct branches: apply the configured tie-break. The operational
        // client keeps the first branch it heard of; the paper recommends random
        // tie-breaking (§3, fn. 2).
        match self.tie {
            TieBreak::FirstSeen => false,
            TieBreak::Random { seed } => {
                tie_break_random(seed, candidate) > tie_break_random(seed, &self.tip)
            }
        }
    }

    /// GHOST tip selection: from genesis, repeatedly descend into the child whose
    /// subtree carries the most work (Sompolinsky & Zohar; §9 "GHOST").
    pub fn ghost_tip(&self) -> Hash256 {
        let mut cursor = self.genesis;
        loop {
            let Some(children) = self.children.get(&cursor) else {
                return cursor;
            };
            if children.is_empty() {
                return cursor;
            }
            let mut best = children[0];
            for child in &children[1..] {
                let (bw, cw) = (
                    self.subtree_work.get(&best).copied().unwrap_or(Work::ZERO),
                    self.subtree_work.get(child).copied().unwrap_or(Work::ZERO),
                );
                let better = match cw.cmp(&bw) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => match self.tie {
                        TieBreak::FirstSeen => {
                            self.blocks[child].arrival < self.blocks[&best].arrival
                        }
                        TieBreak::Random { seed } => {
                            tie_break_random(seed, child) > tie_break_random(seed, &best)
                        }
                    },
                };
                if better {
                    best = *child;
                }
            }
            cursor = best;
        }
    }

    /// Work of the subtree rooted at `id` (own work plus all descendants). Under
    /// GHOST this reads the incrementally maintained totals; under the chain rules
    /// (which never consult subtree work on the hot path) it is computed on demand.
    pub fn subtree_work_of(&self, id: &Hash256) -> Work {
        if self.rule == ForkRule::Ghost {
            return self.subtree_work.get(id).copied().unwrap_or(Work::ZERO);
        }
        if !self.blocks.contains_key(id) {
            return Work::ZERO;
        }
        let mut total = Work::ZERO;
        let mut stack = vec![*id];
        while let Some(cur) = stack.pop() {
            total = total + self.blocks[&cur].block.work();
            stack.extend(self.children_of(&cur).iter().copied());
        }
        total
    }

    /// The main chain from genesis to the tip (inclusive), genesis first.
    pub fn main_chain(&self) -> Vec<Hash256> {
        let mut chain = self.path_to_genesis(&self.tip);
        chain.reverse();
        chain
    }

    /// Path from `id` back to genesis (inclusive), `id` first.
    pub fn path_to_genesis(&self, id: &Hash256) -> Vec<Hash256> {
        let mut path = Vec::new();
        let mut cursor = *id;
        loop {
            path.push(cursor);
            if cursor == self.genesis {
                break;
            }
            cursor = self.blocks[&cursor].block.parent();
        }
        path
    }

    /// True if the block lies on the current main chain.
    pub fn is_in_main_chain(&self, id: &Hash256) -> bool {
        let Some(meta) = self.blocks.get(id) else {
            return false;
        };
        self.ancestor_at(&self.tip, meta.height) == Some(*id)
    }

    /// The ancestor of `id` at the given height (walking up the tree).
    pub fn ancestor_at(&self, id: &Hash256, height: u64) -> Option<Hash256> {
        let mut cursor = *id;
        let mut cur_height = self.blocks.get(&cursor)?.height;
        if height > cur_height {
            return None;
        }
        while cur_height > height {
            cursor = self.blocks[&cursor].block.parent();
            cur_height -= 1;
        }
        Some(cursor)
    }

    /// Finds the last common ancestor of two blocks.
    pub fn find_fork_point(&self, a: &Hash256, b: &Hash256) -> Option<Hash256> {
        let (mut a_cur, mut b_cur) = (*a, *b);
        let mut a_height = self.blocks.get(&a_cur)?.height;
        let mut b_height = self.blocks.get(&b_cur)?.height;
        while a_height > b_height {
            a_cur = self.blocks[&a_cur].block.parent();
            a_height -= 1;
        }
        while b_height > a_height {
            b_cur = self.blocks[&b_cur].block.parent();
            b_height -= 1;
        }
        while a_cur != b_cur {
            a_cur = self.blocks[&a_cur].block.parent();
            b_cur = self.blocks[&b_cur].block.parent();
        }
        Some(a_cur)
    }

    fn compute_reorg(&self, old_tip: &Hash256, new_tip: &Hash256) -> Reorg {
        let fork_point = self
            .find_fork_point(old_tip, new_tip)
            .expect("both tips exist in the tree");
        // Walk tip → fork point only: a plain chain extension costs O(1), a reorg
        // O(fork depth) — never O(chain length). The old full path-to-genesis walk
        // here was the last O(depth) term in the microblock hot path.
        let mut disconnected = Vec::new();
        let mut cursor = *old_tip;
        while cursor != fork_point {
            disconnected.push(cursor);
            cursor = self.blocks[&cursor].block.parent();
        }
        let mut connected = Vec::new();
        let mut cursor = *new_tip;
        while cursor != fork_point {
            connected.push(cursor);
            cursor = self.blocks[&cursor].block.parent();
        }
        connected.reverse();
        Reorg {
            fork_point,
            disconnected,
            connected,
        }
    }

    /// All leaf blocks (blocks without children) — the heads of every branch,
    /// in canonical (sorted) order.
    pub fn leaves(&self) -> Vec<Hash256> {
        let mut leaves: Vec<Hash256> = self
            .blocks
            .keys()
            .filter(|id| self.children_of(id).is_empty())
            .copied()
            .collect();
        leaves.sort_unstable();
        leaves
    }

    /// Every stored block id, in canonical (sorted) order.
    pub fn all_ids(&self) -> Vec<Hash256> {
        let mut ids: Vec<Hash256> = self.blocks.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// Deterministic pseudo-random priority for tie-breaking.
fn tie_break_random(seed: u64, id: &Hash256) -> u64 {
    let mut data = Vec::with_capacity(8 + 32);
    data.extend_from_slice(&seed.to_le_bytes());
    data.extend_from_slice(&id.0);
    let h = ng_crypto::sha256::sha256(&data);
    u64::from_le_bytes(h.0[..8].try_into().expect("hash has at least 8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_crypto::sha256::sha256;

    /// A minimal test block.
    #[derive(Clone, Debug)]
    struct TestBlock {
        id: Hash256,
        parent: Hash256,
        work: u64,
        time: u64,
        miner: u64,
    }

    impl TestBlock {
        fn new(label: &str, parent: Hash256, work: u64) -> Self {
            TestBlock {
                id: sha256(label.as_bytes()),
                parent,
                work,
                time: 0,
                miner: 0,
            }
        }
    }

    impl BlockLike for TestBlock {
        fn id(&self) -> Hash256 {
            self.id
        }
        fn parent(&self) -> Hash256 {
            self.parent
        }
        fn work(&self) -> Work {
            Work(ng_crypto::u256::U256::from_u64(self.work))
        }
        fn timestamp(&self) -> u64 {
            self.time
        }
        fn miner(&self) -> u64 {
            self.miner
        }
    }

    fn store(rule: ForkRule) -> (ChainStore<TestBlock>, Hash256) {
        let genesis = TestBlock::new("genesis", Hash256::ZERO, 1);
        let gid = genesis.id();
        (ChainStore::new(genesis, rule, TieBreak::FirstSeen), gid)
    }

    #[test]
    fn linear_chain_extends_tip() {
        let (mut cs, gid) = store(ForkRule::HeaviestChain);
        let a = TestBlock::new("a", gid, 1);
        let b = TestBlock::new("b", a.id(), 1);
        assert!(matches!(
            cs.insert(a.clone()),
            InsertOutcome::Accepted { tip_changed: true, reorg: None, .. }
        ));
        cs.insert(b.clone());
        assert_eq!(cs.tip(), b.id());
        assert_eq!(cs.tip_height(), 2);
        assert_eq!(cs.main_chain(), vec![gid, a.id(), b.id()]);
    }

    #[test]
    fn duplicate_detection() {
        let (mut cs, gid) = store(ForkRule::HeaviestChain);
        let a = TestBlock::new("a", gid, 1);
        cs.insert(a.clone());
        assert_eq!(cs.insert(a), InsertOutcome::Duplicate);
    }

    #[test]
    fn orphan_buffered_then_connected() {
        let (mut cs, gid) = store(ForkRule::HeaviestChain);
        let a = TestBlock::new("a", gid, 1);
        let b = TestBlock::new("b", a.id(), 1);
        let c = TestBlock::new("c", b.id(), 1);
        assert!(matches!(cs.insert(c.clone()), InsertOutcome::Orphaned { .. }));
        assert!(matches!(cs.insert(b.clone()), InsertOutcome::Orphaned { .. }));
        assert_eq!(cs.orphan_count(), 2);
        let result = cs.insert(a.clone());
        match result {
            InsertOutcome::Accepted {
                tip_changed,
                also_connected,
                ..
            } => {
                assert!(tip_changed);
                assert_eq!(also_connected.len(), 2);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(cs.tip(), c.id());
        assert_eq!(cs.orphan_count(), 0);
    }

    #[test]
    fn heaviest_chain_wins_over_longer_lighter_chain() {
        let (mut cs, gid) = store(ForkRule::HeaviestChain);
        // Branch 1: two blocks of work 1 each (total 2 + genesis).
        let a1 = TestBlock::new("a1", gid, 1);
        let a2 = TestBlock::new("a2", a1.id(), 1);
        // Branch 2: one block of work 10.
        let b1 = TestBlock::new("b1", gid, 10);
        cs.insert(a1.clone());
        cs.insert(a2.clone());
        assert_eq!(cs.tip(), a2.id());
        cs.insert(b1.clone());
        assert_eq!(cs.tip(), b1.id(), "heavier shorter branch should win");
    }

    #[test]
    fn longest_chain_rule_ignores_work() {
        let (mut cs, gid) = store(ForkRule::LongestChain);
        let a1 = TestBlock::new("a1", gid, 1);
        let a2 = TestBlock::new("a2", a1.id(), 1);
        let b1 = TestBlock::new("b1", gid, 100);
        cs.insert(a1.clone());
        cs.insert(a2.clone());
        cs.insert(b1.clone());
        assert_eq!(cs.tip(), a2.id(), "longer chain wins under the longest rule");
    }

    #[test]
    fn first_seen_tie_break_keeps_existing_tip() {
        let (mut cs, gid) = store(ForkRule::HeaviestChain);
        let a = TestBlock::new("a", gid, 5);
        let b = TestBlock::new("b", gid, 5);
        cs.insert(a.clone());
        cs.insert(b.clone());
        assert_eq!(cs.tip(), a.id());
    }

    #[test]
    fn random_tie_break_is_deterministic_for_seed() {
        let genesis = TestBlock::new("genesis", Hash256::ZERO, 1);
        let gid = genesis.id();
        let mut cs1 = ChainStore::new(genesis.clone(), ForkRule::HeaviestChain, TieBreak::Random { seed: 7 });
        let mut cs2 = ChainStore::new(genesis, ForkRule::HeaviestChain, TieBreak::Random { seed: 7 });
        let a = TestBlock::new("a", gid, 5);
        let b = TestBlock::new("b", gid, 5);
        cs1.insert(a.clone());
        cs1.insert(b.clone());
        cs2.insert(a.clone());
        cs2.insert(b.clone());
        assert_eq!(cs1.tip(), cs2.tip());
    }

    #[test]
    fn reorg_reports_disconnected_and_connected() {
        let (mut cs, gid) = store(ForkRule::HeaviestChain);
        let a1 = TestBlock::new("a1", gid, 1);
        let a2 = TestBlock::new("a2", a1.id(), 1);
        let b1 = TestBlock::new("b1", gid, 1);
        let b2 = TestBlock::new("b2", b1.id(), 1);
        let b3 = TestBlock::new("b3", b2.id(), 1);
        cs.insert(a1.clone());
        cs.insert(a2.clone());
        cs.insert(b1.clone());
        cs.insert(b2.clone());
        let outcome = cs.insert(b3.clone());
        match outcome {
            InsertOutcome::Accepted {
                tip_changed: true,
                reorg: Some(reorg),
                ..
            } => {
                assert_eq!(reorg.fork_point, gid);
                assert_eq!(reorg.disconnected, vec![a2.id(), a1.id()]);
                assert_eq!(reorg.connected, vec![b1.id(), b2.id(), b3.id()]);
            }
            other => panic!("expected reorg, got {other:?}"),
        }
        assert!(cs.is_in_main_chain(&b2.id()));
        assert!(!cs.is_in_main_chain(&a1.id()));
    }

    #[test]
    fn ghost_prefers_heavier_subtree_over_longer_chain() {
        // Tree:      g
        //          /   \
        //         a1    b1
        //         |    /  \
        //         a2  b2   b3
        // GHOST: subtree(b1) has work 3 > subtree(a1)=2, so tip is within b's subtree
        // even though both branches have max height 2.
        let (mut cs, gid) = store(ForkRule::Ghost);
        let a1 = TestBlock::new("a1", gid, 1);
        let a2 = TestBlock::new("a2", a1.id(), 1);
        let b1 = TestBlock::new("b1", gid, 1);
        let b2 = TestBlock::new("b2", b1.id(), 1);
        let b3 = TestBlock::new("b3", b1.id(), 1);
        for blk in [a1.clone(), a2.clone(), b1.clone(), b2.clone(), b3.clone()] {
            cs.insert(blk);
        }
        let tip = cs.tip();
        assert!(tip == b2.id() || tip == b3.id(), "tip should be in the b subtree");
        // Under the heaviest-chain rule the a-branch (inserted first, equal work) wins.
        let (mut heaviest, gid2) = store(ForkRule::HeaviestChain);
        let a1h = TestBlock::new("a1", gid2, 1);
        let a2h = TestBlock::new("a2", a1h.id(), 1);
        let b1h = TestBlock::new("b1", gid2, 1);
        let b2h = TestBlock::new("b2", b1h.id(), 1);
        let b3h = TestBlock::new("b3", b1h.id(), 1);
        for blk in [a1h.clone(), a2h.clone(), b1h, b2h, b3h] {
            heaviest.insert(blk);
        }
        assert_eq!(heaviest.tip(), a2h.id());
    }

    #[test]
    fn ancestor_and_fork_point_queries() {
        let (mut cs, gid) = store(ForkRule::HeaviestChain);
        let a1 = TestBlock::new("a1", gid, 1);
        let a2 = TestBlock::new("a2", a1.id(), 1);
        let b1 = TestBlock::new("b1", a1.id(), 1);
        cs.insert(a1.clone());
        cs.insert(a2.clone());
        cs.insert(b1.clone());
        assert_eq!(cs.ancestor_at(&a2.id(), 1), Some(a1.id()));
        assert_eq!(cs.ancestor_at(&a2.id(), 0), Some(gid));
        assert_eq!(cs.ancestor_at(&a2.id(), 5), None);
        assert_eq!(cs.find_fork_point(&a2.id(), &b1.id()), Some(a1.id()));
    }

    #[test]
    fn leaves_and_subtree_work() {
        let (mut cs, gid) = store(ForkRule::HeaviestChain);
        let a1 = TestBlock::new("a1", gid, 2);
        let a2 = TestBlock::new("a2", a1.id(), 3);
        let b1 = TestBlock::new("b1", gid, 4);
        cs.insert(a1.clone());
        cs.insert(a2.clone());
        cs.insert(b1.clone());
        let mut leaves = cs.leaves();
        leaves.sort();
        let mut expected = vec![a2.id(), b1.id()];
        expected.sort();
        assert_eq!(leaves, expected);
        assert_eq!(
            cs.subtree_work_of(&a1.id()),
            Work(ng_crypto::u256::U256::from_u64(5))
        );
        assert_eq!(
            cs.subtree_work_of(&gid),
            Work(ng_crypto::u256::U256::from_u64(10))
        );
    }

    #[test]
    fn orphan_buffer_is_bounded_with_oldest_first_eviction() {
        let (mut cs, gid) = store(ForkRule::HeaviestChain);
        cs.set_orphan_cap(8);
        // A spamming peer sends far more parentless blocks than the cap.
        for i in 0..10_000 {
            let phantom_parent = sha256(format!("phantom-{i}").as_bytes());
            let orphan = TestBlock::new(&format!("spam-{i}"), phantom_parent, 1);
            assert!(matches!(cs.insert(orphan), InsertOutcome::Orphaned { .. }));
            assert!(cs.orphan_count() <= 8, "buffer exceeded its bound");
        }
        assert_eq!(cs.orphan_count(), 8);
        // Eviction is oldest-first: the parent of the newest spam block still adopts
        // its buffered child, while the oldest orphan is long gone. (TestBlock ids
        // are label hashes, so a block labelled "phantom-9999" IS the missing parent
        // the orphan named.)
        match cs.insert(TestBlock::new("phantom-9999", gid, 1)) {
            InsertOutcome::Accepted { also_connected, .. } => {
                assert_eq!(also_connected.len(), 1, "newest orphan survived and connected");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        match cs.insert(TestBlock::new("phantom-0", gid, 1)) {
            InsertOutcome::Accepted { also_connected, .. } => {
                assert!(also_connected.is_empty(), "oldest orphan was evicted");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn duplicate_orphan_retransmission_does_not_evict_honest_orphans() {
        let (mut cs, gid) = store(ForkRule::HeaviestChain);
        cs.set_orphan_cap(4);
        for i in 0..4 {
            let phantom = sha256(format!("p-{i}").as_bytes());
            cs.insert(TestBlock::new(&format!("honest-{i}"), phantom, 1));
        }
        assert_eq!(cs.orphan_count(), 4);
        // One parentless block re-sent many times buffers exactly once: the first
        // copy displaces the single oldest honest orphan, every retransmission
        // after that is a no-op.
        let spam = TestBlock::new("spam", sha256(b"phantom-spam"), 1);
        for _ in 0..100 {
            cs.insert(spam.clone());
        }
        assert_eq!(cs.orphan_count(), 4, "cap respected");
        // honest-3 (the newest honest orphan) survived the retransmission storm —
        // adopting its parent connects it. (TestBlock ids are label hashes, so a
        // block labelled "p-3" IS the phantom parent honest-3 named.)
        match cs.insert(TestBlock::new("p-3", gid, 1)) {
            InsertOutcome::Accepted { also_connected, .. } => {
                assert_eq!(also_connected.len(), 1, "honest-3 survived the spam");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn undo_records_are_stored_taken_and_dropped_on_invalidate() {
        let (mut cs, gid) = store(ForkRule::HeaviestChain);
        let a = TestBlock::new("a", gid, 1);
        cs.insert(a.clone());
        cs.set_undo(a.id(), crate::undo::BlockUndo::default());
        assert!(cs.undo_of(&a.id()).is_some());
        let taken = cs.take_undo(&a.id());
        assert!(taken.is_some());
        assert!(cs.undo_of(&a.id()).is_none());

        cs.set_undo(a.id(), crate::undo::BlockUndo::default());
        cs.invalidate(&a.id());
        assert!(cs.undo_of(&a.id()).is_none(), "invalidate drops undo records");
    }

    #[test]
    fn undo_pruning_keeps_only_records_above_the_floor() {
        let (mut cs, gid) = store(ForkRule::HeaviestChain);
        let mut parent = gid;
        let mut ids = Vec::new();
        for i in 0..100 {
            let blk = TestBlock::new(&format!("b{i}"), parent, 1);
            parent = blk.id();
            ids.push(blk.id());
            cs.insert(blk);
            cs.set_undo(parent, crate::undo::BlockUndo::default());
        }
        assert_eq!(cs.undo_count(), 100);
        // Keep only records at height ≥ 91 (the last 10 blocks; heights are 1-based).
        let pruned = cs.prune_undo(91);
        assert_eq!(pruned, 90);
        assert_eq!(cs.undo_count(), 10);
        assert!(cs.undo_of(&ids[89]).is_none(), "height 90 pruned");
        assert!(cs.undo_of(&ids[90]).is_some(), "height 91 kept");
        assert_eq!(cs.prune_undo(91), 0, "idempotent");
    }

    #[test]
    fn rooted_store_anchors_height_work_and_path_queries() {
        let root = TestBlock::new("root", sha256(b"pruned-away-parent"), 7);
        let rid = root.id();
        let mut cs = ChainStore::with_root(
            root,
            500,
            Work(ng_crypto::u256::U256::from_u64(900)),
            ForkRule::HeaviestChain,
            TieBreak::FirstSeen,
        );
        assert_eq!(cs.genesis(), rid);
        assert_eq!(cs.tip_height(), 500);
        let a = TestBlock::new("a", rid, 1);
        cs.insert(a.clone());
        assert_eq!(cs.tip(), a.id());
        assert_eq!(cs.tip_height(), 501);
        assert_eq!(
            cs.tip_work(),
            Work(ng_crypto::u256::U256::from_u64(901)),
            "total work continues from the seeded root"
        );
        assert_eq!(cs.path_to_genesis(&a.id()), vec![a.id(), rid]);
        assert_eq!(cs.ancestor_at(&a.id(), 500), Some(rid));
        assert!(cs.invalidate(&rid).is_empty(), "the root is the new genesis");
    }

    #[test]
    fn invalidate_removes_subtree_and_reselects_previous_branch() {
        let (mut cs, gid) = store(ForkRule::HeaviestChain);
        // Branch a: two blocks (work 2). Branch b: three blocks (work 3) — wins.
        let a1 = TestBlock::new("a1", gid, 1);
        let a2 = TestBlock::new("a2", a1.id(), 1);
        let b1 = TestBlock::new("b1", gid, 1);
        let b2 = TestBlock::new("b2", b1.id(), 1);
        let b3 = TestBlock::new("b3", b2.id(), 1);
        for blk in [a1.clone(), a2.clone(), b1.clone(), b2.clone(), b3.clone()] {
            cs.insert(blk);
        }
        assert_eq!(cs.tip(), b3.id());
        // b2 turns out invalid: b2 and b3 disappear, and the heaviest remaining
        // branch (a, work 2, beating b1's work 1) becomes the tip again.
        let removed = cs.invalidate(&b2.id());
        assert_eq!(removed.len(), 2);
        assert!(removed.contains(&b2.id()) && removed.contains(&b3.id()));
        assert!(!cs.contains(&b2.id()) && !cs.contains(&b3.id()));
        assert!(cs.contains(&b1.id()));
        assert_eq!(cs.tip(), a2.id());
        assert_eq!(cs.children_of(&b1.id()), &[] as &[Hash256]);
        // Subtree work was subtracted up the ancestor chain.
        assert_eq!(
            cs.subtree_work_of(&b1.id()),
            Work(ng_crypto::u256::U256::from_u64(1))
        );
        // Genesis cannot be invalidated; unknown ids are a no-op.
        assert!(cs.invalidate(&gid).is_empty());
        assert!(cs.invalidate(&sha256(b"unknown")).is_empty());
    }

    #[test]
    fn zero_work_blocks_do_not_change_heaviest_tip_preference() {
        // Mirrors Bitcoin-NG microblocks: they extend the chain but carry no weight.
        let (mut cs, gid) = store(ForkRule::HeaviestChain);
        let key1 = TestBlock::new("key1", gid, 10);
        let micro1 = TestBlock::new("micro1", key1.id(), 0);
        let micro2 = TestBlock::new("micro2", micro1.id(), 0);
        let key2_competing = TestBlock::new("key2", gid, 10);
        cs.insert(key1.clone());
        cs.insert(micro1.clone());
        cs.insert(micro2.clone());
        assert_eq!(cs.tip(), micro2.id());
        // A competing key block with equal work does not displace the first-seen branch
        // even though the microblocks added no weight.
        cs.insert(key2_competing.clone());
        assert_eq!(cs.tip(), micro2.id());
        // Both branches carry identical proof-of-work weight.
        assert_eq!(cs.tip_work(), cs.get(&key2_competing.id()).unwrap().total_work);
    }
}
