//! Structured broadcast overlay (episub/Plumtree-style).
//!
//! Flood gossip delivers every block over every link; at degree *d* each node pays
//! for ~*d* copies. The overlay splits each node's ready peers into a small **eager**
//! set (full pushes, forming a spanning broadcast tree) and a **lazy** set (6-byte-ish
//! `ihave` advertisements only). The tree is discovered and repaired by two moves:
//!
//! * **prune** — an unrequested duplicate push (a `cmpctblock`, or a full block
//!   nobody asked for) means two eager paths reach this node; the link it came over
//!   is demoted to lazy on both ends. A block that answers this node's own request —
//!   a `getdata`, a sync download, a `graft` — is a reply, never a duplicate push,
//!   whatever copies arrived before it.
//! * **graft** — an `ihave` for a block that never arrives eagerly within
//!   [`PULL_TIMEOUT_MS`] promotes the advertising link back to eager
//!   and pulls the block over it. This is the self-healing path: severing tree links
//!   only delays delivery by one pull timeout, after which the tree regrows over the
//!   surviving lazy links. With no eager link left no push can beat the pull, so an
//!   `ihave` is pulled at once: a leaf whose links were all pruned (both ends of a
//!   link can each see the other's copy as the duplicate) does not wait out the
//!   timeout on every block.
//!
//! The state machine is pure and deterministic: sets are `BTreeSet`-ordered, pending
//! pulls expire against an explicit clock (`Input::Tick` in the engine), and every
//! buffer is bounded with oldest-first eviction.

use crate::message::InvItem;
use ng_crypto::sha256::Hash256;
use ng_chain::fifo::BoundedFifoMap;
use std::collections::{BTreeSet, VecDeque};

/// Target size of the eager set (the broadcast-tree fan-out).
pub const EAGER_DEGREE: usize = 3;

/// How long after an `ihave` a node waits for an eager delivery before grafting
/// the advertising link and pulling the block over it.
pub const PULL_TIMEOUT_MS: u64 = 150;

/// Most pending lazy pulls kept at once (oldest evicted beyond this).
pub const MAX_PENDING_PULLS: usize = 512;

/// Most advertising peers remembered per pending pull.
pub const MAX_HOLDERS: usize = 16;

/// One block advertised over lazy links but not yet delivered: the peers that claim
/// to hold it and the deadline after which the next one gets grafted.
#[derive(Clone, Debug)]
struct PendingPull {
    item: InvItem,
    /// Advertisers not yet grafted, in arrival order.
    // ng-lint: bound(MAX_HOLDERS)
    holders: VecDeque<u64>,
    deadline_ms: u64,
}

/// Per-node overlay state: the eager/lazy split of ready peers plus pending lazy
/// pulls. The engine owns one per node and drives it from message arrivals and
/// `Input::Tick`.
#[derive(Debug)]
pub struct Overlay {
    // ng-lint: bound(EAGER_DEGREE)
    eager: BTreeSet<u64>,
    // ng-lint: allow(bounded-collections): one entry per connected peer not in
    // the eager set; the driver's connection limit is the cap.
    lazy: BTreeSet<u64>,
    /// Pending lazy pulls, oldest evicted beyond [`MAX_PENDING_PULLS`].
    pulls: BoundedFifoMap<Hash256, PendingPull>,
}

impl Default for Overlay {
    fn default() -> Self {
        Self::new()
    }
}

impl Overlay {
    /// Creates an overlay with no peers.
    pub fn new() -> Self {
        Overlay {
            eager: BTreeSet::new(),
            lazy: BTreeSet::new(),
            pulls: BoundedFifoMap::new(MAX_PENDING_PULLS),
        }
    }

    /// Current eager peers, ascending.
    pub fn eager(&self) -> impl Iterator<Item = u64> + '_ {
        self.eager.iter().copied()
    }

    /// Current lazy peers, ascending.
    pub fn lazy(&self) -> impl Iterator<Item = u64> + '_ {
        self.lazy.iter().copied()
    }

    /// True if the link to `peer` is currently eager.
    pub fn is_eager(&self, peer: u64) -> bool {
        self.eager.contains(&peer)
    }

    /// Number of pending lazy pulls.
    pub fn pending_pulls(&self) -> usize {
        self.pulls.len()
    }

    /// A peer's handshake completed: fill the eager set up to the target degree,
    /// overflow goes lazy.
    pub fn peer_ready(&mut self, peer: u64) {
        if self.eager.contains(&peer) || self.lazy.contains(&peer) {
            return;
        }
        if self.eager.len() < EAGER_DEGREE {
            self.eager.insert(peer);
        } else {
            self.lazy.insert(peer);
        }
    }

    /// A peer disconnected: forget it everywhere (its pending advertisements can no
    /// longer be pulled).
    pub fn peer_gone(&mut self, peer: u64) {
        self.eager.remove(&peer);
        self.lazy.remove(&peer);
        let pulls: Vec<Hash256> = self.pulls.keys().copied().collect();
        for id in pulls {
            if let Some(pull) = self.pulls.get_mut(&id) {
                pull.holders.retain(|&h| h != peer);
            }
        }
    }

    /// Eager push targets for relaying a block, excluding its source.
    pub fn push_targets(&self, exclude: Option<u64>) -> Vec<u64> {
        self.eager
            .iter()
            .copied()
            .filter(|&p| Some(p) != exclude)
            .collect()
    }

    /// Lazy `ihave` targets for a block, excluding its source.
    pub fn lazy_targets(&self, exclude: Option<u64>) -> Vec<u64> {
        self.lazy
            .iter()
            .copied()
            .filter(|&p| Some(p) != exclude)
            .collect()
    }

    /// A duplicate push arrived over the link from `peer`: demote it to lazy locally
    /// and tell the caller whether to send `prune` (so the other end demotes us too).
    pub fn on_duplicate(&mut self, peer: u64) -> bool {
        if self.eager.remove(&peer) {
            self.lazy.insert(peer);
            true
        } else {
            // Already lazy (or unknown): a prune is already in flight or moot.
            false
        }
    }

    /// The remote end pruned us: stop pushing to it eagerly.
    pub fn on_prune(&mut self, peer: u64) {
        self.on_duplicate(peer);
    }

    /// The remote end grafted us, or our pull timed out and we graft it: the link
    /// is eager again (the caller also serves or pulls the grafted block).
    pub fn on_graft(&mut self, peer: u64) {
        if self.lazy.remove(&peer) {
            self.eager.insert(peer);
        }
    }

    /// An `ihave` for a block we do not hold arrived from `peer`: remember it as a
    /// pull candidate, due after [`PULL_TIMEOUT_MS`] — or at once if no eager link
    /// is left to push it. Returns true if this created a new pending pull (the
    /// caller should re-arm its timer).
    pub fn on_ihave(&mut self, peer: u64, item: InvItem, now_ms: u64) -> bool {
        if let Some(pull) = self.pulls.get_mut(&item.id) {
            if !pull.holders.contains(&peer) && pull.holders.len() < MAX_HOLDERS {
                pull.holders.push_back(peer);
            }
            return false;
        }
        let wait_ms = if self.eager.is_empty() { 0 } else { PULL_TIMEOUT_MS };
        self.pulls.insert(
            item.id,
            PendingPull {
                item,
                holders: VecDeque::from([peer]),
                deadline_ms: now_ms + wait_ms,
            },
        );
        true
    }

    /// The block arrived (eagerly or otherwise): cancel its pending pull.
    pub fn block_arrived(&mut self, id: &Hash256) {
        self.pulls.remove(id);
    }

    /// The earliest pending-pull deadline, for the engine's timer arming.
    pub fn next_deadline(&self) -> Option<u64> {
        self.pulls.values().map(|p| p.deadline_ms).min()
    }

    /// Fires every pull whose deadline passed: grafts the next advertiser of each
    /// overdue block (promoting that link to eager) and returns `(item, peer)` pairs
    /// the caller must send `graft` to. Pulls with no advertisers left are dropped —
    /// the block can still arrive via sync. Deterministic: overdue blocks are
    /// processed in id order.
    pub fn expire(&mut self, now_ms: u64) -> Vec<(InvItem, u64)> {
        let mut overdue: Vec<Hash256> = self
            .pulls
            .iter()
            .filter(|(_, p)| p.deadline_ms <= now_ms)
            .map(|(id, _)| *id)
            .collect();
        overdue.sort_unstable();
        let mut grafts = Vec::new();
        for id in overdue {
            let Some(pull) = self.pulls.get_mut(&id) else {
                continue;
            };
            // Skip advertisers that disconnected since (peer_gone retains, but be
            // defensive about ordering) and graft the first live one.
            let next = loop {
                match pull.holders.pop_front() {
                    Some(h) if self.eager.contains(&h) || self.lazy.contains(&h) => break Some(h),
                    Some(_) => continue,
                    None => break None,
                }
            };
            match next {
                Some(peer) => {
                    let item = pull.item;
                    pull.deadline_ms = now_ms + PULL_TIMEOUT_MS;
                    self.on_graft(peer);
                    grafts.push((item, peer));
                }
                None => {
                    self.pulls.remove(&id);
                }
            }
        }
        grafts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::InvKind;
    use ng_crypto::sha256::sha256;

    fn item(tag: &[u8]) -> InvItem {
        InvItem::new(InvKind::MicroBlock, sha256(tag))
    }

    /// An overlay with peers `1..=n` ready: the first [`EAGER_DEGREE`] eager, the
    /// rest lazy.
    fn overlay_with_peers(n: u64) -> Overlay {
        let mut ov = Overlay::new();
        for p in 1..=n {
            ov.peer_ready(p);
        }
        ov
    }

    #[test]
    fn peers_fill_eager_then_overflow_to_lazy() {
        let mut ov = Overlay::new();
        for p in [3, 1, 4, 2, 5] {
            ov.peer_ready(p);
        }
        assert_eq!(ov.eager().collect::<Vec<_>>(), vec![1, 3, 4]);
        assert_eq!(ov.lazy().collect::<Vec<_>>(), vec![2, 5]);
        assert_eq!(ov.push_targets(Some(1)), vec![3, 4]);
        assert_eq!(ov.lazy_targets(None), vec![2, 5]);
    }

    #[test]
    fn duplicate_prunes_the_link_on_both_ends() {
        let mut ov = overlay_with_peers(2);
        assert!(ov.on_duplicate(1), "first duplicate sends prune");
        assert!(!ov.is_eager(1));
        assert!(ov.lazy().any(|p| p == 1));
        assert!(!ov.on_duplicate(1), "already lazy: no repeat prune");
        // The remote's prune demotes symmetrically.
        ov.on_prune(2);
        assert!(ov.eager().next().is_none());
    }

    #[test]
    fn ihave_timeout_grafts_advertisers_in_order() {
        let mut ov = overlay_with_peers(5); // eager {1,2,3}, lazy {4,5}
        let it = item(b"blk");
        assert!(ov.on_ihave(4, it, 1_000), "new pull arms the timer");
        assert!(!ov.on_ihave(5, it, 1_010), "second advertiser just queues");
        assert_eq!(ov.next_deadline(), Some(1_000 + PULL_TIMEOUT_MS));
        assert!(ov.expire(1_050).is_empty(), "not due yet");

        let first = 1_000 + PULL_TIMEOUT_MS;
        assert_eq!(ov.expire(first), vec![(it, 4)]);
        assert!(ov.is_eager(4), "grafted link promoted to eager");
        let second = first + PULL_TIMEOUT_MS;
        assert_eq!(ov.next_deadline(), Some(second), "re-armed for the next holder");

        // Still not delivered: the next advertiser gets grafted.
        assert_eq!(ov.expire(second), vec![(it, 5)]);
        // Out of advertisers: the pull is dropped.
        assert!(ov.expire(second + PULL_TIMEOUT_MS).is_empty());
        assert_eq!(ov.pending_pulls(), 0);
    }

    #[test]
    fn an_ihave_with_no_eager_link_is_pulled_at_once() {
        let it = item(b"leaf");
        let mut ov = overlay_with_peers(1);
        ov.on_ihave(1, it, 500);
        assert_eq!(ov.next_deadline(), Some(500 + PULL_TIMEOUT_MS), "a push may still win");

        // Both ends pruned the only link: no push can beat the pull.
        let mut ov = overlay_with_peers(1);
        ov.on_prune(1);
        ov.on_ihave(1, it, 500);
        assert_eq!(ov.next_deadline(), Some(500));
        assert_eq!(ov.expire(500), vec![(it, 1)]);
        assert!(ov.is_eager(1), "the graft restored an eager link");
    }

    #[test]
    fn arrival_cancels_the_pull() {
        let mut ov = overlay_with_peers(4);
        let it = item(b"x");
        ov.on_ihave(4, it, 0);
        ov.block_arrived(&it.id);
        assert_eq!(ov.next_deadline(), None);
        assert!(ov.expire(10_000).is_empty());
    }

    #[test]
    fn disconnected_advertisers_are_skipped() {
        let mut ov = overlay_with_peers(5);
        let it = item(b"y");
        ov.on_ihave(4, it, 0);
        ov.on_ihave(5, it, 1);
        ov.peer_gone(4);
        let grafts = ov.expire(PULL_TIMEOUT_MS);
        assert_eq!(grafts, vec![(it, 5)], "gone peer skipped, next holder grafted");
    }

    #[test]
    fn pending_pulls_are_bounded_oldest_first() {
        let mut ov = overlay_with_peers(4); // 4 is the lazy advertiser
        let first = item(&0u64.to_le_bytes());
        for i in 0..MAX_PENDING_PULLS as u64 + 12 {
            ov.on_ihave(4, item(&i.to_le_bytes()), i);
            assert!(ov.pending_pulls() <= MAX_PENDING_PULLS);
        }
        assert_eq!(ov.pending_pulls(), MAX_PENDING_PULLS);
        // The earliest pull was evicted with the rest of the overflow; only the
        // surviving (newest) pulls fire, each grafting its one advertiser.
        assert!(!ov.pulls.contains_key(&first.id), "oldest pull evicted");
        let grafts = ov.expire(10_000);
        assert_eq!(grafts.len(), MAX_PENDING_PULLS);
        assert!(grafts.iter().all(|&(_, p)| p == 4));
    }

    #[test]
    fn holders_per_pull_are_bounded() {
        let mut ov = overlay_with_peers(EAGER_DEGREE as u64 + MAX_HOLDERS as u64 + 4);
        let it = item(b"h");
        for p in ov.lazy().collect::<Vec<_>>() {
            ov.on_ihave(p, it, 0);
        }
        // Expiring repeatedly grafts at most MAX_HOLDERS peers.
        let mut grafted = 0;
        let mut now = PULL_TIMEOUT_MS;
        loop {
            let fired = ov.expire(now).len();
            if fired == 0 {
                break;
            }
            grafted += fired;
            now += PULL_TIMEOUT_MS;
        }
        assert_eq!(grafted, MAX_HOLDERS);
    }

    #[test]
    fn graft_promotes_and_prune_demotes_idempotently() {
        let mut ov = overlay_with_peers(4); // 4 is lazy
        ov.on_graft(4);
        assert!(ov.is_eager(4));
        ov.on_graft(4); // idempotent
        assert!(ov.is_eager(4));
        ov.on_prune(4);
        ov.on_prune(4);
        assert!(!ov.is_eager(4));
        // Unknown peers are ignored.
        ov.on_graft(99);
        assert!(!ov.is_eager(99));
    }
}
