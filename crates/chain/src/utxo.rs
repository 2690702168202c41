//! The unspent transaction output (UTXO) set.
//!
//! "Miners accept transactions only if their sources have not been spent, thereby
//! preventing users from double-spending their funds" (§3). The UTXO set is the state
//! of the replicated state machine; applying a block advances it, disconnecting a block
//! (during a reorg) rewinds it.

use crate::amount::Amount;
use crate::error::TxError;
use crate::sigcache::{BatchVerifier, SigCache, SigJob};
use crate::transaction::{OutPoint, Transaction, TxOutput};
use ng_crypto::keys::Address;
use ng_crypto::sha256::Hash256;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Metadata kept for every unspent output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtxoEntry {
    /// The output itself.
    pub output: TxOutput,
    /// Height of the block that created it.
    pub height: u64,
    /// Whether it came from a coinbase transaction (subject to the maturity rule).
    pub coinbase: bool,
}

/// The set of unspent outputs, keyed by outpoint.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct UtxoSet {
    entries: HashMap<OutPoint, UtxoEntry>,
    /// Coinbase maturity: minted outputs may only be spent this many blocks after they
    /// were created ("this transaction can only be spent after a maturity period of 100
    /// blocks", §4.4).
    pub coinbase_maturity: u64,
    /// Rolling order-independent commitment: the XOR of a domain-tagged digest of
    /// every entry, updated on each mutation. Insertion and removal are O(1), so a
    /// node can expose a set commitment per block without re-hashing the whole set
    /// (which [`Self::commitment`] still does, as the strong form used by tests).
    rolling: Hash256,
}

/// Resolver for transaction inputs missing from the UTXO set — mempool admission
/// passes a lookup into the pending pool so chained spends validate fully.
pub type InputResolver<'a> = &'a dyn Fn(&OutPoint) -> Option<TxOutput>;

/// Undo information for one applied transaction, sufficient to rewind it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxUndo {
    /// The transaction id (whose created outputs must be removed on rewind).
    pub txid: ng_crypto::sha256::Hash256,
    /// Number of outputs the transaction created.
    pub output_count: u32,
    /// The entries that were consumed, so they can be restored.
    pub spent: Vec<(OutPoint, UtxoEntry)>,
}

impl UtxoSet {
    /// Creates an empty set with the standard 100-block coinbase maturity.
    pub fn new() -> Self {
        Self::with_maturity(100)
    }

    /// Creates an empty set with a custom coinbase maturity (small-scale tests use 0).
    pub fn with_maturity(maturity: u64) -> Self {
        UtxoSet {
            entries: HashMap::new(),
            coinbase_maturity: maturity,
            rolling: Hash256::ZERO,
        }
    }

    /// Reassembles a set from snapshot parts, trusting the recorded rolling
    /// commitment instead of re-deriving one entry digest per output — the restart
    /// path, where O(set size) hashing would defeat the point of snapshotting.
    /// Callers that need the integrity check compare [`Self::commitment`] (or a
    /// recomputed rolling commitment) against an external record.
    pub fn from_parts(
        maturity: u64,
        entries: HashMap<OutPoint, UtxoEntry>,
        rolling: Hash256,
    ) -> Self {
        UtxoSet {
            entries,
            coinbase_maturity: maturity,
            rolling,
        }
    }

    /// Domain-tagged digest of one entry, the unit the rolling commitment XORs.
    fn entry_digest(outpoint: &OutPoint, entry: &UtxoEntry) -> Hash256 {
        let mut data = Vec::with_capacity(16 + 32 + 4 + 8 + 32 + 8 + 1);
        data.extend_from_slice(b"BitcoinNG/utxo-v1");
        data.extend_from_slice(&outpoint.txid.0);
        data.extend_from_slice(&outpoint.vout.to_le_bytes());
        data.extend_from_slice(&entry.output.amount.sats().to_le_bytes());
        data.extend_from_slice(&entry.output.address.0 .0);
        data.extend_from_slice(&entry.height.to_le_bytes());
        data.push(entry.coinbase as u8);
        ng_crypto::sha256::sha256(&data)
    }

    /// Folds an entry digest into (or out of — XOR is its own inverse) the rolling
    /// commitment.
    fn toggle_rolling(&mut self, outpoint: &OutPoint, entry: &UtxoEntry) {
        let digest = Self::entry_digest(outpoint, entry);
        for (acc, byte) in self.rolling.0.iter_mut().zip(digest.0.iter()) {
            *acc ^= byte;
        }
    }

    /// Inserts an entry, maintaining the rolling commitment; returns the entry this
    /// replaced, if the outpoint was already present.
    fn slot_insert(&mut self, outpoint: OutPoint, entry: UtxoEntry) -> Option<UtxoEntry> {
        let replaced = self.entries.insert(outpoint, entry);
        if let Some(old) = &replaced {
            self.toggle_rolling(&outpoint, old);
        }
        self.toggle_rolling(&outpoint, &entry);
        replaced
    }

    /// Removes an entry, maintaining the rolling commitment.
    fn slot_remove(&mut self, outpoint: &OutPoint) -> Option<UtxoEntry> {
        let removed = self.entries.remove(outpoint);
        if let Some(old) = &removed {
            self.toggle_rolling(outpoint, old);
        }
        removed
    }

    /// Number of unspent outputs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no unspent outputs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an unspent output.
    pub fn get(&self, outpoint: &OutPoint) -> Option<&UtxoEntry> {
        self.entries.get(outpoint)
    }

    /// True if the outpoint is currently unspent.
    pub fn contains(&self, outpoint: &OutPoint) -> bool {
        self.entries.contains_key(outpoint)
    }

    /// Total value held by an address.
    pub fn balance_of(&self, address: &Address) -> Amount {
        self.entries
            .values()
            .filter(|e| e.output.address == *address)
            .map(|e| e.output.amount)
            .sum()
    }

    /// All unspent outpoints owned by an address (for wallet-style coin selection).
    pub fn outpoints_of(&self, address: &Address) -> Vec<(OutPoint, UtxoEntry)> {
        let mut found: Vec<(OutPoint, UtxoEntry)> = self
            .entries
            .iter()
            .filter(|(_, e)| e.output.address == *address)
            .map(|(op, e)| (*op, *e))
            .collect();
        found.sort_by_key(|(op, _)| *op);
        found
    }

    /// Iterates over every unspent output in arbitrary (hash-map) order. Durable
    /// backends serialise snapshots from this; consumers needing a canonical order
    /// must sort by outpoint themselves, as [`Self::commitment`] does.
    pub fn iter(&self) -> impl Iterator<Item = (&OutPoint, &UtxoEntry)> {
        // ng-lint: allow(deterministic-iteration): arbitrary order is this API's
        // documented contract; every canonical-order consumer sorts by outpoint
        // (commitment, snapshots), and the set stays a HashMap because lookups
        // dominate the --assert-fast hot path.
        self.entries.iter()
    }

    /// Total value of every unspent output (supply conservation checks).
    pub fn total_value(&self) -> Amount {
        self.entries.values().map(|e| e.output.amount).sum()
    }

    /// Validates a non-coinbase transaction against the current set without modifying
    /// it: inputs must exist, be mature if coinbase, carry valid signatures, and the
    /// outputs must not exceed the inputs.
    ///
    /// Returns the transaction fee on success.
    pub fn validate(&self, tx: &Transaction, height: u64) -> Result<Amount, TxError> {
        self.validate_impl(tx, height, None, None, None)
    }

    /// Like [`Self::validate`], but skips the per-input Schnorr verification when the
    /// cache already proved this exact transaction's signatures (the txid commits to
    /// every signature byte, and an outpoint's address/amount are immutable, so a
    /// cached verdict stays sound across reorgs and re-gossip). State-dependent
    /// checks — input existence, maturity, value conservation — always run.
    pub fn validate_cached(
        &self,
        tx: &Transaction,
        height: u64,
        cache: &mut SigCache,
    ) -> Result<Amount, TxError> {
        self.validate_impl(tx, height, Some(cache), None, None)
    }

    /// Like [`Self::validate_cached`], but *defers* the uncached signature checks
    /// into `batch` instead of verifying them inline: the structural part of each
    /// input (key present, address matches the spent output) still runs here, while
    /// the Schnorr equation lands in the batch as a [`SigJob`]. Connect-time
    /// validation collects a whole block this way and verifies it as one batch;
    /// until [`BatchVerifier::flush`] succeeds the transaction's signatures are
    /// **unproven** and nothing enters the cache.
    pub fn validate_deferred(
        &self,
        tx: &Transaction,
        height: u64,
        cache: &mut SigCache,
        batch: &mut BatchVerifier,
    ) -> Result<Amount, TxError> {
        self.validate_impl(tx, height, Some(cache), None, Some(batch))
    }

    /// Like [`Self::validate_deferred`], but inputs missing from the set may resolve
    /// through `resolve` — mempool admission passes a lookup into the pending pool
    /// so a chained spend of a not-yet-serialized parent validates fully
    /// (signatures, vouts, value conservation) without duplicating these rules at
    /// the call site. Resolved outputs are unconfirmed, so no maturity applies.
    pub fn validate_deferred_chained(
        &self,
        tx: &Transaction,
        height: u64,
        cache: &mut SigCache,
        resolve: InputResolver<'_>,
        batch: &mut BatchVerifier,
    ) -> Result<Amount, TxError> {
        self.validate_impl(tx, height, Some(cache), Some(resolve), Some(batch))
    }

    fn validate_impl(
        &self,
        tx: &Transaction,
        height: u64,
        mut cache: Option<&mut SigCache>,
        resolve: Option<InputResolver<'_>>,
        mut defer: Option<&mut BatchVerifier>,
    ) -> Result<Amount, TxError> {
        if tx.is_coinbase() {
            return Err(TxError::UnexpectedCoinbase);
        }
        if tx.outputs.is_empty() {
            return Err(TxError::NoOutputs);
        }
        let txid = tx.txid();
        let sigs_known_good = match cache.as_deref_mut() {
            Some(cache) => cache.lookup(&txid),
            None => false,
        };
        // The signing hash covers the whole transaction; computed once per
        // transaction, not once per input.
        let mut sighash = None;
        let mut seen = std::collections::HashSet::new();
        let mut total_in = Amount::ZERO;
        for (i, input) in tx.inputs.iter().enumerate() {
            if !seen.insert(input.outpoint) {
                return Err(TxError::DuplicateInput(input.outpoint));
            }
            let output = match self.entries.get(&input.outpoint) {
                Some(entry) => {
                    if entry.coinbase && height < entry.height + self.coinbase_maturity {
                        return Err(TxError::ImmatureCoinbase {
                            outpoint: input.outpoint,
                            created_at: entry.height,
                            spend_height: height,
                        });
                    }
                    entry.output
                }
                None => resolve
                    .and_then(|resolve| resolve(&input.outpoint))
                    .ok_or(TxError::MissingInput(input.outpoint))?,
            };
            if !sigs_known_good {
                match defer.as_deref_mut() {
                    Some(batch) => {
                        // Structural checks run inline; only the signature equation
                        // is deferred.
                        let (Some(pubkey), Some(signature)) = (&input.pubkey, &input.signature)
                        else {
                            return Err(TxError::BadSignature(input.outpoint));
                        };
                        if pubkey.address() != output.address {
                            return Err(TxError::BadSignature(input.outpoint));
                        }
                        let sighash = *sighash.get_or_insert_with(|| tx.sighash());
                        batch.push(SigJob {
                            txid,
                            outpoint: input.outpoint,
                            pubkey: *pubkey,
                            sighash,
                            signature: signature.clone(),
                        });
                    }
                    None => {
                        if !tx.verify_input(i, &output) {
                            return Err(TxError::BadSignature(input.outpoint));
                        }
                    }
                }
            }
            total_in = total_in
                .checked_add(output.amount)
                .ok_or(TxError::ValueOverflow)?;
        }
        if let Some(cache) = cache {
            // Deferred signatures are unproven until the batch flushes; the flush
            // inserts the verdicts itself.
            if !sigs_known_good && defer.is_none() {
                cache.insert(txid);
            }
        }
        let total_out = tx
            .outputs
            .iter()
            .try_fold(Amount::ZERO, |acc, o| acc.checked_add(o.amount))
            .ok_or(TxError::ValueOverflow)?;
        total_in
            .checked_sub(total_out)
            .ok_or(TxError::InsufficientInputValue {
                inputs: total_in,
                outputs: total_out,
            })
    }

    /// Computes the fee a transaction would pay without checking signatures — used by
    /// the mempool for ordering (signatures are validated at block application time).
    pub fn fee_unchecked(&self, tx: &Transaction) -> Option<Amount> {
        if tx.is_coinbase() {
            return None;
        }
        let mut total_in = Amount::ZERO;
        for input in &tx.inputs {
            total_in = total_in.checked_add(self.entries.get(&input.outpoint)?.output.amount)?;
        }
        total_in.checked_sub(tx.total_output())
    }

    /// Applies a validated transaction: consumes its inputs and inserts its outputs.
    /// The caller must have validated the transaction first (debug-asserted).
    pub fn apply(&mut self, tx: &Transaction, height: u64) -> TxUndo {
        let txid = tx.txid();
        let mut spent = Vec::with_capacity(tx.inputs.len());
        for input in &tx.inputs {
            let entry = self
                .slot_remove(&input.outpoint)
                .expect("apply called with missing input; validate first");
            spent.push((input.outpoint, entry));
        }
        let coinbase = tx.is_coinbase();
        for (vout, output) in tx.outputs.iter().enumerate() {
            self.slot_insert(
                OutPoint::new(txid, vout as u32),
                UtxoEntry {
                    output: *output,
                    height,
                    coinbase,
                },
            );
        }
        TxUndo {
            txid,
            output_count: tx.outputs.len() as u32,
            spent,
        }
    }

    /// Rewinds a previously applied transaction using its undo record.
    pub fn unapply(&mut self, undo: &TxUndo) {
        for vout in 0..undo.output_count {
            self.slot_remove(&OutPoint::new(undo.txid, vout));
        }
        for (outpoint, entry) in &undo.spent {
            self.slot_insert(*outpoint, *entry);
        }
    }

    /// Directly inserts an output (used for genesis allocations, simulator set-up and
    /// unchecked ledger replay). Returns the entry it replaced, if the outpoint was
    /// already present — undo-exact replay records these.
    pub fn insert_unchecked(&mut self, outpoint: OutPoint, entry: UtxoEntry) -> Option<UtxoEntry> {
        self.slot_insert(outpoint, entry)
    }

    /// Removes an output regardless of spend rules, returning the removed entry.
    /// Used by ledger views that replay blocks without signature checking.
    pub fn remove_unchecked(&mut self, outpoint: &OutPoint) -> Option<UtxoEntry> {
        self.slot_remove(outpoint)
    }

    /// The rolling order-independent commitment: XOR of a domain-tagged digest of
    /// every entry, maintained incrementally. O(1) to read, equal for equal sets no
    /// matter how they were built, and what the live node exposes per block — the
    /// differential suites pin it against a fresh replay's rolling commitment.
    pub fn rolling_commitment(&self) -> Hash256 {
        self.rolling
    }

    /// A deterministic commitment to the entire set: entries are serialised in
    /// outpoint order and hashed. Two nodes hold the same UTXO state iff their
    /// commitments match. O(n log n) — the strong form the oracle tests compare;
    /// the hot path reads [`Self::rolling_commitment`] instead.
    pub fn commitment(&self) -> ng_crypto::sha256::Hash256 {
        let mut keys: Vec<&OutPoint> = self.entries.keys().collect();
        keys.sort_unstable_by_key(|op| (op.txid, op.vout));
        let mut data = Vec::with_capacity(keys.len() * 80 + 8);
        data.extend_from_slice(&(keys.len() as u64).to_le_bytes());
        for outpoint in keys {
            let entry = &self.entries[outpoint];
            data.extend_from_slice(&outpoint.txid.0);
            data.extend_from_slice(&outpoint.vout.to_le_bytes());
            data.extend_from_slice(&entry.output.amount.sats().to_le_bytes());
            data.extend_from_slice(&entry.output.address.0 .0);
            data.extend_from_slice(&entry.height.to_le_bytes());
            data.push(entry.coinbase as u8);
        }
        ng_crypto::sha256::sha256(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::TransactionBuilder;
    use ng_crypto::keys::KeyPair;
    use ng_crypto::signer::SchnorrSigner;

    fn funded_set(owner: &KeyPair, coins: u64) -> (UtxoSet, OutPoint) {
        let mut set = UtxoSet::with_maturity(0);
        let coinbase = Transaction::coinbase(
            vec![TxOutput::new(Amount::from_coins(coins), owner.address())],
            b"genesis",
        );
        let outpoint = OutPoint::new(coinbase.txid(), 0);
        set.apply(&coinbase, 0);
        (set, outpoint)
    }

    fn spend(owner: &KeyPair, from: OutPoint, to: Address, amount: Amount) -> Transaction {
        let mut tx = TransactionBuilder::new().input(from).output(amount, to).build();
        tx.sign_all_inputs(&SchnorrSigner::new(*owner));
        tx
    }

    #[test]
    fn apply_and_balance() {
        let alice = KeyPair::from_id(1);
        let bob = KeyPair::from_id(2);
        let (mut set, outpoint) = funded_set(&alice, 50);
        assert_eq!(set.balance_of(&alice.address()), Amount::from_coins(50));

        let tx = spend(&alice, outpoint, bob.address(), Amount::from_coins(49));
        let fee = set.validate(&tx, 1).unwrap();
        assert_eq!(fee, Amount::from_coins(1));
        set.apply(&tx, 1);
        assert_eq!(set.balance_of(&bob.address()), Amount::from_coins(49));
        assert_eq!(set.balance_of(&alice.address()), Amount::ZERO);
    }

    #[test]
    fn double_spend_rejected() {
        let alice = KeyPair::from_id(3);
        let bob = KeyPair::from_id(4);
        let (mut set, outpoint) = funded_set(&alice, 10);
        let tx1 = spend(&alice, outpoint, bob.address(), Amount::from_coins(9));
        let tx2 = spend(&alice, outpoint, alice.address(), Amount::from_coins(9));
        set.apply(&tx1, 1);
        assert!(matches!(
            set.validate(&tx2, 2),
            Err(TxError::MissingInput(_))
        ));
    }

    #[test]
    fn duplicate_input_within_tx_rejected() {
        let alice = KeyPair::from_id(5);
        let (set, outpoint) = funded_set(&alice, 10);
        let mut tx = TransactionBuilder::new()
            .input(outpoint)
            .input(outpoint)
            .output(Amount::from_coins(15), alice.address())
            .build();
        tx.sign_all_inputs(&SchnorrSigner::new(alice));
        assert!(matches!(
            set.validate(&tx, 1),
            Err(TxError::DuplicateInput(_))
        ));
    }

    #[test]
    fn output_exceeding_input_rejected() {
        let alice = KeyPair::from_id(6);
        let (set, outpoint) = funded_set(&alice, 10);
        let tx = spend(&alice, outpoint, alice.address(), Amount::from_coins(11));
        assert!(matches!(
            set.validate(&tx, 1),
            Err(TxError::InsufficientInputValue { .. })
        ));
    }

    #[test]
    fn immature_coinbase_rejected_then_accepted() {
        let alice = KeyPair::from_id(7);
        let mut set = UtxoSet::with_maturity(100);
        let coinbase = Transaction::coinbase(
            vec![TxOutput::new(Amount::from_coins(50), alice.address())],
            b"cb",
        );
        let outpoint = OutPoint::new(coinbase.txid(), 0);
        set.apply(&coinbase, 10);
        let tx = spend(&alice, outpoint, alice.address(), Amount::from_coins(50));
        assert!(matches!(
            set.validate(&tx, 50),
            Err(TxError::ImmatureCoinbase { .. })
        ));
        assert!(set.validate(&tx, 110).is_ok());
    }

    #[test]
    fn unapply_restores_previous_state() {
        let alice = KeyPair::from_id(8);
        let bob = KeyPair::from_id(9);
        let (mut set, outpoint) = funded_set(&alice, 20);
        let before = set.clone();
        let tx = spend(&alice, outpoint, bob.address(), Amount::from_coins(20));
        let undo = set.apply(&tx, 1);
        assert_ne!(set.balance_of(&alice.address()), before.balance_of(&alice.address()));
        set.unapply(&undo);
        assert_eq!(set.balance_of(&alice.address()), Amount::from_coins(20));
        assert_eq!(set.balance_of(&bob.address()), Amount::ZERO);
        assert_eq!(set.len(), before.len());
    }

    #[test]
    fn coinbase_not_validated_as_regular_tx() {
        let alice = KeyPair::from_id(10);
        let (set, _) = funded_set(&alice, 1);
        let cb = Transaction::coinbase(
            vec![TxOutput::new(Amount::from_coins(1), alice.address())],
            b"x",
        );
        assert!(matches!(set.validate(&cb, 1), Err(TxError::UnexpectedCoinbase)));
    }

    #[test]
    fn fee_unchecked_matches_validate() {
        let alice = KeyPair::from_id(11);
        let bob = KeyPair::from_id(12);
        let (set, outpoint) = funded_set(&alice, 5);
        let tx = spend(&alice, outpoint, bob.address(), Amount::from_coins(4));
        assert_eq!(set.fee_unchecked(&tx), Some(Amount::from_coins(1)));
        assert_eq!(set.validate(&tx, 1).unwrap(), Amount::from_coins(1));
    }

    #[test]
    fn outpoints_of_lists_owned_outputs() {
        let alice = KeyPair::from_id(13);
        let (set, outpoint) = funded_set(&alice, 5);
        let owned = set.outpoints_of(&alice.address());
        assert_eq!(owned.len(), 1);
        assert_eq!(owned[0].0, outpoint);
        assert_eq!(set.total_value(), Amount::from_coins(5));
    }

    #[test]
    fn commitment_is_insertion_order_independent() {
        let alice = KeyPair::from_id(14);
        let bob = KeyPair::from_id(15);
        let out_a = OutPoint::new(ng_crypto::sha256::sha256(b"a"), 0);
        let out_b = OutPoint::new(ng_crypto::sha256::sha256(b"b"), 1);
        let entry_a = UtxoEntry {
            output: TxOutput::new(Amount::from_sats(10), alice.address()),
            height: 1,
            coinbase: false,
        };
        let entry_b = UtxoEntry {
            output: TxOutput::new(Amount::from_sats(20), bob.address()),
            height: 2,
            coinbase: true,
        };
        let mut forward = UtxoSet::new();
        forward.insert_unchecked(out_a, entry_a);
        forward.insert_unchecked(out_b, entry_b);
        let mut backward = UtxoSet::new();
        backward.insert_unchecked(out_b, entry_b);
        backward.insert_unchecked(out_a, entry_a);
        assert_eq!(forward.commitment(), backward.commitment());

        // Any state difference changes the commitment.
        backward.remove_unchecked(&out_a);
        assert_ne!(forward.commitment(), backward.commitment());
        assert_ne!(UtxoSet::new().commitment(), forward.commitment());
    }

    #[test]
    fn rolling_commitment_tracks_every_mutation_path() {
        let alice = KeyPair::from_id(20);
        let bob = KeyPair::from_id(21);
        let (mut set, outpoint) = funded_set(&alice, 30);
        let via_apply = set.rolling_commitment();

        // The same state built through unchecked inserts yields the same rolling
        // commitment (order independence across mutation APIs).
        let mut manual = UtxoSet::with_maturity(0);
        for (op, entry) in set.outpoints_of(&alice.address()) {
            manual.insert_unchecked(op, entry);
        }
        assert_eq!(manual.rolling_commitment(), via_apply);

        // Apply + unapply round-trips the commitment exactly.
        let tx = spend(&alice, outpoint, bob.address(), Amount::from_coins(30));
        let undo = set.apply(&tx, 1);
        assert_ne!(set.rolling_commitment(), via_apply);
        set.unapply(&undo);
        assert_eq!(set.rolling_commitment(), via_apply);

        // Overwriting an existing entry folds the old digest out first.
        let replaced = manual.insert_unchecked(
            outpoint,
            UtxoEntry {
                output: TxOutput::new(Amount::from_sats(1), bob.address()),
                height: 9,
                coinbase: false,
            },
        );
        assert!(replaced.is_some());
        manual.remove_unchecked(&outpoint);
        manual.insert_unchecked(outpoint, replaced.unwrap());
        assert_eq!(manual.rolling_commitment(), via_apply);

        // Empty sets agree at zero.
        assert_eq!(
            UtxoSet::new().rolling_commitment(),
            UtxoSet::with_maturity(0).rolling_commitment()
        );
    }

    #[test]
    fn sig_cache_skips_reverification_but_not_state_checks() {
        use crate::sigcache::SigCache;
        let alice = KeyPair::from_id(22);
        let bob = KeyPair::from_id(23);
        let (mut set, outpoint) = funded_set(&alice, 10);
        let tx = spend(&alice, outpoint, bob.address(), Amount::from_coins(9));
        let mut cache = SigCache::new(16);

        let fee = set.validate_cached(&tx, 1, &mut cache).unwrap();
        assert_eq!(fee, Amount::from_coins(1));
        assert_eq!(cache.hits(), 0);
        let fee = set.validate_cached(&tx, 1, &mut cache).unwrap();
        assert_eq!(fee, Amount::from_coins(1));
        assert_eq!(cache.hits(), 1, "second validation hits the cache");

        // A cached verdict never bypasses state-dependent checks: once the input is
        // spent, validation still fails.
        set.apply(&tx, 1);
        assert!(matches!(
            set.validate_cached(&tx, 2, &mut cache),
            Err(TxError::MissingInput(_))
        ));
    }
}
