//! The signature-verification cache, and the batch-verification
//! front-end that feeds it.
//!
//! Schnorr verification dominates transaction validation cost. Because a txid is the
//! double SHA-256 of the *entire* serialized transaction — signatures and public keys
//! included — "the signatures of transaction X verify against the outputs it spends"
//! is a pure function of the txid: an outpoint's address and amount are fixed by the
//! transaction that created it and never vary across branches. A node can therefore
//! remember the verdict once and skip re-verification when the same transaction comes
//! back — reorg-reconnected blocks, gossip duplicates, mempool re-admission — while
//! still re-running every state-dependent check (existence, maturity, conservation)
//! against the live UTXO view.
//!
//! Only *successful* verifications are cached: a negative cache would let an attacker
//! poison honest nodes against a transaction id.
//!
//! [`BatchVerifier`] sits in front of the cache: connect-time validation *defers*
//! each uncached signature as a [`SigJob`] and flushes the whole block's jobs as one
//! random-linear-combination batch ([`ng_crypto::schnorr::verify_batch`]), optionally
//! fanned across a [`BatchExecutor`]'s worker threads. On batch failure bisection
//! pinpoints every culprit, each surfaced as a [`BatchSigFailure`], while the
//! transactions whose signatures all verified are still cached: a connecting block
//! is rejected on any failure, and an admission batch refuses only the culprits.

use ng_crypto::schnorr::{self, BatchEntry, Signature};
use ng_crypto::sha256::Hash256;
use ng_crypto::signer::SignatureBytes;
use ng_crypto::PublicKey;
use crate::transaction::OutPoint;
use crate::fifo::BoundedFifoMap;
use std::collections::HashSet;
use std::sync::Arc;

/// The dedup key of one signature equation within one transaction: its txid and
/// everything else [`SigJob`] carries except the outpoint. The transaction format
/// shares one signature across all inputs of a common owner (`sign_all_inputs`),
/// so a multi-input transaction emits many jobs proving the same equation —
/// verifying it once suffices. Equations are never shared across transactions:
/// a failing job then condemns exactly the transaction it came from, so the
/// transactions whose own jobs all passed can be cached even when others failed.
type SigEquation = (Hash256, PublicKey, Hash256, SignatureBytes);

/// Default capacity: at ~200 bytes per pooled transaction this covers far more
/// transactions than a microblock interval serializes.
pub const DEFAULT_SIG_CACHE_CAP: usize = 1 << 16;

/// A bounded FIFO set of transaction ids whose signatures verified, with hit/miss
/// accounting.
#[derive(Clone, Debug)]
pub struct SigCache {
    verified: BoundedFifoMap<Hash256, ()>,
    hits: u64,
    misses: u64,
}

impl Default for SigCache {
    fn default() -> Self {
        Self::new(DEFAULT_SIG_CACHE_CAP)
    }
}

impl SigCache {
    /// Creates a cache holding at most `cap` verdicts (oldest evicted first).
    pub fn new(cap: usize) -> Self {
        SigCache {
            verified: BoundedFifoMap::new(cap),
            hits: 0,
            misses: 0,
        }
    }

    /// True if this transaction's signatures are known good; counts the lookup.
    pub fn lookup(&mut self, txid: &Hash256) -> bool {
        if self.verified.contains_key(txid) {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Read-only membership test (no hit/miss accounting).
    pub fn contains(&self, txid: &Hash256) -> bool {
        self.verified.contains_key(txid)
    }

    /// Records a successful verification, evicting the oldest verdict at capacity.
    pub fn insert(&mut self, txid: Hash256) {
        self.verified.insert(txid, ());
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.verified.len()
    }

    /// True if no verdicts are cached.
    pub fn is_empty(&self) -> bool {
        self.verified.is_empty()
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a real verification.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// One deferred signature check: everything needed to verify a single input's
/// signature later, plus the identifiers needed to attribute a failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SigJob {
    /// Transaction the input belongs to (the unit the cache remembers).
    pub txid: Hash256,
    /// Outpoint the input spends (for error attribution).
    pub outpoint: OutPoint,
    /// Public key claimed by the input.
    pub pubkey: PublicKey,
    /// The transaction's signing hash.
    pub sighash: Hash256,
    /// The signature to check.
    pub signature: SignatureBytes,
}

fn equation(job: &SigJob) -> SigEquation {
    (job.txid, job.pubkey, job.sighash, job.signature.clone())
}

/// Executor for batch verification; implementations may fan independent chunks
/// across worker threads ([`BatchVerifier`] splits its jobs into `workers()` chunks).
pub trait BatchExecutor: Send + Sync {
    /// Number of independent workers (1 = inline execution).
    fn workers(&self) -> usize;
    /// Verifies each chunk as its own batch, returning one verdict per chunk in
    /// order. Implementations call [`ng_crypto::schnorr::verify_batch`] per chunk.
    fn verify_chunks(&self, chunks: Vec<Vec<BatchEntry>>) -> Vec<bool>;
}

/// A batch signature failure: the transaction and input the bisection pinned down.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchSigFailure {
    /// Transaction whose signature failed.
    pub txid: Hash256,
    /// The offending input's outpoint.
    pub outpoint: OutPoint,
}

/// Collects a connecting block's uncached signature jobs and verifies them as one
/// batch — the front-end to [`SigCache`]. See the module docs.
#[derive(Default)]
pub struct BatchVerifier {
    jobs: Vec<SigJob>,
    seen: HashSet<SigEquation>,
    executor: Option<Arc<dyn BatchExecutor>>,
}

impl std::fmt::Debug for BatchVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchVerifier")
            .field("jobs", &self.jobs.len())
            .field("parallel", &self.executor.is_some())
            .finish()
    }
}

impl BatchVerifier {
    /// A verifier that runs its batches inline on the calling thread.
    pub fn new() -> Self {
        Self::default()
    }

    /// A verifier fanning batches across the given executor's workers.
    pub fn with_executor(executor: Arc<dyn BatchExecutor>) -> Self {
        BatchVerifier {
            jobs: Vec::new(),
            seen: HashSet::new(),
            executor: Some(executor),
        }
    }

    /// Defers one signature check. Jobs proving an equation the same transaction
    /// already deferred — a multi-input transaction carries the same `(pubkey,
    /// sighash, signature)` on every input of a common owner — are dropped: one
    /// verification covers them.
    pub fn push(&mut self, job: SigJob) {
        if self.seen.insert(equation(&job)) {
            self.jobs.push(job);
        }
    }

    /// Number of deferred jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if nothing is deferred.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Drops the jobs deferred after the first `len` — those of a transaction
    /// whose validation failed after some of its signatures were deferred. Its
    /// equations leave the dedup set with them, so a later push defers them again.
    pub fn truncate(&mut self, len: usize) {
        for job in self.jobs.drain(len.min(self.jobs.len())..) {
            self.seen.remove(&equation(&job));
        }
    }

    /// Verifies every deferred job as one batch (fanned across the executor's
    /// workers when one is installed) and leaves the verifier empty. A txid is
    /// cached once **all** of its jobs verified. When any job fails, bisection
    /// finds every failing one: they are returned in deferral order, and the
    /// transactions without a failing job are cached all the same.
    pub fn flush(&mut self, cache: &mut SigCache) -> Result<(), Vec<BatchSigFailure>> {
        let jobs = std::mem::take(&mut self.jobs);
        self.seen.clear();
        if jobs.is_empty() {
            return Ok(());
        }
        let entries: Vec<BatchEntry> = jobs
            .iter()
            .map(|job| {
                let SignatureBytes::Schnorr(bytes) = &job.signature;
                (job.pubkey, job.sighash, Signature::from_bytes(bytes))
            })
            .collect();
        let invalid = Self::verify_schnorr(&entries, self.executor.as_deref());
        let failures: Vec<BatchSigFailure> = invalid
            .into_iter()
            .map(|bad| BatchSigFailure {
                txid: jobs[bad].txid,
                outpoint: jobs[bad].outpoint,
            })
            .collect();
        let failed: HashSet<Hash256> = failures.iter().map(|failure| failure.txid).collect();
        for job in jobs.iter().filter(|job| !failed.contains(&job.txid)) {
            cache.insert(job.txid);
        }
        match failures.is_empty() {
            true => Ok(()),
            false => Err(failures),
        }
    }

    /// Verifies the batch, returning the index of every invalid entry, ascending
    /// (empty = all good). With an executor the batch splits into one chunk per
    /// worker; a failing chunk is bisected inline (failures are the rare path).
    fn verify_schnorr(entries: &[BatchEntry], executor: Option<&dyn BatchExecutor>) -> Vec<usize> {
        let workers = executor.map(|e| e.workers()).unwrap_or(1);
        if workers <= 1 || entries.len() < 2 * workers {
            // find_invalid's root step IS the batch verification: the happy path
            // costs exactly one batch pass, a failure goes straight to bisection.
            return schnorr::find_invalid(entries);
        }
        let executor = executor.expect("workers > 1 implies an executor");
        let chunk_size = entries.len().div_ceil(workers);
        let chunks: Vec<Vec<BatchEntry>> = entries
            .chunks(chunk_size)
            .map(|c| c.to_vec())
            .collect();
        let verdicts = executor.verify_chunks(chunks);
        let mut invalid = Vec::new();
        for (chunk_index, ok) in verdicts.iter().enumerate() {
            if !ok {
                let start = chunk_index * chunk_size;
                let end = (start + chunk_size).min(entries.len());
                let bad = schnorr::find_invalid(&entries[start..end]);
                invalid.extend(bad.into_iter().map(|i| start + i));
            }
        }
        invalid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_crypto::sha256::sha256;

    #[test]
    fn lookup_insert_and_stats() {
        let mut cache = SigCache::new(8);
        let id = sha256(b"tx");
        assert!(!cache.lookup(&id));
        cache.insert(id);
        assert!(cache.lookup(&id));
        assert!(cache.contains(&id));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let mut cache = SigCache::new(2);
        let ids: Vec<_> = (0u8..3).map(|i| sha256(&[i])).collect();
        for id in &ids {
            cache.insert(*id);
        }
        assert_eq!(cache.len(), 2);
        assert!(!cache.contains(&ids[0]), "oldest evicted");
        assert!(cache.contains(&ids[1]) && cache.contains(&ids[2]));
        // Re-inserting an existing id does not grow or reorder the queue.
        cache.insert(ids[2]);
        assert_eq!(cache.len(), 2);
    }

    fn job(id: u64, tamper: bool) -> SigJob {
        use ng_crypto::keys::KeyPair;
        use ng_crypto::signer::SchnorrSigner;
        let kp = KeyPair::from_id(id);
        let sighash = sha256(&id.to_le_bytes());
        let mut signature = SchnorrSigner::new(kp).sign(&sighash);
        if tamper {
            let SignatureBytes::Schnorr(bytes) = &mut signature;
            bytes[64] ^= 1;
        }
        SigJob {
            txid: sha256(&[b"tx".as_slice(), &id.to_le_bytes()].concat()),
            outpoint: OutPoint::new(sha256(&id.to_le_bytes()), 0),
            pubkey: kp.public,
            sighash,
            signature,
        }
    }

    #[test]
    fn batch_verifier_flushes_verdicts_into_the_cache() {
        let mut cache = SigCache::new(64);
        let mut batch = BatchVerifier::new();
        let jobs: Vec<SigJob> = (0..6).map(|i| job(i, false)).collect();
        for j in &jobs {
            batch.push(j.clone());
        }
        // Identical jobs dedup (one signature shared by a tx's inputs).
        batch.push(jobs[0].clone());
        assert_eq!(batch.len(), 6);
        batch.flush(&mut cache).expect("all signatures valid");
        assert!(batch.is_empty());
        for j in &jobs {
            assert!(cache.contains(&j.txid), "verdict cached");
        }
    }

    #[test]
    fn batch_verifier_pinpoints_the_bad_job_and_caches_the_rest() {
        let mut cache = SigCache::new(64);
        let mut batch = BatchVerifier::new();
        for i in 0..8 {
            batch.push(job(i, i == 5));
        }
        let failures = batch.flush(&mut cache).unwrap_err();
        let expected = BatchSigFailure {
            txid: job(5, false).txid,
            outpoint: job(5, false).outpoint,
        };
        assert_eq!(failures, vec![expected]);
        let culprit = job(5, false).txid;
        assert!(!cache.contains(&culprit), "the culprit is never cached");
        assert_eq!(cache.len(), 7, "the seven good verdicts are");
    }

    #[test]
    fn every_forged_signature_in_a_batch_is_reported_and_the_others_are_cached() {
        let forged = [17, 50];
        let run = |executor: Option<Arc<dyn BatchExecutor>>| {
            let mut cache = SigCache::new(128);
            let mut batch = match executor {
                Some(executor) => BatchVerifier::with_executor(executor),
                None => BatchVerifier::new(),
            };
            for i in 0..64 {
                batch.push(job(i, forged.contains(&i)));
            }
            let failures = batch.flush(&mut cache).unwrap_err();
            (failures, cache)
        };
        for executor in [None, Some(Arc::new(TwoChunks) as Arc<dyn BatchExecutor>)] {
            let (failures, cache) = run(executor);
            let reported: Vec<Hash256> = failures.iter().map(|failure| failure.txid).collect();
            let expected = forged.map(|i| job(i, false).txid).to_vec();
            assert_eq!(reported, expected, "both, in order");
            assert_eq!(cache.len(), 62);
            assert!((0..64)
                .filter(|i| !forged.contains(i))
                .all(|i| cache.contains(&job(i, false).txid)));
        }
    }

    /// An executor that verifies its chunks inline, as two workers would.
    struct TwoChunks;

    impl BatchExecutor for TwoChunks {
        fn workers(&self) -> usize {
            2
        }
        fn verify_chunks(&self, chunks: Vec<Vec<BatchEntry>>) -> Vec<bool> {
            chunks
                .iter()
                .map(|chunk| schnorr::verify_batch(chunk).is_ok())
                .collect()
        }
    }

    #[test]
    fn truncate_drops_the_jobs_of_a_refused_transaction() {
        let mut cache = SigCache::new(8);
        let mut batch = BatchVerifier::new();
        batch.push(job(1, false));
        batch.push(job(2, true));
        batch.truncate(1);
        assert_eq!(batch.len(), 1);
        // Its equation left the dedup set too: pushed again, it is deferred again.
        batch.push(job(2, true));
        assert_eq!(batch.len(), 2);
        batch.truncate(1);
        batch.flush(&mut cache).expect("the forged job went");
        assert!(cache.contains(&job(1, false).txid));
    }

    #[test]
    fn empty_flush_is_a_no_op() {
        let mut cache = SigCache::new(4);
        BatchVerifier::new().flush(&mut cache).unwrap();
        assert!(cache.is_empty());
    }
}
