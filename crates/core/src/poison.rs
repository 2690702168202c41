//! Poison transactions: fraud proofs against equivocating leaders.
//!
//! "Since microblocks do not require mining, they can cheaply and quickly be generated
//! by the leader, allowing it to split the brain of the system ... To demotivate such
//! behavior, we use a dedicated ledger entry that invalidates the revenue of fraudulent
//! leaders ... the entry is called a poison transaction, and it contains the header of
//! the first block in the pruned branch as a proof of fraud" (§4.5).
//!
//! The proof here is strictly stronger than the paper's sketch: it carries **both**
//! conflicting signed headers — two distinct microblock headers with the same parent,
//! signed by the same leader. That makes the evidence self-contained: its validity is
//! a pure function of the two signatures, never of which sibling a particular node's
//! main chain happens to carry. A single pruned header is *not* proof of fraud —
//! microblocks are innocently pruned whenever a competing key block forks off a
//! leader's microblock tail, and accepting one as evidence would let any peer revoke
//! an honest leader's epoch revenue by citing such a casualty.

use crate::block::{MicroBlock, MicroHeader};
use crate::params::NgParams;
use ng_chain::amount::Amount;
use ng_crypto::sha256::Hash256;
use ng_crypto::signer::{verify_signature, SignatureBytes};
use ng_crypto::PublicKey;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A poison transaction: evidence that a leader signed two conflicting microblocks
/// (same parent, same leader, different contents) — an equivocation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoisonTransaction {
    /// First of the two conflicting headers (canonically the smaller id).
    pub header_a: MicroHeader,
    /// The accused leader's signature over `header_a`.
    pub signature_a: SignatureBytes,
    /// Second conflicting header: same `prev` and leader as `header_a`, different id.
    pub header_b: MicroHeader,
    /// The accused leader's signature over `header_b`.
    pub signature_b: SignatureBytes,
    /// Identity (miner id) of the accused leader.
    pub accused_leader: u64,
    /// Identity of the node placing the poison transaction (the current leader, who
    /// collects the bounty).
    pub poisoner: u64,
}

impl PoisonTransaction {
    /// Builds a proof from two conflicting microblocks, canonicalising the pair
    /// order by header id so every observer of the same equivocation constructs the
    /// same evidence bytes. Returns `None` unless the pair actually proves an
    /// equivocation: same parent, same leader, distinct ids. Signatures are taken
    /// from the blocks as observed — they are verified at acceptance time.
    pub fn from_conflict(a: &MicroBlock, b: &MicroBlock, poisoner: u64) -> Option<Self> {
        let (first, second) = if a.id() <= b.id() { (a, b) } else { (b, a) };
        let poison = PoisonTransaction {
            header_a: first.header.clone(),
            signature_a: first.signature.clone(),
            header_b: second.header.clone(),
            signature_b: second.signature.clone(),
            accused_leader: first.header.leader,
            poisoner,
        };
        poison.check_conflict().ok()?;
        Some(poison)
    }

    /// The shared parent of the two conflicting headers — the block the epoch is
    /// attributed from.
    pub fn parent(&self) -> Hash256 {
        self.header_a.prev
    }

    /// Structural check that the cited pair can prove an equivocation at all: both
    /// headers name the accused leader, share a parent, and are distinct. This is
    /// the signature-free half of [`verify_evidence`]; it needs no chain context,
    /// so it gates buffering of proofs whose epoch cannot be attributed yet.
    pub fn check_conflict(&self) -> Result<(), PoisonError> {
        if self.header_a.leader != self.accused_leader
            || self.header_b.leader != self.accused_leader
        {
            return Err(PoisonError::WrongLeader);
        }
        if self.header_a.prev != self.header_b.prev || self.header_a.id() == self.header_b.id() {
            return Err(PoisonError::NoConflict);
        }
        Ok(())
    }

    /// Canonical transaction id: a tagged hash over the evidence and the identities.
    /// Competing poisons against the same cheater (several honest nodes detecting the
    /// same fraud independently) are totally ordered by this id, and the network
    /// converges on the smallest one.
    pub fn txid(&self) -> Hash256 {
        let mut preimage = self.header_a.bytes();
        append_signature(&mut preimage, &self.signature_a);
        preimage.extend_from_slice(&self.header_b.bytes());
        append_signature(&mut preimage, &self.signature_b);
        preimage.extend_from_slice(&self.accused_leader.to_le_bytes());
        preimage.extend_from_slice(&self.poisoner.to_le_bytes());
        ng_crypto::sha256::tagged_hash("BitcoinNG/poison", &preimage)
    }
}

fn append_signature(preimage: &mut Vec<u8>, signature: &SignatureBytes) {
    let SignatureBytes::Schnorr(sig) = signature;
    preimage.extend_from_slice(sig);
}

/// Why a poison transaction was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoisonError {
    /// A cited header's signature does not verify under the accused leader's
    /// microblock key.
    BadEvidenceSignature,
    /// The two cited headers do not conflict: different parents, or the same header
    /// twice — either way, no equivocation is proven.
    NoConflict,
    /// The conflicting headers' parent is unknown, so the fork cannot be attributed
    /// to an epoch.
    UnknownParent,
    /// The accused leader was not the leader at the fork point.
    WrongLeader,
    /// A poison transaction was already accepted against this leader for this epoch
    /// ("Only one poison transaction can be placed per cheater", §4.5).
    AlreadyPoisoned,
    /// The poison transaction arrived too late: the accused revenue already matured and
    /// was spent.
    TooLate,
}

impl fmt::Display for PoisonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoisonError::BadEvidenceSignature => write!(f, "evidence signature invalid"),
            PoisonError::NoConflict => write!(f, "cited headers do not prove an equivocation"),
            PoisonError::UnknownParent => write!(f, "conflicting headers have unknown parent"),
            PoisonError::WrongLeader => write!(f, "accused node was not the leader"),
            PoisonError::AlreadyPoisoned => write!(f, "leader already poisoned this epoch"),
            PoisonError::TooLate => write!(f, "poison transaction placed after revenue was spent"),
        }
    }
}

impl std::error::Error for PoisonError {}

/// Economic effect of an accepted poison transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoisonEffect {
    /// The leader whose compensation is revoked.
    pub revoked_leader: u64,
    /// Compensation taken away from the fraudulent leader.
    pub revoked_amount: Amount,
    /// Bounty granted to the poisoner (§4.5: "e.g., 5%").
    pub poisoner_reward: Amount,
    /// Value destroyed ("The cheater's revenue funds not relayed to the poisoner are
    /// lost", §4.5).
    pub burned: Amount,
}

/// Verifies the *evidence* of a poison transaction: the cited headers must form a
/// genuine conflict ([`PoisonTransaction::check_conflict`]) and both signatures must
/// verify under the accused leader's microblock public key. Nothing here depends on
/// any node's main chain: an equivocation, once signed, is proof of fraud forever,
/// no matter which sibling later wins.
pub fn verify_evidence(
    poison: &PoisonTransaction,
    accused_pubkey: &PublicKey,
) -> Result<(), PoisonError> {
    poison.check_conflict()?;
    let verify = |header: &MicroHeader, sig: &SignatureBytes| {
        verify_signature(accused_pubkey, &header.signing_hash(), sig)
    };
    verify(&poison.header_a, &poison.signature_a)
        .and_then(|()| verify(&poison.header_b, &poison.signature_b))
        .map_err(|_| PoisonError::BadEvidenceSignature)
}

/// Computes the economic effect of an accepted poison transaction against a leader
/// whose epoch compensation was `revoked_amount`.
pub fn poison_effect(
    accused_leader: u64,
    revoked_amount: Amount,
    params: &NgParams,
) -> PoisonEffect {
    let poisoner_reward = revoked_amount.mul_ratio(params.poison_reward_percent, 100);
    PoisonEffect {
        revoked_leader: accused_leader,
        revoked_amount,
        poisoner_reward,
        burned: revoked_amount - poisoner_reward,
    }
}

/// Serialized size of a poison transaction in bytes (used for block-size accounting).
pub fn poison_size_bytes(poison: &PoisonTransaction) -> u64 {
    poison.header_a.bytes().len() as u64 + poison.header_b.bytes().len() as u64 + 2 * 65 + 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_chain::payload::Payload;
    use ng_crypto::keys::KeyPair;
    use ng_crypto::sha256::sha256;
    use ng_crypto::signer::SchnorrSigner;

    fn signed_micro(leader: u64, parent: &[u8], tag: u64) -> (MicroBlock, PublicKey) {
        let kp = KeyPair::from_id(leader);
        let payload = Payload::Synthetic {
            bytes: 100,
            tx_count: 1,
            total_fees: Amount::from_sats(10),
            tag,
        };
        let header = MicroHeader {
            prev: sha256(parent),
            time_ms: 1000,
            payload_digest: payload.digest(),
            leader,
        };
        let signature = SchnorrSigner::new(kp).sign(&header.signing_hash());
        (
            MicroBlock {
                header,
                payload,
                signature,
            },
            kp.public,
        )
    }

    fn conflicting_pair(leader: u64) -> (MicroBlock, MicroBlock, PublicKey) {
        let (a, pubkey) = signed_micro(leader, b"some parent", 1);
        let (b, _) = signed_micro(leader, b"some parent", 2);
        (a, b, pubkey)
    }

    #[test]
    fn valid_evidence_accepted() {
        let (a, b, pubkey) = conflicting_pair(7);
        let poison = PoisonTransaction::from_conflict(&a, &b, 9).expect("genuine conflict");
        assert!(verify_evidence(&poison, &pubkey).is_ok());
    }

    #[test]
    fn pair_order_is_canonical() {
        let (a, b, _) = conflicting_pair(7);
        let forward = PoisonTransaction::from_conflict(&a, &b, 9).expect("conflict");
        let reversed = PoisonTransaction::from_conflict(&b, &a, 9).expect("conflict");
        assert_eq!(forward, reversed);
        assert_eq!(forward.txid(), reversed.txid());
    }

    #[test]
    fn single_header_is_not_a_conflict() {
        let (a, _, _) = conflicting_pair(7);
        assert!(PoisonTransaction::from_conflict(&a, &a.clone(), 9).is_none());
    }

    #[test]
    fn different_parents_are_not_a_conflict() {
        let (a, _) = signed_micro(7, b"parent one", 1);
        let (b, _) = signed_micro(7, b"parent two", 2);
        assert!(PoisonTransaction::from_conflict(&a, &b, 9).is_none());
        let poison = PoisonTransaction {
            header_a: a.header.clone(),
            signature_a: a.signature.clone(),
            header_b: b.header.clone(),
            signature_b: b.signature.clone(),
            accused_leader: 7,
            poisoner: 9,
        };
        assert_eq!(poison.check_conflict(), Err(PoisonError::NoConflict));
    }

    #[test]
    fn forged_evidence_rejected() {
        let (a, b, pubkey) = conflicting_pair(7);
        let (other, _, _) = conflicting_pair(8);
        let mut poison = PoisonTransaction::from_conflict(&a, &b, 9).expect("conflict");
        poison.signature_b = other.signature;
        assert_eq!(
            verify_evidence(&poison, &pubkey),
            Err(PoisonError::BadEvidenceSignature)
        );
    }

    #[test]
    fn leader_mismatch_rejected() {
        let (a, b, pubkey) = conflicting_pair(7);
        let mut poison = PoisonTransaction::from_conflict(&a, &b, 9).expect("conflict");
        poison.accused_leader = 8;
        assert_eq!(verify_evidence(&poison, &pubkey), Err(PoisonError::WrongLeader));
    }

    #[test]
    fn effect_grants_5_percent_and_burns_rest() {
        let effect = poison_effect(7, Amount::from_sats(10_000), &NgParams::default());
        assert_eq!(effect.poisoner_reward, Amount::from_sats(500));
        assert_eq!(effect.burned, Amount::from_sats(9_500));
        assert_eq!(
            effect.poisoner_reward + effect.burned,
            effect.revoked_amount
        );
    }

    #[test]
    fn txid_is_deterministic_and_distinguishes_poisoners() {
        let (first, second, _) = conflicting_pair(7);
        let a = PoisonTransaction::from_conflict(&first, &second, 9).expect("conflict");
        let b = PoisonTransaction { poisoner: 10, ..a.clone() };
        assert_eq!(a.txid(), a.clone().txid());
        assert_ne!(a.txid(), b.txid());
    }

    #[test]
    fn size_accounting_is_positive() {
        let (a, b, _) = conflicting_pair(7);
        let poison = PoisonTransaction::from_conflict(&a, &b, 9).expect("conflict");
        assert!(poison_size_bytes(&poison) > 200);
    }
}
