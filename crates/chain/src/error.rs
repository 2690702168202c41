//! Validation error types for transactions and blocks.

use crate::amount::Amount;
use crate::transaction::OutPoint;
use ng_crypto::sha256::Hash256;
use std::fmt;

/// Errors produced while validating a transaction against the UTXO set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxError {
    /// A coinbase transaction appeared where a regular transaction was expected.
    UnexpectedCoinbase,
    /// The transaction creates no outputs.
    NoOutputs,
    /// The same outpoint is consumed twice within one transaction.
    DuplicateInput(OutPoint),
    /// A referenced output does not exist or was already spent.
    MissingInput(OutPoint),
    /// A coinbase output was spent before it matured.
    ImmatureCoinbase {
        /// The immature output.
        outpoint: OutPoint,
        /// Height at which it was created.
        created_at: u64,
        /// Height at which the spend was attempted.
        spend_height: u64,
    },
    /// An input signature is missing or invalid, or the key does not match the address.
    BadSignature(OutPoint),
    /// Input or output values overflowed.
    ValueOverflow,
    /// Outputs exceed inputs.
    InsufficientInputValue {
        /// Total input value.
        inputs: Amount,
        /// Total output value.
        outputs: Amount,
    },
    /// The block carries a synthetic payload summary instead of transactions;
    /// nodes that validate transactions accept real ones only.
    SyntheticPayload,
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::UnexpectedCoinbase => write!(f, "unexpected coinbase transaction"),
            TxError::NoOutputs => write!(f, "transaction has no outputs"),
            TxError::DuplicateInput(op) => write!(f, "duplicate input {op:?}"),
            TxError::MissingInput(op) => write!(f, "missing or spent input {op:?}"),
            TxError::ImmatureCoinbase {
                outpoint,
                created_at,
                spend_height,
            } => write!(
                f,
                "coinbase output {outpoint:?} created at height {created_at} spent too early at {spend_height}"
            ),
            TxError::BadSignature(op) => write!(f, "bad signature for input {op:?}"),
            TxError::ValueOverflow => write!(f, "value overflow"),
            TxError::InsufficientInputValue { inputs, outputs } => write!(
                f,
                "outputs ({outputs:?}) exceed inputs ({inputs:?})"
            ),
            TxError::SyntheticPayload => write!(f, "synthetic payload on a validating node"),
        }
    }
}

impl std::error::Error for TxError {}

/// Errors produced while validating a block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockError {
    /// The block's proof of work does not meet its stated target.
    PowNotMet(Hash256),
    /// The header's merkle root does not match the block's transactions.
    MerkleMismatch,
    /// The coinbase pays out more than the subsidy plus fees.
    ExcessiveCoinbase {
        /// What the coinbase claims.
        claimed: Amount,
        /// The maximum it may claim.
        allowed: Amount,
    },
    /// The block exceeds the maximum serialized size.
    OversizedBlock {
        /// Actual size in bytes.
        size: usize,
        /// Allowed maximum.
        max: usize,
    },
    /// The block's parent is not known to the validating node.
    UnknownParent(Hash256),
    /// The block's timestamp is too far in the future or before its parent's minimum.
    BadTimestamp,
    /// A microblock's signature does not verify under the current leader's key
    /// (Bitcoin-NG, §4.2).
    BadLeaderSignature,
    /// A microblock exceeds the leader's permitted generation rate (§4.2).
    MicroblockRateExceeded,
    /// The block (or an ancestor) was previously invalidated — its transactions
    /// failed full validation when it connected to the ledger — and is refused
    /// without revalidation.
    KnownInvalid(Hash256),
    /// The block forks the chain below the newest finality checkpoint. Finalized
    /// history can never be rewound, so a branch rooted there is refused no matter
    /// how much work it carries (the long-range-rewrite defence).
    FinalityViolation {
        /// Height at which the offending branch attaches.
        fork_height: u64,
        /// Height of the newest finalized block.
        finalized_height: u64,
    },
    /// Generic structural problem.
    Malformed(&'static str),
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::PowNotMet(h) => write!(f, "proof of work not met by {h}"),
            BlockError::MerkleMismatch => write!(f, "merkle root mismatch"),
            BlockError::ExcessiveCoinbase { claimed, allowed } => {
                write!(f, "coinbase claims {claimed:?}, allowed {allowed:?}")
            }
            BlockError::OversizedBlock { size, max } => {
                write!(f, "block size {size} exceeds maximum {max}")
            }
            BlockError::UnknownParent(h) => write!(f, "unknown parent {h}"),
            BlockError::BadTimestamp => write!(f, "bad timestamp"),
            BlockError::BadLeaderSignature => write!(f, "bad leader signature"),
            BlockError::MicroblockRateExceeded => write!(f, "microblock rate exceeded"),
            BlockError::KnownInvalid(h) => write!(f, "block {h} is known invalid"),
            BlockError::FinalityViolation {
                fork_height,
                finalized_height,
            } => write!(
                f,
                "block forks at height {fork_height}, below the finality checkpoint at {finalized_height}"
            ),
            BlockError::Malformed(reason) => write!(f, "malformed block: {reason}"),
        }
    }
}

impl std::error::Error for BlockError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TxError::InsufficientInputValue {
            inputs: Amount::from_sats(5),
            outputs: Amount::from_sats(10),
        };
        assert!(e.to_string().contains("exceed"));
        let b = BlockError::OversizedBlock { size: 10, max: 5 };
        assert!(b.to_string().contains("exceeds"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(TxError::NoOutputs, TxError::NoOutputs);
        assert_ne!(BlockError::MerkleMismatch, BlockError::BadTimestamp);
    }
}
