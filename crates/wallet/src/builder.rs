//! Payment construction: coin selection, fee estimation, change and signing.

use crate::coins::{CoinStore, OwnedCoin};
use crate::keystore::Keystore;
use ng_chain::amount::Amount;
use ng_chain::transaction::{Transaction, TransactionBuilder};
use ng_crypto::keys::Address;
use ng_crypto::signer::SchnorrSigner;
use std::fmt;

/// How the wallet picks coins to fund a payment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Spend the largest coins first (fewest inputs, smallest transactions).
    #[default]
    LargestFirst,
    /// Spend the smallest coins first (consolidates dust, larger transactions).
    SmallestFirst,
    /// Spend the oldest coins first (by creation height, then outpoint).
    OldestFirst,
}

/// How the fee for a payment is determined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeePolicy {
    /// A fixed absolute fee.
    Fixed(Amount),
    /// A fee proportional to the serialized transaction size, in sats per byte. The
    /// builder iterates until the fee is consistent with the final size.
    PerByte(u64),
}

/// Why a payment could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The spendable balance cannot cover amount plus fee.
    InsufficientFunds {
        /// What the payment (amount + fee) requires.
        required: Amount,
        /// What the wallet can currently spend.
        available: Amount,
    },
    /// The payment amount was zero.
    ZeroAmount,
    /// A selected coin's address has no key in the keystore (corrupted wallet state).
    MissingKey(Address),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::InsufficientFunds {
                required,
                available,
            } => write!(
                f,
                "insufficient funds: need {} sats, have {} sats spendable",
                required.sats(),
                available.sats()
            ),
            BuildError::ZeroAmount => write!(f, "payment amount must be positive"),
            BuildError::MissingKey(_) => write!(f, "wallet has no key for a selected coin"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A built (signed) payment plus its accounting, before broadcast.
#[derive(Clone, Debug)]
pub struct BuiltPayment {
    /// The signed transaction.
    pub tx: Transaction,
    /// Fee the transaction pays.
    pub fee: Amount,
    /// Change returned to the wallet (zero if none).
    pub change: Amount,
    /// The coins consumed.
    pub spent: Vec<OwnedCoin>,
}

/// Builds signed payments against a [`CoinStore`] and [`Keystore`].
#[derive(Clone, Copy, Debug)]
pub struct PaymentBuilder {
    /// Coin-selection strategy.
    pub strategy: SelectionStrategy,
    /// Fee policy.
    pub fee: FeePolicy,
    /// Minimum change worth creating; smaller change is folded into the fee (dust
    /// threshold).
    pub dust_threshold: Amount,
}

impl Default for PaymentBuilder {
    fn default() -> Self {
        PaymentBuilder {
            strategy: SelectionStrategy::LargestFirst,
            fee: FeePolicy::PerByte(1),
            dust_threshold: Amount::from_sats(100),
        }
    }
}

impl PaymentBuilder {
    /// Orders the spendable coins according to the configured strategy.
    fn ordered_coins(&self, coins: &mut [OwnedCoin]) {
        match self.strategy {
            SelectionStrategy::LargestFirst => {
                coins.sort_by(|a, b| b.amount.cmp(&a.amount).then(a.outpoint.cmp(&b.outpoint)))
            }
            SelectionStrategy::SmallestFirst => {
                coins.sort_by(|a, b| a.amount.cmp(&b.amount).then(a.outpoint.cmp(&b.outpoint)))
            }
            SelectionStrategy::OldestFirst => {
                coins.sort_by(|a, b| a.height.cmp(&b.height).then(a.outpoint.cmp(&b.outpoint)))
            }
        }
    }

    fn fee_for(&self, tx: &Transaction) -> Amount {
        match self.fee {
            FeePolicy::Fixed(fee) => fee,
            FeePolicy::PerByte(rate) => Amount::from_sats(rate * tx.serialized_size() as u64),
        }
    }

    /// Builds and signs a payment of `amount` to `to`, spending coins from `coins`
    /// (owned and keyed by `keystore`), sending change to `change_address`, and
    /// reserving the spent coins so subsequent payments do not double-select them.
    pub fn pay(
        &self,
        coins: &mut CoinStore,
        keystore: &Keystore,
        height: u64,
        to: Address,
        amount: Amount,
        change_address: Address,
    ) -> Result<BuiltPayment, BuildError> {
        if amount.is_zero() {
            return Err(BuildError::ZeroAmount);
        }
        let mut spendable = coins.spendable(height);
        self.ordered_coins(&mut spendable);
        let available: Amount = spendable.iter().map(|c| c.amount).sum();

        // Iterate fee estimation: the fee depends on the size, which depends on the
        // number of inputs, which depends on the fee. Two passes are enough because the
        // input count is monotone in the required total.
        let mut fee_guess = match self.fee {
            FeePolicy::Fixed(fee) => fee,
            FeePolicy::PerByte(rate) => Amount::from_sats(rate * 200),
        };
        for _ in 0..6 {
            let (selected, gathered) = self.select(&spendable, amount + fee_guess);
            if gathered < amount + fee_guess {
                return Err(BuildError::InsufficientFunds {
                    required: amount + fee_guess,
                    available,
                });
            }
            let (tx, change) =
                self.assemble(&selected, gathered, amount, fee_guess, to, change_address);
            // Fee estimation is based on the *signed* size — signatures and public keys
            // dominate the input size.
            let mut signed = tx;
            self.sign(&mut signed, &selected, keystore)?;
            let fee_needed = self.fee_for(&signed);
            if fee_needed <= fee_guess {
                // The guess covers the real fee: reserve and return.
                for coin in &selected {
                    coins.reserve(&coin.outpoint);
                }
                return Ok(BuiltPayment {
                    fee: fee_guess,
                    change,
                    spent: selected,
                    tx: signed,
                });
            }
            fee_guess = fee_needed;
        }
        Err(BuildError::InsufficientFunds {
            required: amount + fee_guess,
            available,
        })
    }

    fn select(&self, ordered: &[OwnedCoin], target: Amount) -> (Vec<OwnedCoin>, Amount) {
        let mut selected = Vec::new();
        let mut gathered = Amount::ZERO;
        for coin in ordered {
            if gathered >= target {
                break;
            }
            selected.push(*coin);
            gathered += coin.amount;
        }
        (selected, gathered)
    }

    fn assemble(
        &self,
        selected: &[OwnedCoin],
        gathered: Amount,
        amount: Amount,
        fee: Amount,
        to: Address,
        change_address: Address,
    ) -> (Transaction, Amount) {
        let mut builder = TransactionBuilder::new();
        for coin in selected {
            builder = builder.input(coin.outpoint);
        }
        builder = builder.output(amount, to);
        let mut change = gathered - amount - fee;
        if change <= self.dust_threshold {
            // Dust change is folded into the fee.
            change = Amount::ZERO;
        } else {
            builder = builder.output(change, change_address);
        }
        (builder.build(), change)
    }

    fn sign(
        &self,
        tx: &mut Transaction,
        selected: &[OwnedCoin],
        keystore: &Keystore,
    ) -> Result<(), BuildError> {
        // All selected coins belong to wallet addresses; sign input-by-input with the
        // key controlling each spent coin.
        let sighash = tx.sighash();
        for (index, coin) in selected.iter().enumerate() {
            let keys = keystore
                .key_for(&coin.address)
                .ok_or(BuildError::MissingKey(coin.address))?;
            let signer = SchnorrSigner::new(*keys);
            let signature = signer.sign(&sighash);
            tx.inputs[index].pubkey = Some(keys.public);
            tx.inputs[index].signature = Some(signature);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_chain::transaction::OutPoint;
    use ng_chain::utxo::{UtxoEntry, UtxoSet};
    use ng_chain::transaction::TxOutput;
    use ng_crypto::sha256::sha256;

    /// A wallet with `values` sats split across one coin per value.
    fn wallet_with(values: &[u64]) -> (Keystore, CoinStore) {
        let mut ks = Keystore::from_seed(b"builder tests");
        let addr = ks.new_address(Some("main")).address;
        let mut coins = CoinStore::with_maturity(0);
        for (i, &v) in values.iter().enumerate() {
            coins.add(OwnedCoin {
                outpoint: OutPoint::new(sha256(&[i as u8]), 0),
                amount: Amount::from_sats(v),
                address: addr,
                height: i as u64,
                coinbase: false,
            });
        }
        (ks, coins)
    }

    fn recipient() -> Address {
        Keystore::from_seed(b"someone else").key_at(0).address()
    }

    #[test]
    fn pays_exact_amount_with_change_and_fixed_fee() {
        let (ks, mut coins) = wallet_with(&[50_000, 20_000, 5_000]);
        let change_addr = ks.addresses()[0].address;
        let builder = PaymentBuilder {
            fee: FeePolicy::Fixed(Amount::from_sats(500)),
            ..Default::default()
        };
        let payment = builder
            .pay(&mut coins, &ks, 10, recipient(), Amount::from_sats(30_000), change_addr)
            .expect("payment builds");
        assert_eq!(payment.fee, Amount::from_sats(500));
        assert_eq!(payment.tx.outputs[0].amount, Amount::from_sats(30_000));
        assert_eq!(payment.tx.outputs[0].address, recipient());
        // Largest-first selects the 50k coin; change = 50k − 30k − 500.
        assert_eq!(payment.change, Amount::from_sats(19_500));
        assert_eq!(payment.spent.len(), 1);
        // Inputs are signed and verify against the spent outputs.
        for (i, coin) in payment.spent.iter().enumerate() {
            let spent_output = TxOutput::new(coin.amount, coin.address);
            assert!(payment.tx.verify_input(i, &spent_output));
        }
    }

    #[test]
    fn per_byte_fee_scales_with_inputs() {
        let (ks, mut coins) = wallet_with(&[10_000, 10_000, 10_000, 10_000]);
        let change_addr = ks.addresses()[0].address;
        let builder = PaymentBuilder {
            fee: FeePolicy::PerByte(2),
            strategy: SelectionStrategy::SmallestFirst,
            ..Default::default()
        };
        let payment = builder
            .pay(&mut coins, &ks, 1, recipient(), Amount::from_sats(25_000), change_addr)
            .expect("payment builds");
        // Needs at least three 10k inputs; fee covers the serialized size at 2 sats/B.
        assert!(payment.spent.len() >= 3);
        assert!(payment.fee >= Amount::from_sats(2 * payment.tx.serialized_size() as u64));
        // Conservation: inputs = outputs + fee.
        let inputs: Amount = payment.spent.iter().map(|c| c.amount).sum();
        let outputs: Amount = payment.tx.outputs.iter().map(|o| o.amount).sum();
        assert_eq!(inputs, outputs + payment.fee);
    }

    #[test]
    fn insufficient_funds_reported_with_amounts() {
        let (ks, mut coins) = wallet_with(&[1_000]);
        let change = ks.addresses()[0].address;
        let builder = PaymentBuilder::default();
        let err = builder
            .pay(&mut coins, &ks, 1, recipient(), Amount::from_sats(5_000), change)
            .unwrap_err();
        match err {
            BuildError::InsufficientFunds { available, .. } => {
                assert_eq!(available, Amount::from_sats(1_000));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn zero_amount_rejected() {
        let (ks, mut coins) = wallet_with(&[1_000]);
        let change = ks.addresses()[0].address;
        let err = PaymentBuilder::default()
            .pay(&mut coins, &ks, 1, recipient(), Amount::ZERO, change)
            .unwrap_err();
        assert_eq!(err, BuildError::ZeroAmount);
    }

    #[test]
    fn dust_change_folded_into_fee() {
        let (ks, mut coins) = wallet_with(&[10_050]);
        let change = ks.addresses()[0].address;
        let builder = PaymentBuilder {
            fee: FeePolicy::Fixed(Amount::from_sats(30)),
            dust_threshold: Amount::from_sats(100),
            ..Default::default()
        };
        let payment = builder
            .pay(&mut coins, &ks, 1, recipient(), Amount::from_sats(10_000), change)
            .expect("payment builds");
        // 10_050 − 10_000 − 30 = 20 sats of change: below dust, folded away.
        assert_eq!(payment.change, Amount::ZERO);
        assert_eq!(payment.tx.outputs.len(), 1);
    }

    #[test]
    fn consecutive_payments_never_reuse_coins() {
        let (ks, mut coins) = wallet_with(&[40_000, 40_000]);
        let change = ks.addresses()[0].address;
        let builder = PaymentBuilder {
            fee: FeePolicy::Fixed(Amount::from_sats(100)),
            ..Default::default()
        };
        let p1 = builder
            .pay(&mut coins, &ks, 1, recipient(), Amount::from_sats(10_000), change)
            .expect("first payment");
        let p2 = builder
            .pay(&mut coins, &ks, 1, recipient(), Amount::from_sats(10_000), change)
            .expect("second payment");
        let spent1: Vec<_> = p1.spent.iter().map(|c| c.outpoint).collect();
        let spent2: Vec<_> = p2.spent.iter().map(|c| c.outpoint).collect();
        for op in &spent1 {
            assert!(!spent2.contains(op), "coin {op:?} selected twice");
        }
        // A third payment fails: both coins are reserved.
        assert!(builder
            .pay(&mut coins, &ks, 1, recipient(), Amount::from_sats(10_000), change)
            .is_err());
    }

    #[test]
    fn strategies_pick_different_coins() {
        let (ks, mut coins_a) = wallet_with(&[1_000, 50_000, 3_000]);
        let mut coins_b = coins_a.clone();
        let change = ks.addresses()[0].address;
        let largest = PaymentBuilder {
            strategy: SelectionStrategy::LargestFirst,
            fee: FeePolicy::Fixed(Amount::from_sats(10)),
            ..Default::default()
        };
        let smallest = PaymentBuilder {
            strategy: SelectionStrategy::SmallestFirst,
            fee: FeePolicy::Fixed(Amount::from_sats(10)),
            ..Default::default()
        };
        let a = largest
            .pay(&mut coins_a, &ks, 1, recipient(), Amount::from_sats(500), change)
            .unwrap();
        let b = smallest
            .pay(&mut coins_b, &ks, 1, recipient(), Amount::from_sats(500), change)
            .unwrap();
        assert_eq!(a.spent[0].amount, Amount::from_sats(50_000));
        assert_eq!(b.spent[0].amount, Amount::from_sats(1_000));
    }

    #[test]
    fn built_payments_validate_against_a_utxo_set() {
        // End-to-end: the coins exist in a real UtxoSet; the built transaction passes
        // full validation (signatures, conservation) against it.
        let (ks, mut coins) = wallet_with(&[80_000]);
        let change = ks.addresses()[0].address;
        let mut utxo = UtxoSet::with_maturity(0);
        for coin in coins.coins() {
            utxo.insert_unchecked(
                coin.outpoint,
                UtxoEntry {
                    output: TxOutput::new(coin.amount, coin.address),
                    height: coin.height,
                    coinbase: coin.coinbase,
                },
            );
        }
        let payment = PaymentBuilder::default()
            .pay(&mut coins, &ks, 5, recipient(), Amount::from_sats(42_000), change)
            .expect("payment builds");
        let fee = utxo.validate(&payment.tx, 5).expect("valid against the UTXO set");
        assert_eq!(fee, payment.fee);
    }
}
