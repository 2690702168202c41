//! The experiment runner: drives full protocol nodes over the simulated network and
//! produces an [`ExperimentLog`] from which every metric of the paper is computed.
//!
//! The runner reproduces the paper's methodology (§7):
//!
//! * proof of work is replaced by a scheduler that triggers block generation with
//!   exponentially distributed intervals, attributing each block to a miner with
//!   probability proportional to its mining power;
//! * mempools are pre-filled — blocks carry synthetic payloads of the configured size
//!   and the corresponding number of identical transactions;
//! * blocks propagate over a random ≥5-degree overlay with per-link latency drawn from
//!   a measured-like histogram and ~100 kbit/s per-pair bandwidth.

use crate::config::{ExperimentConfig, Protocol};
use crate::event::{Event, EventQueue};
use crate::network::{LatencyModel, Network};
use crate::power::MiningPower;
use ng_baseline::bitcoin_node::{BitcoinNode, BtcConfig};
use ng_baseline::btc_block::BtcBlock;
use ng_chain::amount::Amount;
use ng_chain::forkchoice::ForkChoice;
use ng_chain::payload::Payload;
use ng_core::block::NgBlock;
use ng_core::node::NgNode;
use ng_crypto::rng::SimRng;
use ng_crypto::sha256::Hash256;
use ng_metrics::log::{BlockRecord, ExperimentLog};
use std::collections::{HashMap, HashSet};

/// A protocol node participating in the simulation.
enum SimNode {
    Bitcoin(Box<BitcoinNode>),
    Ng(Box<NgNode>),
}

/// A block held in the global block table (delivery events carry only ids).
#[derive(Clone)]
enum SimBlock {
    Btc(BtcBlock),
    Ng(NgBlock),
}

impl SimBlock {
    fn id(&self) -> Hash256 {
        match self {
            SimBlock::Btc(b) => b.id(),
            SimBlock::Ng(b) => b.id(),
        }
    }

    fn size_bytes(&self) -> u64 {
        match self {
            SimBlock::Btc(b) => b.size_bytes(),
            SimBlock::Ng(b) => b.size_bytes(),
        }
    }
}

/// The simulation state.
pub struct Simulation {
    config: ExperimentConfig,
    network: Network,
    power: MiningPower,
    queue: EventQueue,
    rng: SimRng,
    nodes: Vec<SimNode>,
    blocks: HashMap<Hash256, SimBlock>,
    seen: Vec<HashSet<Hash256>>,
    log: ExperimentLog,
    pow_blocks: u64,
    microblocks: u64,
    payload_counter: u64,
    mining_stopped: bool,
    /// Nodes with a live microblock-timer chain (prevents one node accumulating
    /// multiple concurrent timers after mining several key blocks).
    micro_timer_active: HashSet<u64>,
}

impl Simulation {
    /// Builds a simulation from a configuration.
    pub fn new(config: ExperimentConfig) -> Self {
        config.validate().expect("invalid experiment configuration");
        let mut rng = SimRng::seed_from_u64(config.seed);
        let latency = LatencyModel::bitcoin_2015().scaled(config.latency_scale);
        let network = Network::random(
            config.nodes,
            config.min_degree,
            &latency,
            config.bandwidth_bps,
            &mut rng,
        );
        let power = MiningPower::exponential(config.nodes, config.mining_power_exponent);

        let nodes: Vec<SimNode> = (0..config.nodes as u64)
            .map(|id| match config.protocol {
                Protocol::Bitcoin => SimNode::Bitcoin(Box::new(BitcoinNode::new(
                    id,
                    BtcConfig {
                        check_pow: false,
                        max_block_bytes: u64::MAX,
                        fork_choice: ForkChoice::bitcoin_random_tiebreak(config.seed),
                        ..Default::default()
                    },
                    config.seed ^ id,
                ))),
                Protocol::Ghost => SimNode::Bitcoin(Box::new(BitcoinNode::new(
                    id,
                    BtcConfig {
                        check_pow: false,
                        max_block_bytes: u64::MAX,
                        fork_choice: ForkChoice::ghost(),
                        ..Default::default()
                    },
                    config.seed ^ id,
                ))),
                Protocol::BitcoinNg => {
                    let mut params = config.ng;
                    params.verify_microblock_signatures = false;
                    SimNode::Ng(Box::new(NgNode::new(id, params, config.seed)))
                }
            })
            .collect();

        let genesis = match &nodes[0] {
            SimNode::Bitcoin(n) => n.tip(),
            SimNode::Ng(n) => n.tip(),
        };
        let log = ExperimentLog::new(genesis, config.nodes, power.shares().to_vec());
        let seen = vec![HashSet::new(); config.nodes];

        Simulation {
            network,
            power,
            queue: EventQueue::new(),
            rng,
            nodes,
            blocks: HashMap::new(),
            seen,
            log,
            pow_blocks: 0,
            microblocks: 0,
            payload_counter: 0,
            mining_stopped: false,
            micro_timer_active: HashSet::new(),
            config,
        }
    }

    /// Runs the experiment to completion and returns the log.
    ///
    /// The run ends when the event queue drains (the block target was reached and all
    /// deliveries completed) or when the virtual-time safety cap
    /// ([`ExperimentConfig::max_sim_time_ms`]) is hit, whichever comes first.
    pub fn run(mut self) -> ExperimentLog {
        self.schedule_next_mining();
        while let Some((now, event)) = self.queue.pop() {
            if self.config.max_sim_time_ms > 0 && now > self.config.max_sim_time_ms {
                break;
            }
            match event {
                Event::MiningSuccess { miner } => self.handle_mining(miner, now),
                Event::MicroblockTimer { leader } => self.handle_micro_timer(leader, now),
                Event::BlockDelivery { to, from, block } => {
                    self.handle_delivery(to, from, block, now)
                }
            }
            self.log.duration_ms = now;
        }
        self.log
    }

    fn target_reached(&self) -> bool {
        match self.config.protocol {
            Protocol::BitcoinNg if self.config.target_microblocks > 0 => {
                self.microblocks >= self.config.target_microblocks
            }
            _ => self.pow_blocks >= self.config.target_pow_blocks,
        }
    }

    fn schedule_next_mining(&mut self) {
        if self.mining_stopped {
            return;
        }
        let rate = 1.0 / self.config.pow_interval_ms as f64;
        let delay = self.rng.exponential(rate).ceil() as u64;
        let miner = self.power.sample_miner(&mut self.rng);
        self.queue.schedule_in(delay.max(1), Event::MiningSuccess { miner });
    }

    fn next_payload(&mut self, bytes: u64) -> Payload {
        self.payload_counter += 1;
        let tx_count = self.config.txs_for_bytes(bytes);
        Payload::Synthetic {
            bytes,
            tx_count,
            total_fees: Amount::from_sats(self.config.tx_fee_sats * tx_count),
            tag: self.payload_counter,
        }
    }

    fn handle_mining(&mut self, miner: u64, now: u64) {
        if self.target_reached() {
            self.mining_stopped = true;
            return;
        }
        let block = match &mut self.nodes[miner as usize] {
            SimNode::Bitcoin(node) => {
                let payload_bytes = self.config.block_size_bytes;
                let payload = {
                    self.payload_counter += 1;
                    let tx_count = self.config.txs_for_bytes(payload_bytes);
                    Payload::Synthetic {
                        bytes: payload_bytes,
                        tx_count,
                        total_fees: Amount::from_sats(self.config.tx_fee_sats * tx_count),
                        tag: self.payload_counter,
                    }
                };
                let btc = node.mine_and_adopt(now, payload);
                SimBlock::Btc(btc)
            }
            SimNode::Ng(node) => {
                let kb = node.mine_and_adopt_key_block(now);
                SimBlock::Ng(NgBlock::Key(kb))
            }
        };
        self.pow_blocks += 1;
        self.register_created(miner, &block, now, true);
        self.broadcast(miner, &block, now);
        if let SimNode::Ng(_) = &self.nodes[miner as usize] {
            // The new leader starts producing microblocks (unless it already has a
            // live timer chain from a previous key block of its own).
            if self.micro_timer_active.insert(miner) {
                self.queue.schedule_in(
                    self.config.ng.microblock_interval_ms.max(1),
                    Event::MicroblockTimer { leader: miner },
                );
            }
        }
        self.schedule_next_mining();
    }

    fn handle_micro_timer(&mut self, leader: u64, now: u64) {
        if self.mining_stopped && self.target_reached() {
            self.micro_timer_active.remove(&leader);
            return;
        }
        // Size the payload so the complete microblock (header + signature + payload)
        // stays within the protocol's microblock size limit.
        let micro_bytes = self.config.ng.max_microblock_payload_bytes().max(1);
        let payload = self.next_payload(micro_bytes);
        let produced = match &mut self.nodes[leader as usize] {
            SimNode::Ng(node) => {
                if !node.is_leader() {
                    // Leadership moved on: stop this leader's timer.
                    self.micro_timer_active.remove(&leader);
                    return;
                }
                node.produce_microblock(now, payload)
            }
            SimNode::Bitcoin(_) => None,
        };
        if let Some(micro) = produced {
            self.microblocks += 1;
            let block = SimBlock::Ng(NgBlock::Micro(micro));
            self.register_created(leader, &block, now, false);
            self.broadcast(leader, &block, now);
        }
        if self.target_reached() {
            self.mining_stopped = true;
        }
        // Keep the timer running while this node remains leader.
        if !self.mining_stopped || !self.target_reached() {
            self.queue.schedule_in(
                self.config.ng.microblock_interval_ms.max(1),
                Event::MicroblockTimer { leader },
            );
        } else {
            self.micro_timer_active.remove(&leader);
        }
    }

    fn handle_delivery(&mut self, to: u64, from: u64, block_id: Hash256, now: u64) {
        if self.seen[to as usize].contains(&block_id) {
            return;
        }
        let Some(block) = self.blocks.get(&block_id).cloned() else {
            return;
        };
        self.seen[to as usize].insert(block_id);
        let accepted = match (&mut self.nodes[to as usize], &block) {
            (SimNode::Bitcoin(node), SimBlock::Btc(b)) => node.on_block(b.clone(), now).is_ok(),
            (SimNode::Ng(node), SimBlock::Ng(b)) => node.on_block(b.clone(), now).is_ok(),
            _ => false,
        };
        if !accepted {
            return;
        }
        self.log.record_receipt(to, block_id, now);
        // If this node just became the leader by learning of its own... no: leadership
        // only changes through key blocks it mined itself, which never arrive here.
        self.broadcast_except(to, from, &block, now);
    }

    fn register_created(&mut self, creator: u64, block: &SimBlock, now: u64, is_pow: bool) {
        let id = block.id();
        self.blocks.insert(id, block.clone());
        self.seen[creator as usize].insert(id);
        let (parent, miner, tx_count) = match block {
            SimBlock::Btc(b) => (b.prev, b.miner, b.tx_count()),
            SimBlock::Ng(b) => (
                b.prev(),
                ng_chain::chainstore::BlockLike::miner(b),
                b.tx_count(),
            ),
        };
        self.log.record_block(BlockRecord {
            id,
            parent,
            miner,
            created_ms: now,
            work: if is_pow { 1.0 } else { 0.0 },
            tx_count,
            size_bytes: block.size_bytes(),
            is_pow,
        });
        self.log.record_receipt(creator, id, now);
    }

    fn broadcast(&mut self, origin: u64, block: &SimBlock, now: u64) {
        self.broadcast_except(origin, origin, block, now);
    }

    fn broadcast_except(&mut self, sender: u64, exclude: u64, block: &SimBlock, now: u64) {
        let id = block.id();
        let size = block.size_bytes();
        let links: Vec<_> = self.network.peers_of(sender).to_vec();
        for link in links {
            if link.to == exclude || self.seen[link.to as usize].contains(&id) {
                continue;
            }
            let delay = self.network.transfer_time_ms(link.latency_ms, size).max(1);
            self.queue.schedule_at(
                now + delay,
                Event::BlockDelivery {
                    to: link.to,
                    from: sender,
                    block: id,
                },
            );
        }
    }
}

/// Convenience: builds and runs an experiment in one call.
pub fn run_experiment(config: ExperimentConfig) -> ExperimentLog {
    Simulation::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_metrics::report::compute_report;

    #[test]
    fn bitcoin_small_run_produces_blocks_and_receipts() {
        let mut config = ExperimentConfig::small_test(Protocol::Bitcoin);
        config.target_pow_blocks = 10;
        let log = run_experiment(config);
        assert!(log.blocks.len() >= 10);
        assert!(log.blocks.iter().all(|b| b.is_pow));
        // Every block should eventually reach (almost) every node.
        let last_block = log.blocks.first().unwrap().id;
        let receivers = log
            .receipts
            .iter()
            .filter(|r| r.block == last_block)
            .count();
        assert!(receivers >= 25, "only {receivers} nodes got the first block");
    }

    #[test]
    fn bitcoin_ng_produces_key_and_micro_blocks() {
        let mut config = ExperimentConfig::small_test(Protocol::BitcoinNg);
        config.target_microblocks = 20;
        let log = run_experiment(config);
        let key_blocks = log.blocks.iter().filter(|b| b.is_pow).count();
        let micro_blocks = log.blocks.iter().filter(|b| !b.is_pow).count();
        assert!(key_blocks >= 1, "need at least one leader");
        assert!(micro_blocks >= 20);
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let config = ExperimentConfig::small_test(Protocol::Bitcoin);
        let a = run_experiment(config.clone());
        let b = run_experiment(config);
        assert_eq!(a.blocks.len(), b.blocks.len());
        assert_eq!(a.duration_ms, b.duration_ms);
        let ids_a: Vec<_> = a.blocks.iter().map(|x| x.id).collect();
        let ids_b: Vec<_> = b.blocks.iter().map(|x| x.id).collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut c1 = ExperimentConfig::small_test(Protocol::Bitcoin);
        c1.target_pow_blocks = 10;
        let mut c2 = c1.clone();
        c2.seed = 99;
        let a = run_experiment(c1);
        let b = run_experiment(c2);
        let ids_a: Vec<_> = a.blocks.iter().map(|x| x.id).collect();
        let ids_b: Vec<_> = b.blocks.iter().map(|x| x.id).collect();
        assert_ne!(ids_a, ids_b);
    }

    #[test]
    fn metrics_computable_from_simulation() {
        let mut config = ExperimentConfig::small_test(Protocol::Bitcoin);
        config.target_pow_blocks = 15;
        let log = run_experiment(config);
        let report = compute_report(&log);
        assert!(report.mining_power_utilization > 0.0);
        assert!(report.mining_power_utilization <= 1.0);
        assert!(report.fairness > 0.0);
        assert!(report.transactions_per_sec > 0.0);
        assert!(report.blocks_generated >= 15);
    }

    #[test]
    fn ng_keeps_high_utilization_at_high_microblock_rate() {
        let mut config = ExperimentConfig::small_test(Protocol::BitcoinNg);
        config.ng.microblock_interval_ms = 500;
        config.target_microblocks = 60;
        let log = run_experiment(config);
        let report = compute_report(&log);
        // Microblock forks do not waste mining power (§8): utilization derives from key
        // blocks only, which are rare and propagate fast.
        assert!(
            report.mining_power_utilization > 0.8,
            "mpu = {}",
            report.mining_power_utilization
        );
    }

    #[test]
    fn ghost_variant_runs() {
        let mut config = ExperimentConfig::small_test(Protocol::Ghost);
        config.target_pow_blocks = 10;
        let log = run_experiment(config);
        assert!(log.blocks.len() >= 10);
    }
}
