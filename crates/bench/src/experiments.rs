//! Experiment drivers for every data figure in the paper.
//!
//! Each function returns plain data rows; the `src/bin/*` binaries print them as tables
//! and optionally dump JSON. Scale knobs (node count, block count) default to
//! laptop-friendly values; pass `--full` to a binary to run at the paper's 1000-node
//! scale.

use ng_core::params::NgParams;
use ng_crypto::rng::SimRng;
use ng_metrics::report::{compute_report, MetricsReport};
use ng_metrics::stats::{percentile, Quartiles};
use ng_sim::config::{ExperimentConfig, Protocol};
use ng_sim::power::weekly_pool_shares;
use ng_sim::runner::run_experiment;
use serde::{Deserialize, Serialize};

/// Shared scale settings for the network experiments.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Scale {
    /// Number of nodes (paper: 1000).
    pub nodes: usize,
    /// Proof-of-work blocks (or Bitcoin-NG microblocks) per execution (paper: 50–100).
    pub blocks: u64,
    /// Random seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            nodes: 120,
            blocks: 50,
            seed: 1,
        }
    }
}

impl Scale {
    /// The paper's full scale.
    pub fn full() -> Self {
        Scale {
            nodes: 1000,
            blocks: 100,
            seed: 1,
        }
    }
}

/// The operational Bitcoin payload rate the sweeps hold constant: 1 MB per 10 minutes
/// (§8.1), ≈ 1667 bytes of transactions per second.
pub const OPERATIONAL_BYTES_PER_SEC: f64 = 1_000_000.0 / 600.0;

/// One rank of Figure 6: the distribution of a pool rank's weekly share.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Pool rank (1 = largest).
    pub rank: usize,
    /// 25th percentile of the weekly share.
    pub p25: f64,
    /// Median weekly share.
    pub p50: f64,
    /// 75th percentile of the weekly share.
    pub p75: f64,
}

/// Regenerates Figure 6: weekly mining-pool shares by rank under the exponential model
/// (exponent −0.27) with synthetic week-to-week variation.
pub fn fig6_mining_power(weeks: usize, ranks: usize, seed: u64) -> Vec<Fig6Row> {
    let mut rng = SimRng::seed_from_u64(seed);
    let weekly = weekly_pool_shares(weeks, ranks, -0.27, &mut rng);
    (0..ranks)
        .map(|rank| {
            let samples: Vec<f64> = weekly.iter().map(|w| w.shares[rank]).collect();
            Fig6Row {
                rank: rank + 1,
                p25: percentile(&samples, 0.25).unwrap_or(0.0),
                p50: percentile(&samples, 0.50).unwrap_or(0.0),
                p75: percentile(&samples, 0.75).unwrap_or(0.0),
            }
        })
        .collect()
}

/// One point of Figure 7: block size versus propagation-latency percentiles.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Block size in bytes.
    pub block_size: u64,
    /// Propagation latency percentiles in seconds.
    pub propagation: Quartiles,
}

/// Regenerates Figure 7: propagation latency versus block size for the Bitcoin
/// baseline, holding the transaction-per-second load constant.
pub fn fig7_propagation(scale: Scale, block_sizes: &[u64]) -> Vec<Fig7Row> {
    block_sizes
        .iter()
        .map(|&size| {
            let interval_ms = ((size as f64 / OPERATIONAL_BYTES_PER_SEC) * 1000.0) as u64;
            let config = ExperimentConfig {
                protocol: Protocol::Bitcoin,
                nodes: scale.nodes,
                block_size_bytes: size,
                pow_interval_ms: interval_ms.max(1_000),
                target_pow_blocks: scale.blocks,
                seed: scale.seed,
                ..Default::default()
            };
            let log = run_experiment(config);
            let report = compute_report(&log);
            Fig7Row {
                block_size: size,
                propagation: report.propagation_s.unwrap_or(Quartiles {
                    p25: 0.0,
                    p50: 0.0,
                    p75: 0.0,
                }),
            }
        })
        .collect()
}

/// One measurement point of Figure 8 (either sweep): the six metrics for one protocol
/// at one parameter value.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig8Row {
    /// Protocol under test.
    pub protocol: String,
    /// The swept parameter: block frequency in 1/sec (8a) or block size in bytes (8b).
    pub x: f64,
    /// The computed metrics.
    pub metrics: MetricsReport,
}

/// Regenerates Figure 8a (block-frequency sweep). `frequencies` are block (or
/// microblock) generation frequencies in blocks per second; block sizes are chosen so
/// the payload throughput matches the operational Bitcoin rate.
pub fn fig8a_frequency(scale: Scale, frequencies: &[f64]) -> Vec<Fig8Row> {
    let mut rows = Vec::new();
    for &freq in frequencies {
        let interval_ms = (1000.0 / freq) as u64;
        let block_bytes = (OPERATIONAL_BYTES_PER_SEC / freq) as u64;

        // Bitcoin: the block interval and size themselves are swept.
        let bitcoin = ExperimentConfig {
            protocol: Protocol::Bitcoin,
            nodes: scale.nodes,
            pow_interval_ms: interval_ms.max(1),
            block_size_bytes: block_bytes.max(1),
            target_pow_blocks: scale.blocks,
            seed: scale.seed,
            ..Default::default()
        };
        let report = compute_report(&run_experiment(bitcoin));
        rows.push(Fig8Row {
            protocol: "bitcoin".into(),
            x: freq,
            metrics: report,
        });

        // Bitcoin-NG: key blocks stay at one per 100 s; the microblock rate is swept.
        let ng = ExperimentConfig {
            protocol: Protocol::BitcoinNg,
            nodes: scale.nodes,
            pow_interval_ms: 100_000,
            target_pow_blocks: scale.blocks,
            target_microblocks: scale.blocks,
            ng: NgParams {
                key_block_interval_ms: 100_000,
                microblock_interval_ms: interval_ms.max(1),
                max_microblock_bytes: block_bytes.max(1),
                min_microblock_interval_ms: 1,
                verify_microblock_signatures: false,
                ..NgParams::default()
            },
            seed: scale.seed,
            ..Default::default()
        };
        let report = compute_report(&run_experiment(ng));
        rows.push(Fig8Row {
            protocol: "bitcoin-ng".into(),
            x: freq,
            metrics: report,
        });
    }
    rows
}

/// Regenerates Figure 8b (block-size sweep): Bitcoin blocks once per 10 s, Bitcoin-NG
/// microblocks once per 10 s with key blocks once per 100 s, block size swept.
pub fn fig8b_blocksize(scale: Scale, sizes: &[u64]) -> Vec<Fig8Row> {
    let mut rows = Vec::new();
    for &size in sizes {
        let bitcoin = ExperimentConfig {
            protocol: Protocol::Bitcoin,
            nodes: scale.nodes,
            pow_interval_ms: 10_000,
            block_size_bytes: size,
            target_pow_blocks: scale.blocks,
            seed: scale.seed,
            ..Default::default()
        };
        let report = compute_report(&run_experiment(bitcoin));
        rows.push(Fig8Row {
            protocol: "bitcoin".into(),
            x: size as f64,
            metrics: report,
        });

        let ng = ExperimentConfig {
            protocol: Protocol::BitcoinNg,
            nodes: scale.nodes,
            pow_interval_ms: 100_000,
            target_pow_blocks: scale.blocks,
            target_microblocks: scale.blocks,
            ng: NgParams {
                key_block_interval_ms: 100_000,
                microblock_interval_ms: 10_000,
                max_microblock_bytes: size,
                min_microblock_interval_ms: 1,
                verify_microblock_signatures: false,
                ..NgParams::default()
            },
            seed: scale.seed,
            ..Default::default()
        };
        let report = compute_report(&run_experiment(ng));
        rows.push(Fig8Row {
            protocol: "bitcoin-ng".into(),
            x: size as f64,
            metrics: report,
        });
    }
    rows
}

/// Prints a Figure-8 row table to stdout.
pub fn print_fig8_table(title: &str, x_label: &str, rows: &[Fig8Row]) {
    println!("# {title}");
    println!(
        "{:<12} {:>12} {:>14} {:>10} {:>8} {:>14} {:>12} {:>10}",
        "protocol", x_label, "consensus[s]", "fairness", "mpu", "prune p90[s]", "win p90[s]", "tx/s"
    );
    for row in rows {
        let m = &row.metrics;
        println!(
            "{:<12} {:>12.4} {:>14.2} {:>10.3} {:>8.3} {:>14.2} {:>12.2} {:>10.2}",
            row.protocol,
            row.x,
            m.consensus_delay_s,
            m.fairness,
            m.mining_power_utilization,
            m.time_to_prune_s,
            m.time_to_win_s,
            m.transactions_per_sec
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            nodes: 25,
            blocks: 12,
            seed: 3,
        }
    }

    #[test]
    fn fig6_rows_decay_with_rank() {
        let rows = fig6_mining_power(52, 20, 1);
        assert_eq!(rows.len(), 20);
        assert!(rows[0].p50 > rows[10].p50);
        assert!(rows[0].p50 > 0.15 && rows[0].p50 < 0.35);
        for row in &rows {
            assert!(row.p25 <= row.p50 && row.p50 <= row.p75);
        }
    }

    #[test]
    fn fig7_propagation_grows_with_block_size() {
        let rows = fig7_propagation(tiny_scale(), &[20_000, 80_000]);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].propagation.p50 > rows[0].propagation.p50,
            "bigger blocks must propagate slower: {:?}",
            rows
        );
    }

    #[test]
    fn fig8a_produces_rows_for_both_protocols() {
        let rows = fig8a_frequency(tiny_scale(), &[0.1]);
        assert_eq!(rows.len(), 2);
        let bitcoin = rows.iter().find(|r| r.protocol == "bitcoin").unwrap();
        let ng = rows.iter().find(|r| r.protocol == "bitcoin-ng").unwrap();
        assert!(bitcoin.metrics.blocks_generated > 0);
        assert!(ng.metrics.blocks_generated > 0);
        // Bitcoin-NG keeps mining power utilization essentially optimal.
        assert!(ng.metrics.mining_power_utilization > 0.8);
    }

    #[test]
    fn fig8b_bitcoin_degrades_with_size_while_ng_does_not() {
        let rows = fig8b_blocksize(tiny_scale(), &[2_500, 80_000]);
        let btc_small = &rows[0];
        let btc_large = rows.iter().rfind(|r| r.protocol == "bitcoin").unwrap();
        let ng_large = rows.iter().rfind(|r| r.protocol == "bitcoin-ng").unwrap();
        assert!(btc_small.protocol == "bitcoin");
        // At 80 kB every 10 s over 100 kbit/s links Bitcoin forks heavily.
        assert!(
            btc_large.metrics.mining_power_utilization
                < ng_large.metrics.mining_power_utilization,
            "bitcoin {} vs ng {}",
            btc_large.metrics.mining_power_utilization,
            ng_large.metrics.mining_power_utilization
        );
    }
}
