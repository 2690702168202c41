//! What every workload driver takes and returns.
//!
//! A run is a sequence of *rounds*. Each round sets the system up from nothing,
//! pushes the same seeded inputs through it, checks the outcome and reports its
//! figures; `main` reports the median over rounds. Identical inputs per round
//! keep the simulated-clock metrics exact for a seed however many rounds fit.

use crate::stats;
use crate::trace::{TimedStorage, Tracer};
use ng_core::block::NgBlock;
use ng_core::params::NgParams;
use ng_crypto::keys::KeyPair;
use ng_node::engine::Engine;
use ng_storage::{FileStorage, StorageConfig};
use std::path::{Path, PathBuf};

/// Directory (relative to the checkout root the benchmark runs from) that
/// holds datadirs while a round runs and trace files after it.
pub const OUT_DIR: &str = "bench/out";

/// Link-delay streams a simulated workload cycles through, one per round. The
/// relay overlay settles into one of a few broadcast trees early in a round
/// and the simulated latencies sit one hop apart between them; a run reports
/// the median over this many trees instead of betting on one.
pub const TOPOLOGIES: usize = 5;

/// Inputs of one round.
pub struct Ctx {
    /// The workload seed (`--seed`).
    pub seed: u64,
    /// `--smoke`: about a tenth of the transactions.
    pub smoke: bool,
    /// `Some` when this round records spans.
    pub tracer: Tracer,
    /// Round number within the run (names the scratch datadir).
    pub round: usize,
}

impl Ctx {
    /// Scales a full-size transaction count down under `--smoke`.
    pub fn scaled(&self, full: usize) -> usize {
        if self.smoke {
            full / 10
        } else {
            full
        }
    }

    /// The durability half of the correctness gate — reopen every datadir,
    /// kill / truncate / restart — runs once per run, in its first round.
    /// Convergence, the replay oracle and exactly-once run in every round.
    pub fn durability_gate(&self) -> bool {
        self.round == 0
    }

    /// Seed of this round's simulated link delays: a function of the workload
    /// seed and the round's place in the [`TOPOLOGIES`] cycle.
    pub fn link_seed(&self) -> u64 {
        self.seed
            .wrapping_mul(TOPOLOGIES as u64)
            .wrapping_add((self.round % TOPOLOGIES) as u64)
    }

    /// A fresh scratch directory for this round's datadirs, inside the checkout.
    pub fn scratch_dir(&self) -> PathBuf {
        let dir =
            PathBuf::from(OUT_DIR).join(format!("data-{}-{}", std::process::id(), self.round));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch datadir is creatable inside the checkout");
        dir
    }
}

/// Opens `dir` as a fresh fsyncing `FileStorage` and installs it on `engine`,
/// wrapped in the timing decorator when tracing.
pub fn install_storage(engine: &mut Engine, dir: &Path, tracer: &Tracer) {
    let config = StorageConfig {
        finality_depth: engine.config().params.finality_depth,
        fsync: true,
    };
    let (storage, _empty) =
        FileStorage::open(dir, config).expect("a fresh datadir inside the checkout opens");
    match tracer {
        Some(recorder) => {
            engine.set_storage(Box::new(TimedStorage::new(storage, recorder.clone())))
        }
        None => engine.set_storage(Box::new(storage)),
    }
}

/// Bytes currently in a datadir's three append-only files.
pub fn datadir_bytes(dir: &Path) -> u64 {
    [
        FileStorage::blocks_path(dir),
        FileStorage::undo_path(dir),
        FileStorage::wal_path(dir),
    ]
    .iter()
    .filter_map(|path| std::fs::metadata(path).ok())
    .map(|meta| meta.len())
    .sum()
}

/// What a finished run leaves for the layer replay.
pub struct Artefacts {
    /// The parameters the nodes ran with.
    pub params: NgParams,
    /// Node 0's main chain after genesis, oldest first.
    pub blocks: Vec<NgBlock>,
    /// How many leading blocks only prepare the ledger (key block + fan-out).
    pub prefix: usize,
    /// A key owning some spent outputs (`None` for the synthetic stream).
    pub wallet: Option<KeyPair>,
}

/// Figures of one round.
#[derive(Default)]
pub struct Round {
    /// Wall seconds before the timed region.
    pub setup_s: f64,
    /// Transactions confirmed per second over the timed region, up to its last
    /// completion (0 if too few confirmed).
    pub tx_per_s: f64,
    /// Median and 99th percentile confirmation latency, ms.
    pub confirm_ms: (f64, f64),
    /// The latencies are on the simulated clock (exact for a link seed).
    pub simulated_clock: bool,
    /// Per-layer metrics the driver measured itself.
    pub layer: Vec<(&'static str, f64)>,
    /// Submits attempted.
    pub attempted: u64,
    /// Submits refused, or accepted but not confirmed on every node.
    pub failed: u64,
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// Wall seconds of the timed region.
    pub timed_wall_s: f64,
    /// CPU seconds of the timed region.
    pub timed_cpu_s: f64,
    /// Transactions confirmed on every node.
    pub confirmed: u64,
    /// Of those, the ones the timed region (and its CPU time) covers.
    pub timed_txs: u64,
    /// Nodes that processed every transaction (1 for `solo_signed`).
    pub nodes: u64,
    /// Of those, nodes whose datadir the benchmark instruments.
    pub durable_nodes: u64,
    /// Bytes the datadirs grew by during the timed region.
    pub storage_bytes: u64,
    /// Main-chain blocks the timed region added.
    pub blocks: u64,
    /// Messages the simulator delivered during the timed region (mesh only).
    pub deliveries: u64,
    /// Indices into the recorder's span list that bound the timed region
    /// (set-up spans lie before it, join/restart spans after).
    pub span_window: (usize, usize),
    /// For the replay.
    pub artefacts: Option<Artefacts>,
}

impl Round {
    /// Takes the timed region's completion times (ascending, seconds since it
    /// began) and latencies; sets the rate and the latency percentiles and
    /// returns the last ÷ first segment rate ratio. Too few completions is a
    /// failed check.
    pub fn record_timed_region(&mut self, completions: &[f64], latencies_ms: Vec<f64>) -> f64 {
        if completions.len() < stats::SEGMENTS || latencies_ms.is_empty() {
            self.errors
                .push("too few transactions confirmed to report a rate".to_string());
            return 0.0;
        }
        self.tx_per_s = completions.len() as f64 / completions[completions.len() - 1];
        self.confirm_ms = stats::p50_p99(latencies_ms);
        let rates = stats::segment_rates(completions, stats::SEGMENTS);
        rates[stats::SEGMENTS - 1] / rates[0]
    }

    /// CPU microseconds per transaction of the timed region.
    pub fn cpu_us_per_tx(&self) -> f64 {
        self.timed_cpu_s * 1e6 / self.timed_txs.max(1) as f64
    }
}
