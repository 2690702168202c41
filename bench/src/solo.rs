//! `solo_signed`: one validating engine driven directly, in memory, closed
//! loop — submit a microblock's worth of pre-signed spends, produce the
//! microblock, repeat. The single-node baseline: `crypto`, `chain`,
//! `chainstate` and `core` do all the work, `net` and `storage` none.

use crate::check;
use crate::host;
use crate::round::{Artefacts, Ctx, Round};
use crate::trace;
use crate::workload;
use ng_chain::transaction::{OutPoint, Transaction};
use ng_core::params::NgParams;
use ng_node::engine::{Effect, Engine, EngineConfig, Input, ReportEvent};
use std::time::Instant;

/// Spends per full-size round.
pub const TRANSACTIONS: usize = 24_000;

/// Spends submitted before each `ProduceMicroblock` (one microblock's worth:
/// 512 × 188 bytes fits the default 100 kB limit).
pub const BATCH: usize = 512;

/// Validation on, coinbase spendable at once, microblocks 1 ms apart on the
/// clock the driver hands the engine.
pub fn params() -> NgParams {
    NgParams {
        min_microblock_interval_ms: 1,
        microblock_interval_ms: 1,
        coinbase_maturity: 0,
        ..NgParams::default()
    }
}

fn reported(effects: &[Effect], wanted: impl Fn(&ReportEvent) -> bool) -> bool {
    effects
        .iter()
        .any(|effect| matches!(effect, Effect::Report(event) if wanted(event)))
}

/// Submits one transaction; true if the mempool took it.
fn submit(engine: &mut Engine, now: u64, tx: Transaction, tracer: &trace::Tracer) -> bool {
    let effects = trace::span(tracer, "engine.handle.submit_tx", None, || {
        engine.handle(now, Input::SubmitTx(Box::new(tx)))
    });
    reported(&effects, |event| {
        matches!(event, ReportEvent::TxAccepted { .. })
    })
}

/// Produces one microblock from the mempool; true if one was produced.
fn produce(engine: &mut Engine, now: u64, tracer: &trace::Tracer) -> bool {
    let effects = trace::span(tracer, "engine.handle.produce", None, || {
        engine.handle(
            now,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        )
    });
    reported(&effects, |event| {
        matches!(event, ReportEvent::MicroblockProduced { .. })
    })
}

/// One round of the workload.
pub fn round(ctx: &Ctx) -> Round {
    let count = ctx.scaled(TRANSACTIONS);
    let params = params();
    let mut out = Round {
        nodes: 1,
        ..Round::default()
    };

    // ---- set-up: launch, mine, fan the coinbase out, pre-sign every spend ----
    let setup_started = Instant::now();
    let mut engine = Engine::new(EngineConfig::new(1, params));
    let mut now = 1_000u64;
    engine.handle(now, Input::MineKeyBlock);
    let coinbase = OutPoint::new(engine.tip(), 0);
    let value = engine
        .utxo()
        .get(&coinbase)
        .expect("the mined key block pays its miner at vout 0")
        .output
        .amount;
    let owner = *engine.node().keys();
    let mut work = workload::signed(ctx.seed, coinbase, value, &owner, count, &params);
    for tx in work.fanout.drain(..).flatten() {
        now += 1;
        if !(submit(&mut engine, now, tx, &None) && produce(&mut engine, now, &None)) {
            out.errors
                .push("a fan-out transaction was refused".to_string());
        }
    }
    let prefix = engine.height() as usize;
    out.setup_s = setup_started.elapsed().as_secs_f64();

    // ---- timed region ----
    let mut latencies_ms = Vec::with_capacity(count);
    let mut completions = Vec::with_capacity(count);
    let mut refused = 0u64;
    let spans_from = trace::mark(&ctx.tracer);
    let cpu_started = host::cpu_seconds();
    let started = Instant::now();
    let mut spends = work.spends.drain(..);
    loop {
        let mut submitted_at = Vec::with_capacity(BATCH);
        for tx in spends.by_ref().take(BATCH) {
            let at = started.elapsed().as_secs_f64();
            if submit(&mut engine, now, tx, &ctx.tracer) {
                submitted_at.push(at);
            } else {
                refused += 1;
            }
        }
        if submitted_at.is_empty() {
            break;
        }
        now += 1;
        if !produce(&mut engine, now, &ctx.tracer) {
            out.errors
                .push("the leader produced no microblock from a full mempool".to_string());
            break;
        }
        let confirmed_at = started.elapsed().as_secs_f64();
        for at in submitted_at {
            latencies_ms.push((confirmed_at - at) * 1e3);
            completions.push(confirmed_at);
        }
    }
    drop(spends);
    out.timed_wall_s = started.elapsed().as_secs_f64();
    out.timed_cpu_s = host::cpu_seconds() - cpu_started;
    out.span_window = (spans_from, trace::mark(&ctx.tracer));
    out.blocks = engine.height() - prefix as u64;

    // ---- correctness ----
    check::oracle(&engine, &mut out.errors);
    let chain = check::main_chain_blocks(&engine);
    out.confirmed = check::exactly_once(&chain, &work.txids, &mut out.errors);
    out.timed_txs = out.confirmed;
    out.attempted = count as u64;
    out.failed = refused.max(out.attempted - out.confirmed);

    let depth_ratio = out.record_timed_region(&completions, latencies_ms);
    let (hits, misses) = engine.chainstate().sig_cache_stats();
    out.layer = vec![
        ("engine.depth_ratio", depth_ratio),
        (
            "chain.sigcache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
    ];
    out.artefacts = Some(Artefacts {
        params,
        blocks: chain,
        prefix,
        wallet: Some(work.wallet),
    });
    out
}
