//! The pipeline benchmark: submit → confirmed tx/s, confirmation latency and a
//! per-layer cost table over four workloads. See `bench/README.md`.
//!
//! `pipeline --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]`
//!
//! One workload per process. A run repeats fixed-size *rounds* — set-up, timed
//! region, correctness gate — until `--seconds` are used up and reports the
//! median round. `--trace 0` prints the end-to-end metrics (measured with
//! tracing off); `--trace 1` runs one untraced reference round, then traced
//! rounds, then the layer replay, and prints the per-layer metrics. The last
//! line of standard output is the result as one JSON object; the process exits
//! non-zero if a correctness check failed.

mod check;
mod host;
mod mesh;
mod metrics;
mod observer;
mod replay;
mod round;
mod solo;
mod stats;
mod tcp;
mod trace;
mod workload;

use round::{Ctx, Round, OUT_DIR, TOPOLOGIES};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Recorder;

/// A run never reports a median of fewer rounds than this.
const MIN_ROUNDS: usize = 3;

/// Share of `--seconds` a traced run spends on rounds; the rest is the replay.
const TRACED_ROUND_SHARE: f64 = 0.6;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: pipeline --workload <{}> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke]",
        metrics::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).map(String::as_str);
        match argv[i].as_str() {
            "--workload" => {
                args.workload = value.unwrap_or_else(|| usage()).to_string();
                i += 1;
            }
            "--seed" => {
                args.seed = value
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 1;
            }
            "--seconds" => {
                args.seconds = value
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 1;
            }
            "--trace" => match value {
                Some("0") => i += 1,
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--smoke" => args.smoke = true,
            _ => usage(),
        }
        i += 1;
    }
    if !metrics::WORKLOADS.contains(&args.workload.as_str()) {
        usage();
    }
    args
}

fn run_round(workload: &str, ctx: &Ctx) -> Round {
    match workload {
        "solo_signed" => solo::round(ctx),
        "mesh_signed" => mesh::round(&mesh::SIGNED, ctx),
        "mesh_synth" => mesh::round(&mesh::SYNTH, ctx),
        "tcp_durable" => tcp::round(ctx),
        _ => unreachable!("workload names are validated at parse time"),
    }
}

fn main() {
    let args = parse_args();
    let started = Instant::now();
    let elapsed = || started.elapsed().as_secs_f64();
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced: Vec<(Round, Vec<trace::Span>)> = Vec::new();
    let budget = if args.trace {
        args.seconds * TRACED_ROUND_SHARE
    } else {
        args.seconds
    };
    loop {
        let done = rounds.len() + traced.len();
        // The first round of a traced run is the untraced reference.
        let recorder = (args.trace && done > 0).then(Recorder::new);
        let ctx = Ctx {
            seed: args.seed,
            smoke: args.smoke,
            tracer: recorder.clone(),
            round: done,
        };
        let round = run_round(&args.workload, &ctx);
        let simulated_clock = round.simulated_clock;
        eprintln!(
            "round {done}{}: set-up {:.3} s, timed {:.3} s wall / {:.3} s CPU, {} tx at {:.0} tx/s, \
             confirm p50 {:.1} p99 {:.1} ms",
            if ctx.tracer.is_some() { " (traced)" } else { "" },
            round.setup_s,
            round.timed_wall_s,
            round.timed_cpu_s,
            round.timed_txs,
            round.tx_per_s,
            round.confirm_ms.0,
            round.confirm_ms.1
        );
        match recorder {
            Some(recorder) => traced.push((round, recorder.snapshot())),
            None => rounds.push(round),
        }
        let done = done + 1;
        // A traced run needs the reference round and one traced round.
        let wanted = match (args.trace, args.smoke) {
            (true, _) => 2,
            (false, true) => 1,
            (false, false) if simulated_clock => TOPOLOGIES,
            (false, false) => MIN_ROUNDS,
        };
        if done >= wanted && (args.smoke || elapsed() + elapsed() / done as f64 > budget) {
            break;
        }
    }

    let all = || rounds.iter().chain(traced.iter().map(|(round, _)| round));
    let errors: Vec<&String> = all().flat_map(|round| &round.errors).collect();
    let attempted: u64 = all().map(|round| round.attempted).sum();
    let failed: u64 = all().map(|round| round.failed).sum();
    let correct = errors.is_empty() && failed == 0;

    let (catalogue, values) = if args.trace {
        let reference = &rounds[0];
        let mut values = replay::per_layer(&args.workload, reference, &traced);
        values.insert(
            "check.failed_share",
            failed as f64 / attempted.max(1) as f64,
        );
        let (_, spans) = traced.last().expect("a traced run has a traced round");
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{}.json", args.workload));
        match trace::write_json(&path, &args.workload, spans, &values) {
            Ok(()) => eprintln!("{} spans of the last traced round -> {path:?}", spans.len()),
            Err(e) => eprintln!("could not write {path:?}: {e}"),
        }
        (metrics::PER_LAYER, values)
    } else {
        let median_of = |rounds: &[Round], pick: fn(&Round) -> f64| -> f64 {
            stats::median(&rounds.iter().map(pick).collect::<Vec<_>>())
        };
        // Simulated-clock latencies are exact, so there is no outlier for a
        // median to reject: they are averaged over one full cycle of link-delay
        // streams (which also makes them exact for a seed however many rounds
        // fit). Wall-clock latencies take the median over all rounds.
        let confirm = |pick: fn(&Round) -> f64| -> f64 {
            if rounds[0].simulated_clock {
                let cycle = &rounds[..TOPOLOGIES.min(rounds.len())];
                cycle.iter().map(pick).sum::<f64>() / cycle.len() as f64
            } else {
                median_of(&rounds, pick)
            }
        };
        let mut values = BTreeMap::new();
        values.insert("setup_s", median_of(&rounds, |round| round.setup_s));
        values.insert("tx_per_s", median_of(&rounds, |round| round.tx_per_s));
        values.insert("cpu_us_per_tx", median_of(&rounds, Round::cpu_us_per_tx));
        values.insert("confirm_p50_ms", confirm(|round| round.confirm_ms.0));
        values.insert("confirm_p99_ms", confirm(|round| round.confirm_ms.1));
        values.insert("peak_rss_mb", host::peak_rss_mb());
        (metrics::END_TO_END, values)
    };

    for name in values.keys() {
        assert!(
            catalogue.iter().any(|(listed, _)| listed == name),
            "{name} is reported but not in the catalogue BENCHMARK.json lists"
        );
    }
    eprintln!(
        "{} seed {} — {} round(s) in {:.1} s on {} core(s), {} confirmed of {} attempted, {} failed",
        args.workload,
        args.seed,
        rounds.len() + traced.len(),
        elapsed(),
        host::cores(),
        all().map(|round| round.confirmed).sum::<u64>(),
        attempted,
        failed
    );
    eprint!("{}", metrics::table(catalogue, &values));
    for error in &errors {
        eprintln!("CHECK FAILED (seed {}): {error}", args.seed);
    }
    println!(
        "{}",
        metrics::result_line(correct, attempted.max(1), failed, catalogue, &values)
    );
    if !correct {
        std::process::exit(1);
    }
}
