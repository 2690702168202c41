//! The metric catalogue — the names and units `BENCHMARK.json` lists — and the
//! result line the benchmark prints.

use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the system sees. Every workload reports
/// every one of them (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tx_per_s", "tx/s"),
    ("cpu_us_per_tx", "us"),
    ("confirm_p50_ms", "ms"),
    ("confirm_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), `<module>.<what>`. A layer that does no
/// work on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("crypto.verify_us_per_sig", "us"),
    ("crypto.batch_verify_us_per_sig", "us"),
    ("crypto.sign_us_per_sig", "us"),
    ("crypto.txid_us_per_tx", "us"),
    ("crypto.share", "ratio"),
    ("chain.utxo_validate_apply_us_per_tx", "us"),
    ("chain.mempool_insert_us_per_tx", "us"),
    ("chain.mempool_select_remove_us_per_tx", "us"),
    ("chain.sigcache_hit_ratio", "ratio"),
    ("core.produce_microblock_us_per_tx", "us"),
    ("core.on_block_us_per_block", "us"),
    ("chainstate.admission_us_per_tx", "us"),
    ("chainstate.filter_valid_us_per_tx", "us"),
    ("chainstate.connect_warm_us_per_tx", "us"),
    ("chainstate.connect_cold_us_per_tx", "us"),
    ("chainstate.disconnect_us_per_tx", "us"),
    ("engine.submit_tx_us_per_tx", "us"),
    ("engine.on_tx_msg_us_per_tx", "us"),
    ("engine.on_getdata_us_per_tx", "us"),
    ("engine.produce_us_per_tx", "us"),
    ("engine.on_block_msg_us_per_tx", "us"),
    ("engine.overhead_share", "ratio"),
    ("engine.depth_ratio", "ratio"),
    ("net.encode_tx_us", "us"),
    ("net.decode_tx_us", "us"),
    ("net.encode_block_us_per_tx", "us"),
    ("net.decode_block_us_per_tx", "us"),
    ("net.compact_build_us_per_tx", "us"),
    ("net.compact_reconstruct_us_per_tx", "us"),
    ("net.compact_hit_ratio", "ratio"),
    ("net.compact_txs_fetched_per_block", "count"),
    ("net.msgs_per_tx", "count"),
    ("net.wire_bytes_per_tx", "B"),
    ("net.tx_relay_bytes_share", "ratio"),
    ("net.overlay_grafts_per_block", "count"),
    ("net.tcp_send_recv_us", "us"),
    ("net.tcp_msgs_per_s", "1/s"),
    ("storage.store_block_us_per_block", "us"),
    ("storage.store_undo_us_per_block", "us"),
    ("storage.commit_roll_us_per_roll", "us"),
    ("storage.flushes_per_tx", "count"),
    ("storage.bytes_per_tx", "B"),
    ("storage.busy_share", "ratio"),
    ("storage.open_recover_ms", "ms"),
    ("parallel.verify_chunks_us_per_sig", "us"),
    ("parallel.sigs_per_batch", "count"),
    ("parallel.workers", "count"),
    ("simnet.deliveries_per_s", "1/s"),
    ("simnet.virtual_ms_per_wall_s", "ms/s"),
    ("simnet.delivery_us", "us"),
    ("daemon.submit_roundtrip_p50_us", "us"),
    ("daemon.submit_roundtrip_p99_us", "us"),
    ("daemon.generator_late_p99_ms", "ms"),
    ("daemon.drain_ms", "ms"),
    ("daemon.restart_s", "s"),
    ("sync.join_tx_per_s", "tx/s"),
    ("sync.join_virtual_ms", "ms"),
    ("sync.join_bytes_per_tx", "B"),
    ("sync.peer_evictions", "count"),
    ("trace.accounted_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("check.failed_share", "ratio"),
];

/// The four workloads, in the order `run.sh` runs them.
pub const WORKLOADS: &[&str] = &["solo_signed", "mesh_signed", "mesh_synth", "tcp_durable"];

/// Renders the result line: every metric of `catalogue`, with `values` where
/// measured and 0 where the layer was idle. Non-finite values read 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
            let value = values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0)
                + 0.0;
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The same figures as an aligned table for people.
pub fn table(catalogue: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> String {
    catalogue
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0) + 0.0;
            format!("  {name:<40} {value:>16.4} {unit}\n")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "…"` value inside the JSON array that follows `"key":`.
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("value quote") + 1..];
                rest[..rest.find('"').expect("value ends")].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let own = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(name, _)| name.to_string()).collect()
        };
        assert_eq!(names_under(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(names_under(&json, "per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(names_under(&json, "workloads"), workloads);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} is listed with unit {unit}"
            );
        }
    }

    #[test]
    fn result_line_carries_every_catalogue_metric() {
        let mut values = BTreeMap::new();
        values.insert("tx_per_s", 1234.5678);
        values.insert("setup_s", f64::NAN);
        let line = result_line(true, 10, 0, END_TO_END, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"tx_per_s\": {\"value\": 1234.5678, \"unit\": \"tx/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}
