//@ path: crates/node/src/engine/relay.rs
use std::time::Duration;
use std::collections::BTreeMap;
fn tick(now_ms: u64) -> Duration {
    let _map: BTreeMap<u64, u64> = BTreeMap::new();
    Duration::from_millis(now_ms)
}
