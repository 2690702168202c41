//@ path: crates/node/src/engine/relay.rs
fn bench_hook() {
    // ng-lint: allow(sans-io): fixture models a driver-owned stopwatch whose reading is passed back in as now_ms
    let _t = Instant::now();
}
