//@ path: crates/node/src/engine/relay.rs
use std::time::Instant;
use std::net::TcpStream;
fn worker() {
    std::thread::spawn(|| {});
    let _t = SystemTime::now();
}
