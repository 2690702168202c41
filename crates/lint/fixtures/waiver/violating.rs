//@ path: crates/net/src/codec.rs
// ng-lint: allowthis(x)
fn a(buf: &[u8]) -> u8 {
    // ng-lint: allow(no-such-rule): reason text
    // ng-lint: allow(no-panic-protocol):
    // ng-lint: allow(sans-io): nothing here violates sans-io
    *buf.first().unwrap()
}
//@ path: crates/net/src/relay.rs
const CAP: usize = 8;
// ng-lint: bound(CAP)
fn not_a_field() {}
//@ path: crates/net/src/overlay.rs
pub struct Tracker {
    // ng-lint: bound(NO_SUCH_CONST)
    items: Vec<u8>,
}
//@ path: crates/net/src/peer.rs
const MAX_KNOWN: usize = 8;
pub struct Peer {
    // ng-lint: bound(MAX_KNOWN)
    known: BoundedFifoMap<Hash256, ()>,
}
