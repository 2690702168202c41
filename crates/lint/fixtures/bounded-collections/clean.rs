//@ path: crates/net/src/relay.rs
pub struct Counters {
    sent: u64,
    received: u64,
}
pub struct Wrapper(u32);
//@ path: crates/net/src/peer.rs
pub struct Peer {
    known: BoundedFifoMap<Hash256, ()>,
    pending: ng_chain::fifo::BoundedFifoMap<Hash256, Vec<u8>>,
}
