//@ path: crates/net/src/codec.rs
fn decode(buf: &[u8]) -> u32 {
    let first = buf.first().unwrap();
    let second = buf.get(1).expect("length checked");
    if *first > 10 {
        panic!("bad tag");
    }
    match second {
        0 => 0,
        _ => unreachable!(),
    }
}
//@ path: crates/chain/src/codec.rs
pub fn u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().unwrap())
}
//@ path: crates/core/src/codec.rs
pub fn read_block(tag: u8) -> u8 {
    match tag {
        0 | 1 => tag,
        _ => panic!("block kind"),
    }
}
