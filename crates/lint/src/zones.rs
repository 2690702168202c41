//! The zone map: which invariant applies to which file.
//!
//! Matching is by path *suffix* against workspace-relative patterns, so the
//! same logic covers a real checkout (`/abs/path/crates/net/src/sync.rs`) and
//! fixture files analyzed under virtual paths.

/// Engine-side code: must stay sans-I/O and deterministically ordered.
/// Covers the pure protocol engine (the router and every component module under
/// `engine/`) and both of its deterministic substrates (`ng_core`, `ng_chain`),
/// plus all of `ng_net` except the real TCP driver.
const ENGINE_SIDE: &[&str] = &[
    "crates/node/src/engine/",
    "crates/node/src/simnet.rs",
    "crates/node/src/chainstate.rs",
    "crates/net/src/",
    "crates/core/src/",
    "crates/chain/src/",
];

const ENGINE_SIDE_EXCEPT: &[&str] = &["crates/net/src/tcp.rs"];

/// Protocol-state files whose struct fields hold peer-driven data: every
/// collection field needs a `bound(<CAP>)` annotation naming its eviction cap.
const BOUNDED_STATE: &[&str] = &[
    "crates/node/src/engine/",
    "crates/net/src/relay.rs",
    "crates/net/src/overlay.rs",
    "crates/net/src/peer.rs",
    "crates/net/src/sync.rs",
];

/// Peer-input-reachable paths: a malformed message must never panic a node.
const PANIC_FREE: &[&str] = &["crates/node/src/engine/", "crates/net/src/codec.rs"];

fn matches(path: &str, patterns: &[&str]) -> bool {
    patterns.iter().any(|p| {
        if p.ends_with('/') {
            path.contains(p)
        } else {
            path.ends_with(p)
        }
    })
}

pub fn is_engine_side(path: &str) -> bool {
    matches(path, ENGINE_SIDE) && !matches(path, ENGINE_SIDE_EXCEPT)
}

pub fn is_bounded_state(path: &str) -> bool {
    matches(path, BOUNDED_STATE)
}

pub fn is_panic_free(path: &str) -> bool {
    matches(path, PANIC_FREE)
}

pub fn is_message_def(path: &str) -> bool {
    path.ends_with("crates/net/src/message.rs")
}

pub fn is_codec_roundtrip(path: &str) -> bool {
    path.ends_with("crates/net/tests/codec_roundtrip.rs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_is_exempt_from_engine_side() {
        assert!(is_engine_side("/repo/crates/net/src/sync.rs"));
        assert!(!is_engine_side("/repo/crates/net/src/tcp.rs"));
    }

    #[test]
    fn node_zone_is_per_file_not_per_crate() {
        assert!(is_engine_side("crates/node/src/engine/mod.rs"));
        assert!(!is_engine_side("crates/node/src/daemon.rs"));
    }

    #[test]
    fn every_engine_module_inherits_all_three_zones() {
        for module in ["mod.rs", "types.rs", "chain.rs", "relay.rs", "a_module_added_later.rs"] {
            let path = format!("/repo/crates/node/src/engine/{module}");
            assert!(is_engine_side(&path), "{path}");
            assert!(is_bounded_state(&path), "{path}");
            assert!(is_panic_free(&path), "{path}");
        }
        // The prefix is the directory, not a name that merely starts like it.
        assert!(!is_panic_free("crates/node/src/engine_extras.rs"));
    }

    #[test]
    fn fixture_virtual_paths_match() {
        assert!(is_engine_side("fixtures/virtual/crates/node/src/engine/relay.rs"));
        assert!(is_panic_free("crates/net/src/codec.rs"));
        assert!(is_bounded_state("crates/net/src/overlay.rs"));
        assert!(is_bounded_state("crates/net/src/peer.rs"));
    }
}
