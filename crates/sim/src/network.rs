//! Network model: random topology, per-pair latency and bandwidth.
//!
//! "we construct a random network by connecting each node to at least 5 other nodes,
//! chosen uniformly at random. We measured the latency to all visible Bitcoin nodes
//! from a single vantage point ... and created a latency histogram. We then set the
//! latency among each pair of nodes in the experiments based on this histogram. The
//! bandwidth is set to about 100kbit/sec among each pair of nodes." (§7)
//!
//! The original latency measurement is not public; [`LatencyModel::bitcoin_2015`]
//! encodes a histogram with the same character (tens-of-milliseconds body, heavy tail
//! of intercontinental links) and can be replaced with real measurements without
//! touching the rest of the simulator.

use ng_crypto::rng::SimRng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A one-way latency histogram: `(milliseconds, weight)` buckets.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LatencyModel {
    buckets: Vec<(f64, f64)>,
    scale: f64,
}

impl LatencyModel {
    /// A histogram shaped like 2015-era Bitcoin peer latencies: most links within a
    /// continent (15–60 ms), a substantial fraction intercontinental (80–180 ms) and a
    /// heavy tail of slow or congested links.
    pub fn bitcoin_2015() -> Self {
        LatencyModel {
            buckets: vec![
                (10.0, 0.08),
                (20.0, 0.14),
                (35.0, 0.18),
                (55.0, 0.17),
                (80.0, 0.14),
                (110.0, 0.11),
                (150.0, 0.08),
                (200.0, 0.05),
                (300.0, 0.03),
                (450.0, 0.015),
                (700.0, 0.005),
            ],
            scale: 1.0,
        }
    }

    /// Uniform latency (useful for controlled unit tests).
    pub fn constant(ms: f64) -> Self {
        LatencyModel {
            buckets: vec![(ms, 1.0)],
            scale: 1.0,
        }
    }

    /// Returns a copy with all latencies multiplied by `scale`.
    pub fn scaled(&self, scale: f64) -> Self {
        LatencyModel {
            buckets: self.buckets.clone(),
            scale: self.scale * scale,
        }
    }

    /// Samples a one-way latency in milliseconds.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let weights: Vec<f64> = self.buckets.iter().map(|(_, w)| *w).collect();
        let idx = rng.weighted_index(&weights);
        let (center, _) = self.buckets[idx];
        // Jitter within ±30% of the bucket centre keeps the distribution continuous.
        let jitter = rng.range_f64(0.7, 1.3);
        center * jitter * self.scale
    }

    /// Mean latency of the histogram in milliseconds.
    pub fn mean(&self) -> f64 {
        let total: f64 = self.buckets.iter().map(|(_, w)| w).sum();
        self.buckets
            .iter()
            .map(|(ms, w)| ms * w)
            .sum::<f64>()
            / total
            * self.scale
    }
}

/// A directed link with its fixed propagation latency.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Link {
    /// Destination node.
    pub to: u64,
    /// One-way propagation latency in milliseconds.
    pub latency_ms: f64,
}

/// The simulated overlay network.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Network {
    /// Adjacency list: `peers[i]` are the links of node `i`.
    peers: Vec<Vec<Link>>,
    /// Per-pair bandwidth in bits per second.
    bandwidth_bps: f64,
}

impl Network {
    /// Builds a random topology: every node opens `min_degree` connections to distinct
    /// uniformly random peers; connections are bidirectional, so realised degrees are
    /// at least `min_degree` (about twice that on average), as in the Bitcoin overlay.
    pub fn random(
        nodes: usize,
        min_degree: usize,
        latency: &LatencyModel,
        bandwidth_bps: f64,
        rng: &mut SimRng,
    ) -> Self {
        assert!(nodes >= 2, "need at least two nodes");
        assert!(min_degree >= 1 && min_degree < nodes, "bad degree");
        let mut edges: HashSet<(u64, u64)> = HashSet::new();
        for node in 0..nodes as u64 {
            let mut connected: HashSet<u64> = edges
                .iter()
                .filter(|(a, b)| *a == node || *b == node)
                .map(|(a, b)| if *a == node { *b } else { *a })
                .collect();
            while connected.len() < min_degree {
                let peer = rng.next_below(nodes as u64);
                if peer == node || connected.contains(&peer) {
                    continue;
                }
                connected.insert(peer);
                let key = (node.min(peer), node.max(peer));
                edges.insert(key);
            }
        }
        // Assign latencies in a canonical edge order: HashSet iteration order is not
        // deterministic across constructions, and latency assignment must depend only
        // on the seed for runs to be reproducible.
        let mut ordered: Vec<(u64, u64)> = edges.into_iter().collect();
        ordered.sort_unstable();
        let mut peers: Vec<Vec<Link>> = vec![Vec::new(); nodes];
        for (a, b) in ordered {
            let latency_ms = latency.sample(rng).max(1.0);
            peers[a as usize].push(Link { to: b, latency_ms });
            peers[b as usize].push(Link { to: a, latency_ms });
        }
        Network {
            peers,
            bandwidth_bps,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True if the network has no nodes (never the case for constructed networks).
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// The links of a node.
    pub fn peers_of(&self, node: u64) -> &[Link] {
        &self.peers[node as usize]
    }

    /// Time for `bytes` to traverse one link with the given latency: propagation plus
    /// serialisation at the per-pair bandwidth, plus half a round trip for the
    /// inv/getdata exchange Bitcoin performs before transferring a block.
    pub fn transfer_time_ms(&self, latency_ms: f64, bytes: u64) -> u64 {
        let serialisation_ms = (bytes as f64 * 8.0) / self.bandwidth_bps * 1000.0;
        (latency_ms * 1.5 + serialisation_ms).ceil() as u64
    }

    /// Mean node degree.
    pub fn mean_degree(&self) -> f64 {
        let total: usize = self.peers.iter().map(|p| p.len()).sum();
        total as f64 / self.peers.len() as f64
    }

    /// True if every node can reach every other node (the gossip overlay must be
    /// connected for the protocol to function).
    pub fn is_connected(&self) -> bool {
        if self.peers.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.peers.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(node) = stack.pop() {
            for link in &self.peers[node] {
                let idx = link.to as usize;
                if !seen[idx] {
                    seen[idx] = true;
                    count += 1;
                    stack.push(idx);
                }
            }
        }
        count == self.peers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_has_min_degree_and_is_connected() {
        let mut rng = SimRng::seed_from_u64(1);
        let net = Network::random(200, 5, &LatencyModel::bitcoin_2015(), 100_000.0, &mut rng);
        assert_eq!(net.len(), 200);
        assert!(net.is_connected());
        for node in 0..200u64 {
            assert!(net.peers_of(node).len() >= 5, "node {node} under-connected");
        }
        assert!(net.mean_degree() >= 5.0);
    }

    #[test]
    fn topology_is_deterministic_per_seed() {
        let build = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            Network::random(50, 4, &LatencyModel::constant(20.0), 100_000.0, &mut rng)
        };
        let a = build(9);
        let b = build(9);
        let c = build(10);
        let degrees = |n: &Network| (0..50u64).map(|i| n.peers_of(i).len()).collect::<Vec<_>>();
        assert_eq!(degrees(&a), degrees(&b));
        assert_ne!(
            (0..50u64)
                .flat_map(|i| a.peers_of(i).iter().map(|l| l.to).collect::<Vec<_>>())
                .collect::<Vec<_>>(),
            (0..50u64)
                .flat_map(|i| c.peers_of(i).iter().map(|l| l.to).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn latency_model_sampling_in_range() {
        let mut rng = SimRng::seed_from_u64(2);
        let model = LatencyModel::bitcoin_2015();
        for _ in 0..1000 {
            let l = model.sample(&mut rng);
            assert!((5.0..=1000.0).contains(&l), "latency {l}");
        }
        let mean = model.mean();
        assert!((40.0..150.0).contains(&mean), "mean {mean}");
        let scaled = model.scaled(2.0);
        assert!((scaled.mean() - 2.0 * mean).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_grows_linearly_with_size() {
        let mut rng = SimRng::seed_from_u64(3);
        let net = Network::random(10, 3, &LatencyModel::constant(50.0), 100_000.0, &mut rng);
        let t_small = net.transfer_time_ms(50.0, 10_000);
        let t_big = net.transfer_time_ms(50.0, 100_000);
        // 10 kB at 100 kbit/s ≈ 800 ms serialisation; 100 kB ≈ 8000 ms.
        assert!((800..=1000).contains(&t_small), "t_small = {t_small}");
        assert!((8000..=8200).contains(&t_big), "t_big = {t_big}");
        // Linearity: the increment matches the size ratio.
        let delta = (t_big - t_small) as f64;
        assert!((delta - 7200.0).abs() < 100.0);
    }

    #[test]
    fn constant_latency_model() {
        let mut rng = SimRng::seed_from_u64(4);
        let model = LatencyModel::constant(25.0);
        for _ in 0..10 {
            let sample = model.sample(&mut rng);
            assert!((17.0..=33.0).contains(&sample));
        }
    }
}
