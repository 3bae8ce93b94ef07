//! The consistent-hash ring: virtual nodes on a u64 circle, replica
//! sets walked clockwise.
//!
//! Keys do not hash onto the ring directly — the /48 address space
//! first folds into a fixed number of **partitions**
//! ([`partition_of`]), and the ring places partitions on nodes. The
//! indirection is what keeps replication tractable: a node replicates
//! whole partitions (each one store + one epoch log), not arbitrary
//! key ranges, and a membership change moves partitions — never
//! splits them.
//!
//! Placement math: each node projects `vnodes` points onto the circle
//! (`hash64` of `"<node>#<v>"`), and a key's replica set is the first
//! R *distinct* nodes at or after the key's own hash point, walking
//! clockwise. Determinism and the rebalance bound follow from the
//! construction:
//!
//! * the same node set always yields the same points, so assignment
//!   is a pure function of (nodes, vnodes, R, key);
//! * removing a node deletes only that node's points — every key
//!   whose walk never crossed them keeps its exact replica set, so a
//!   single membership change moves an expected K/N of K keys (the
//!   deterministic bound is pinned in `tests/ring_properties.rs`);
//! * distinctness is enforced during the walk, so two replicas of one
//!   key can never land on the same node.

use v6netsim::rng::hash64;

/// Domain separator for vnode placement hashes.
const RING_SALT: u64 = 0x7636_7269_6e67_5f31; // "v6ring_1"

/// Domain separator for key→partition hashes (distinct from placement
/// so partition ids never correlate with ring positions).
const PARTITION_SALT: u64 = 0x7636_7061_7274_5f31; // "v6part_1"

/// The partition a /48 network belongs to, out of `partitions`.
///
/// Only the top 48 bits participate, so every address in a /48 — the
/// paper's aggregation unit — lands in the same partition and is
/// served by one replica set.
pub fn partition_of(bits: u128, partitions: u32) -> u32 {
    assert!(partitions > 0, "partition count must be positive");
    let net48 = (bits >> 80) as u64;
    (hash64(PARTITION_SALT, &net48.to_be_bytes()) % u64::from(partitions)) as u32
}

/// A consistent-hash ring over a fixed node set.
#[derive(Debug, Clone)]
pub struct Ring {
    /// Sorted, deduplicated node names.
    nodes: Vec<String>,
    /// `(point, node index)` sorted ascending — the circle.
    points: Vec<(u64, u32)>,
    replication: usize,
}

impl Ring {
    /// Builds a ring placing `vnodes` points per node, serving
    /// replication factor `replication` (capped at the node count).
    pub fn build<I, S>(nodes: I, vnodes: usize, replication: usize) -> Ring
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut nodes: Vec<String> = nodes.into_iter().map(Into::into).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert!(!nodes.is_empty(), "ring needs at least one node");
        assert!(vnodes >= 1, "at least one virtual node per node");
        assert!(replication >= 1, "replication factor must be positive");
        let mut points = Vec::with_capacity(nodes.len() * vnodes);
        for (i, node) in nodes.iter().enumerate() {
            for v in 0..vnodes {
                let point = hash64(RING_SALT, format!("{node}#{v}").as_bytes());
                points.push((point, i as u32));
            }
        }
        // Ties (vanishingly rare) break by node index so the circle is
        // a pure function of the node set.
        points.sort_unstable();
        Ring {
            nodes,
            points,
            replication,
        }
    }

    /// The node set, sorted.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// The effective replication factor: the configured R, capped at
    /// the node count (a 2-node ring cannot hold 3 distinct replicas).
    pub fn replication(&self) -> usize {
        self.replication.min(self.nodes.len())
    }

    /// The replica set for a raw key hash: the first
    /// [`Ring::replication`] distinct nodes clockwise from `h`, in
    /// walk order (index 0 is the primary).
    pub fn replicas_for_hash(&self, h: u64) -> Vec<&str> {
        let want = self.replication();
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut picked: Vec<u32> = Vec::with_capacity(want);
        for k in 0..self.points.len() {
            let (_, idx) = self.points[(start + k) % self.points.len()];
            if !picked.contains(&idx) {
                picked.push(idx);
                if picked.len() == want {
                    break;
                }
            }
        }
        picked
            .into_iter()
            .map(|i| self.nodes[i as usize].as_str())
            .collect()
    }

    /// The replica set for a partition id.
    pub fn replicas_for_partition(&self, partition: u32) -> Vec<&str> {
        self.replicas_for_hash(hash64(
            RING_SALT,
            format!("partition:{partition}").as_bytes(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_deterministic_and_distinct() {
        let a = Ring::build(["n2", "n0", "n1", "n0"], 64, 3);
        let b = Ring::build(["n0", "n1", "n2"], 64, 3);
        assert_eq!(a.nodes(), b.nodes());
        for pid in 0..32 {
            let ra = a.replicas_for_partition(pid);
            let rb = b.replicas_for_partition(pid);
            assert_eq!(ra, rb, "same node set, same placement");
            assert_eq!(ra.len(), 3);
            let mut d = ra.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 3, "replicas are distinct nodes");
        }
    }

    #[test]
    fn replication_caps_at_node_count() {
        let r = Ring::build(["a", "b"], 16, 3);
        assert_eq!(r.replication(), 2);
        assert_eq!(r.replicas_for_partition(0).len(), 2);
    }

    #[test]
    fn partition_of_keys_whole_48s_together() {
        let p = 8;
        let base: u128 = 0x2001_0db8_0001 << 80;
        let a = partition_of(base | 0x1, p);
        let b = partition_of(base | (0xffff << 40), p);
        assert_eq!(a, b, "same /48, same partition");
        assert!(a < p);
    }

    #[test]
    fn membership_change_leaves_most_placements_alone() {
        let before = Ring::build(["n0", "n1", "n2", "n3"], 64, 2);
        let after = Ring::build(["n0", "n1", "n2", "n3", "n4"], 64, 2);
        let total = 256u32;
        let moved = (0..total)
            .filter(|&pid| {
                before.replicas_for_partition(pid)[0] != after.replicas_for_partition(pid)[0]
            })
            .count();
        // Expected K/(N+1) = 51.2; generous headroom, but far below a
        // naive rehash (which would move ~4/5 of all placements).
        assert!(
            moved <= (total as usize) / 3,
            "one join moved {moved}/{total} primaries"
        );
    }
}
