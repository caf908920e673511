//! In-network compute: a switch aggregation tree (SHArP-style).
//!
//! The defining property of INC — and the reason HEAR exists — is that the
//! *network devices* perform the reduction. This module models a radix-k
//! tree of switch threads that fold incoming vectors with an opaque
//! associative operation and forward one aggregate upward; the root
//! multicasts the result back down. The switch endpoints are constructed
//! **without any key material** and their API accepts only already-
//! encrypted buffers plus the combine function — the untrusted-network
//! boundary of the threat model (Fig. 2), enforced at the type level.
//!
//! Bandwidth-wise this is the up-to-2× saving the paper cites: each rank
//! sends its vector once and receives one aggregate, instead of the
//! 2×(P−1)/P volume of a ring.

use crate::comm::Communicator;
use crate::error::CommError;
use crate::transport::Transport;
use std::sync::Arc;
use std::time::Instant;

/// Static description of the switch tree built for a communicator.
#[derive(Debug, Clone)]
pub struct SwitchTopology {
    /// Fan-in of each switch node.
    pub radix: usize,
    /// Number of leaf switches (each serving up to `radix` ranks).
    pub leaves: usize,
    /// Total switch nodes (leaves + inner + root).
    pub nodes: usize,
    /// Endpoint index of the first switch in the fabric (ranks occupy
    /// 0..world).
    pub base_endpoint: usize,
    /// `parent[i]` = index (within switch nodes) of node i's parent; the
    /// root's parent is itself.
    pub parent: Vec<usize>,
    /// `children[i]` = rank endpoints (level 0) or switch endpoints feeding i.
    pub children: Vec<Vec<usize>>,
    /// Which switch node each rank reports to.
    pub leaf_of_rank: Vec<usize>,
}

impl SwitchTopology {
    /// Build a radix-`radix` reduction tree over `world` ranks.
    pub fn build(world: usize, radix: usize, base_endpoint: usize) -> SwitchTopology {
        assert!(radix >= 2, "switch radix must be at least 2");
        assert!(world >= 1);
        // Level 0: leaves over ranks.
        let leaves = world.div_ceil(radix);
        let mut levels: Vec<Vec<Vec<usize>>> = Vec::new(); // children lists per level
        let leaf_children: Vec<Vec<usize>> = (0..leaves)
            .map(|l| (l * radix..((l + 1) * radix).min(world)).collect())
            .collect();
        levels.push(leaf_children);
        // Higher levels until a single root remains.
        while levels.last().unwrap().len() > 1 {
            let below = levels.last().unwrap().len();
            let groups = below.div_ceil(radix);
            let level: Vec<Vec<usize>> = (0..groups)
                .map(|g| (g * radix..((g + 1) * radix).min(below)).collect())
                .collect();
            levels.push(level);
        }
        // Assign node ids level by level and wire parent/children with
        // absolute endpoint ids.
        let mut parent = Vec::new();
        let mut children: Vec<Vec<usize>> = Vec::new();
        let mut leaf_of_rank = vec![0usize; world];
        let mut level_start = Vec::new();
        let mut next_id = 0usize;
        for level in &levels {
            level_start.push(next_id);
            next_id += level.len();
        }
        let nodes = next_id;
        parent.resize(nodes, 0);
        for (li, level) in levels.iter().enumerate() {
            for (ni, kids) in level.iter().enumerate() {
                let id = level_start[li] + ni;
                if li == 0 {
                    for &r in kids {
                        leaf_of_rank[r] = id;
                    }
                    children.push(kids.clone());
                } else {
                    children.push(kids.iter().map(|k| level_start[li - 1] + k).collect());
                }
                // Parent sits in the next level, group ni / radix.
                if li + 1 < levels.len() {
                    parent[id] = level_start[li + 1] + ni / radix;
                } else {
                    parent[id] = id; // root
                }
            }
        }
        // Children lists above level 0 refer to switch node ids; convert to
        // endpoint ids lazily (endpoint = base + node id). Rank children
        // stay as rank endpoints.
        SwitchTopology {
            radix,
            leaves,
            nodes,
            base_endpoint,
            parent,
            children,
            leaf_of_rank,
        }
    }

    fn root(&self) -> usize {
        self.nodes - 1
    }

    /// Tree depth in switch hops (1 for a single-switch fabric).
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut width = self.leaves;
        while width > 1 {
            width = width.div_ceil(self.radix);
            d += 1;
        }
        d
    }
}

/// Run one switch node's aggregation for a single allreduce operation.
///
/// `T` and `op` are all the switch gets: no keys, no plaintext. The
/// service is deadline-aware: if a child or parent goes silent (dropped
/// message, killed endpoint, or this node itself killed), the service
/// returns the error and the node thread exits instead of leaking — the
/// ranks waiting below observe their own `Timeout`/`PeerDead` and map it
/// to `SwitchDown`.
pub(crate) fn switch_node_service<T, F>(
    fabric: &Arc<dyn Transport>,
    topo: &SwitchTopology,
    node: usize,
    tag: u64,
    op: &F,
    deadline: Option<Instant>,
) -> Result<(), CommError>
where
    T: Clone + Send + 'static,
    F: Fn(&T, &T) -> T,
{
    let me = topo.base_endpoint + node;
    let is_leaf = node < topo.leaves;
    // Gather from children (ranks for leaves, switches otherwise).
    let sources: Vec<usize> = if is_leaf {
        topo.children[node].clone()
    } else {
        topo.children[node]
            .iter()
            .map(|c| topo.base_endpoint + c)
            .collect()
    };
    let take = |src: usize, t: u64| -> Result<Vec<T>, CommError> {
        let env = fabric.recv_on(me, src, t, deadline)?;
        env.payload
            .downcast::<Vec<T>>()
            .map(|b| *b)
            .map_err(|_| CommError::TypeMismatch {
                source: src,
                tag: t,
                expected: std::any::type_name::<Vec<T>>(),
            })
    };
    let mut acc: Option<Vec<T>> = None;
    for &src in &sources {
        let v = take(src, tag)?;
        acc = Some(match acc {
            None => v,
            Some(mut a) => {
                for (x, y) in a.iter_mut().zip(&v) {
                    *x = op(x, y);
                }
                a
            }
        });
    }
    let acc = acc.expect("switch node with no children");
    let bytes = std::mem::size_of::<T>() * acc.len();
    if node == topo.root() {
        // Multicast the aggregate back to every child subtree.
        if topo.nodes == 1 {
            for &r in &topo.children[node] {
                fabric.send_boxed(me, r, tag + 1, Box::new(acc.clone()), bytes);
            }
        } else {
            for &c in &topo.children[node] {
                fabric.send_boxed(
                    me,
                    topo.base_endpoint + c,
                    tag + 1,
                    Box::new(acc.clone()),
                    bytes,
                );
            }
        }
    } else {
        fabric.send_boxed(
            me,
            topo.base_endpoint + topo.parent[node],
            tag,
            Box::new(acc),
            bytes,
        );
    }
    // Downward multicast for non-root nodes.
    if node != topo.root() {
        let v = take(topo.base_endpoint + topo.parent[node], tag + 1)?;
        if is_leaf {
            for &r in &topo.children[node] {
                fabric.send_boxed(me, r, tag + 1, Box::new(v.clone()), bytes);
            }
        } else {
            for &c in &topo.children[node] {
                fabric.send_boxed(
                    me,
                    topo.base_endpoint + c,
                    tag + 1,
                    Box::new(v.clone()),
                    bytes,
                );
            }
        }
    }
    Ok(())
}

impl Communicator {
    /// Allreduce offloaded to the in-network switch tree. Requires the
    /// simulator to have been built with [`crate::SimConfig::with_switch`].
    ///
    /// Each rank sends one vector up and receives one aggregate down —
    /// the INC bandwidth advantage. The reduction happens entirely on
    /// key-less switch endpoints, so callers MUST pass encrypted data (the
    /// HEAR layer does; the plaintext variant exists only as the insecure
    /// baseline the paper argues against).
    pub fn allreduce_inc<T, F>(&self, data: &[T], op: F) -> Vec<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T + Send + Sync + Clone + 'static,
    {
        let tag = self.next_coll_tag();
        self.try_allreduce_inc_tagged(tag, data.to_vec(), op, None)
            .unwrap_or_else(|e| panic!("INC allreduce (tag {tag:#x}) failed: {e}"))
    }

    /// Fallible switch-tree allreduce. A silent or dead switch surfaces
    /// as [`CommError::SwitchDown`]: a rank cannot tell a slow switch
    /// from a dead one, and either way the recovery is the same — fall
    /// back to a host algorithm — so timeouts waiting on the tree and
    /// deaths of switch endpoints both map to `SwitchDown`. Failures of
    /// *rank* endpoints keep their own variants.
    pub fn try_allreduce_inc_tagged<T, F>(
        &self,
        tag: u64,
        data: Vec<T>,
        op: F,
        deadline: Option<Instant>,
    ) -> Result<Vec<T>, CommError>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T + Send + Sync + Clone + 'static,
    {
        let topo = self
            .switch_topology()
            .expect("allreduce_inc requires a switch-enabled simulator");
        // Kick the switch service for this collective (one service task per
        // switch node, run on a helper thread from the posting cache).
        self.spawn_switch_service::<T, F>(&topo, tag, op, deadline);
        let leaf_node = topo.leaf_of_rank[self.rank()];
        let leaf = topo.base_endpoint + leaf_node;
        let bytes = std::mem::size_of_val(&data[..]);
        self.transport
            .send_boxed(self.rank(), leaf, tag, Box::new(data), bytes);
        let env = match self.transport.recv_on(self.rank(), leaf, tag + 1, deadline) {
            Ok(env) => env,
            Err(CommError::Timeout { .. }) => {
                return Err(CommError::SwitchDown { node: leaf_node });
            }
            Err(CommError::PeerDead { peer }) if peer >= topo.base_endpoint => {
                return Err(CommError::SwitchDown {
                    node: peer - topo.base_endpoint,
                });
            }
            Err(e) => return Err(e),
        };
        env.payload
            .downcast::<Vec<T>>()
            .map(|b| *b)
            .map_err(|_| CommError::TypeMismatch {
                source: leaf,
                tag: tag + 1,
                expected: std::any::type_name::<Vec<T>>(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{SimConfig, Simulator};

    #[test]
    fn topology_shapes() {
        let t = SwitchTopology::build(8, 4, 8);
        assert_eq!(t.leaves, 2);
        assert_eq!(t.nodes, 3); // two leaves + root
        assert_eq!(t.root(), 2);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.children[0], vec![0, 1, 2, 3]);
        assert_eq!(t.children[2], vec![0, 1]); // node ids of the leaves
        assert_eq!(t.leaf_of_rank, vec![0, 0, 0, 0, 1, 1, 1, 1]);

        let t1 = SwitchTopology::build(3, 4, 3);
        assert_eq!(t1.nodes, 1);
        assert_eq!(t1.depth(), 1);
        assert_eq!(t1.root(), 0);

        let deep = SwitchTopology::build(64, 4, 64);
        assert_eq!(deep.leaves, 16);
        assert_eq!(deep.nodes, 16 + 4 + 1);
        assert_eq!(deep.depth(), 3);
        // Every rank maps to a leaf; every non-root has a parent above it.
        for n in 0..deep.nodes - 1 {
            assert!(deep.parent[n] > n);
        }
    }

    #[test]
    fn inc_allreduce_matches_host_allreduce() {
        for world in [1usize, 2, 3, 4, 5, 8, 9] {
            let results = Simulator::with_config(world, SimConfig::default().with_switch(4)).run(
                move |comm| {
                    let data: Vec<u64> =
                        (0..6).map(|j| (comm.rank() as u64 + 1) * 10 + j).collect();
                    let inc = comm.allreduce_inc(&data, |a: &u64, b: &u64| a + b);
                    let host = comm.allreduce(&data, |a, b| a + b);
                    (inc, host)
                },
            );
            for (inc, host) in &results {
                assert_eq!(inc, host, "world={world}");
            }
        }
    }

    #[test]
    fn inc_allreduce_deep_tree() {
        // Radix 2 over 8 ranks: 3 switch levels.
        let results = Simulator::with_config(8, SimConfig::default().with_switch(2))
            .run(|comm| comm.allreduce_inc(&[comm.rank() as u32, 1], |a, b| a + b));
        for v in &results {
            assert_eq!(*v, vec![28, 8]);
        }
    }

    #[test]
    fn repeated_inc_collectives() {
        let results = Simulator::with_config(4, SimConfig::default().with_switch(4)).run(|comm| {
            let mut acc = 0u64;
            for i in 0..5u64 {
                acc += comm.allreduce_inc(&[i], |a, b| a + b)[0];
            }
            acc
        });
        // Σ_{i<5} 4i = 40.
        for v in &results {
            assert_eq!(*v, 40);
        }
    }

    #[test]
    #[should_panic(expected = "switch-enabled")]
    fn inc_without_switch_panics() {
        Simulator::new(2).run(|comm| {
            comm.allreduce_inc(&[1u8], |a, b| a ^ b);
        });
    }
}
