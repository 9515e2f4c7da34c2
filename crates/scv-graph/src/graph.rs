//! The constraint graph data structure (§3.1) and node bandwidth (§3.2).

use crate::edge::EdgeSet;
use scv_types::Op;
use std::collections::VecDeque;
use std::fmt;

/// A directed graph whose nodes are the operations of a trace, numbered by
/// their trace order, and whose edges carry [`EdgeSet`] annotations.
///
/// Node numbering is 0-based in the API; [`fmt::Display`] prints 1-based
/// numbers to match the paper. Equality is *semantic*: two graphs are
/// equal iff they have the same labeled nodes and the same annotated edge
/// set, regardless of edge insertion order.
#[derive(Clone, Default)]
pub struct ConstraintGraph {
    labels: Vec<Op>,
    /// Out-adjacency: `adj[u]` lists `(v, annotations)` with `u -> v`.
    adj: Vec<Vec<(u32, EdgeSet)>>,
    /// In-adjacency (targets only), maintained for bandwidth and in-degree
    /// computations.
    radj: Vec<Vec<u32>>,
    n_edges: usize,
}

impl ConstraintGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// A graph with the given node labels and no edges.
    pub fn with_nodes(labels: impl IntoIterator<Item = Op>) -> Self {
        let labels: Vec<Op> = labels.into_iter().collect();
        let n = labels.len();
        ConstraintGraph {
            labels,
            adj: vec![Vec::new(); n],
            radj: vec![Vec::new(); n],
            n_edges: 0,
        }
    }

    /// Append a node labeled `op`; returns its (0-based) number.
    pub fn add_node(&mut self, op: Op) -> usize {
        self.labels.push(op);
        self.adj.push(Vec::new());
        self.radj.push(Vec::new());
        self.labels.len() - 1
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of distinct directed edges (parallel annotations merge).
    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    /// The label of node `u`.
    pub fn label(&self, u: usize) -> Op {
        self.labels[u]
    }

    /// All node labels in trace order.
    pub fn labels(&self) -> &[Op] {
        &self.labels
    }

    /// Add edge `u -> v` with the given annotations, merging with any
    /// existing annotations on that edge. Panics on an empty annotation set
    /// (constraint 1 requires at least one annotation per edge).
    pub fn add_edge(&mut self, u: usize, v: usize, ann: EdgeSet) {
        assert!(!ann.is_empty(), "constraint-graph edges must be annotated");
        assert!(
            u < self.node_count() && v < self.node_count(),
            "edge endpoint out of range"
        );
        if let Some(entry) = self.adj[u].iter_mut().find(|(t, _)| *t as usize == v) {
            entry.1 |= ann;
            return;
        }
        self.adj[u].push((v as u32, ann));
        self.radj[v].push(u as u32);
        self.n_edges += 1;
    }

    /// The annotations on edge `u -> v`, if present.
    pub fn edge(&self, u: usize, v: usize) -> Option<EdgeSet> {
        self.adj[u]
            .iter()
            .find(|(t, _)| *t as usize == v)
            .map(|(_, a)| *a)
    }

    /// Out-edges of `u` as `(target, annotations)` pairs.
    pub fn out_edges(&self, u: usize) -> &[(u32, EdgeSet)] {
        &self.adj[u]
    }

    /// Sources of in-edges of `v`.
    pub fn in_sources(&self, v: usize) -> &[u32] {
        &self.radj[v]
    }

    /// Iterate over all edges as `(u, v, annotations)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, EdgeSet)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, outs)| outs.iter().map(move |&(v, a)| (u, v as usize, a)))
    }

    /// Edges filtered to those carrying a particular annotation.
    pub fn edges_with(&self, ann: EdgeSet) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges()
            .filter(move |&(_, _, a)| a.contains(ann))
            .map(|(u, v, _)| (u, v))
    }

    /// A topological order of the nodes, or `None` if the graph is cyclic
    /// (Kahn's algorithm).
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let n = self.node_count();
        let mut indeg: Vec<u32> = (0..n).map(|v| self.radj[v].len() as u32).collect();
        let mut queue: VecDeque<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &(v, _) in &self.adj[u] {
                let v = v as usize;
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Is the graph acyclic?
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Find a directed cycle, as a node sequence `v0 -> v1 -> ... -> v0`
    /// (first node repeated at the end), or `None` if acyclic. Used for
    /// counterexample reporting.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        find_cycle_in(self.node_count(), |u| {
            self.adj[u].iter().map(|&(v, _)| v as usize)
        })
    }

    /// The *node bandwidth* of the graph under its natural node order
    /// (§3.2): the maximum over all `i` of the number of nodes in
    /// `{0..=i}` that have an edge to or from a node in `{i+1..}`.
    ///
    /// A graph is `k`-node-bandwidth bounded iff `self.bandwidth() <= k`.
    pub fn bandwidth(&self) -> usize {
        let n = self.node_count();
        if n == 0 {
            return 0;
        }
        // last_touch[u] = largest node index adjacent to u (in or out),
        // or u itself if isolated.
        let mut last_touch: Vec<usize> = (0..n).collect();
        for (u, v, _) in self.edges() {
            let m = u.max(v);
            last_touch[u] = last_touch[u].max(m);
            last_touch[v] = last_touch[v].max(m);
        }
        // Node u crosses cut i (between i and i+1) iff u <= i < last_touch[u].
        // Sweep cuts, adding u at cut u and removing it at cut last_touch[u].
        let mut delta = vec![0isize; n + 1];
        for u in 0..n {
            if last_touch[u] > u {
                delta[u] += 1;
                delta[last_touch[u]] -= 1;
            }
        }
        let mut cur = 0isize;
        let mut best = 0isize;
        for d in &delta[..n] {
            cur += d;
            best = best.max(cur);
        }
        best as usize
    }
}

impl PartialEq for ConstraintGraph {
    fn eq(&self, other: &Self) -> bool {
        if self.labels != other.labels || self.n_edges != other.n_edges {
            return false;
        }
        let mut a: Vec<(usize, usize, EdgeSet)> = self.edges().collect();
        let mut b: Vec<(usize, usize, EdgeSet)> = other.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }
}

impl Eq for ConstraintGraph {}

/// Find a directed cycle in the graph over nodes `0..n` whose out-neighbours
/// of `u` are `succ(u)`, as a node sequence `v0 -> v1 -> ... -> v0` (first
/// node repeated at the end), or `None` if acyclic. Parallel edges and
/// self-loops are handled, so partial graphs decoded from a descriptor
/// window work as well as a [`ConstraintGraph`].
pub fn find_cycle_in<I: Iterator<Item = usize>>(
    n: usize,
    succ: impl Fn(usize) -> I,
) -> Option<Vec<usize>> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; n];
    let mut parent = vec![usize::MAX; n];
    for start in 0..n {
        if color[start] != WHITE {
            continue;
        }
        // Iterative DFS: each stack entry holds its node's remaining
        // out-neighbours.
        let mut stack = vec![(start, succ(start))];
        color[start] = GRAY;
        while let Some((u, next)) = stack.last_mut() {
            let u = *u;
            let Some(v) = next.next() else {
                color[u] = BLACK;
                stack.pop();
                continue;
            };
            match color[v] {
                WHITE => {
                    color[v] = GRAY;
                    parent[v] = u;
                    stack.push((v, succ(v)));
                }
                GRAY => {
                    // Found a back edge u -> v: the cycle is v, the tree
                    // path v -> ... -> u, then back to v.
                    let mut path = Vec::new();
                    let mut cur = u;
                    while cur != v {
                        path.push(cur);
                        cur = parent[cur];
                    }
                    path.reverse();
                    let mut cycle = Vec::with_capacity(path.len() + 2);
                    cycle.push(v);
                    cycle.extend(path);
                    cycle.push(v);
                    return Some(cycle);
                }
                _ => {}
            }
        }
    }
    None
}

impl fmt::Display for ConstraintGraph {
    /// Lists nodes and edges in the naive descriptor style of §3.2, with
    /// 1-based node numbers as in the paper.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for v in 0..self.node_count() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}, {}", v + 1, self.labels[v])?;
            // Paper convention: when node v is introduced, list all edges
            // between v and earlier nodes (both directions).
            let mut incident: Vec<(usize, usize, EdgeSet)> = Vec::new();
            for &u in &self.radj[v] {
                let u = u as usize;
                if u < v {
                    incident.push((u, v, self.edge(u, v).expect("radj consistent")));
                }
            }
            for &(t, a) in &self.adj[v] {
                let t = t as usize;
                if t < v {
                    incident.push((v, t, a));
                }
            }
            incident.sort();
            for (u, w, a) in incident {
                write!(f, ", ({},{}), {}", u + 1, w + 1, a)?;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for ConstraintGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ConstraintGraph[{self}]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scv_types::{BlockId, ProcId, Value};

    fn st(p: u8, b: u8, v: u8) -> Op {
        Op::store(ProcId(p), BlockId(b), Value(v))
    }
    fn ld(p: u8, b: u8, v: u8) -> Op {
        Op::load(ProcId(p), BlockId(b), Value(v))
    }

    /// The graph of paper Figure 3.
    fn figure3() -> ConstraintGraph {
        let mut g = ConstraintGraph::with_nodes([
            st(1, 1, 1), // 1: ST(P1,B,1)
            ld(2, 1, 1), // 2: LD(P2,B,1)
            st(1, 1, 2), // 3: ST(P1,B,2)
            ld(2, 1, 1), // 4: LD(P2,B,1)
            ld(2, 1, 2), // 5: LD(P2,B,2)
        ]);
        g.add_edge(0, 1, EdgeSet::INH);
        g.add_edge(0, 2, EdgeSet::PO_STO);
        g.add_edge(0, 3, EdgeSet::INH);
        g.add_edge(1, 3, EdgeSet::PO);
        g.add_edge(3, 2, EdgeSet::FORCED);
        g.add_edge(2, 4, EdgeSet::INH);
        g.add_edge(3, 4, EdgeSet::PO);
        g
    }

    #[test]
    fn figure3_is_acyclic_and_3_bandwidth_bounded() {
        let g = figure3();
        assert!(g.is_acyclic());
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 7);
        // The paper notes Figure 3 is 3-node-bandwidth bounded.
        assert_eq!(g.bandwidth(), 3);
    }

    #[test]
    fn figure3_display_matches_naive_descriptor() {
        let g = figure3();
        assert_eq!(
            g.to_string(),
            "1, ST(P1,B1,1), 2, LD(P2,B1,1), (1,2), inh, 3, ST(P1,B1,2), (1,3), po-STo, \
             4, LD(P2,B1,1), (1,4), inh, (2,4), po, (4,3), forced, \
             5, LD(P2,B1,2), (3,5), inh, (4,5), po"
        );
    }

    #[test]
    fn merge_parallel_edges() {
        let mut g = ConstraintGraph::with_nodes([st(1, 1, 1), st(1, 1, 2)]);
        g.add_edge(0, 1, EdgeSet::PO);
        g.add_edge(0, 1, EdgeSet::STO);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge(0, 1), Some(EdgeSet::PO_STO));
    }

    #[test]
    fn cycle_detected_and_reported() {
        let mut g = ConstraintGraph::with_nodes([st(1, 1, 1), ld(2, 1, 1), st(2, 1, 2)]);
        g.add_edge(0, 1, EdgeSet::INH);
        g.add_edge(1, 2, EdgeSet::FORCED);
        g.add_edge(2, 0, EdgeSet::STO);
        assert!(!g.is_acyclic());
        let cycle = g.find_cycle().unwrap();
        assert!(cycle.len() >= 3);
        assert_eq!(cycle.first(), cycle.last());
        // Every consecutive pair is an edge.
        for w in cycle.windows(2) {
            assert!(g.edge(w[0], w[1]).is_some(), "cycle step {w:?} not an edge");
        }
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = ConstraintGraph::with_nodes([st(1, 1, 1)]);
        g.add_edge(0, 0, EdgeSet::FORCED);
        assert!(!g.is_acyclic());
        let cycle = g.find_cycle().unwrap();
        assert_eq!(cycle, vec![0, 0]);
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = figure3();
        let order = g.topological_order().unwrap();
        let mut pos = vec![0usize; g.node_count()];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }
        for (u, v, _) in g.edges() {
            assert!(pos[u] < pos[v], "edge ({u},{v}) violated");
        }
    }

    #[test]
    fn bandwidth_of_path_and_clique() {
        // A path 0->1->2->...->9 has bandwidth 1.
        let mut g = ConstraintGraph::with_nodes((0..10).map(|_| st(1, 1, 1)));
        for i in 0..9 {
            g.add_edge(i, i + 1, EdgeSet::PO);
        }
        assert_eq!(g.bandwidth(), 1);
        // A star from node 0 to all others keeps node 0 live through every
        // cut: bandwidth is still 1 (only node 0 crosses each cut... plus
        // nothing else), but an edge from node 1 to node 9 makes it 2.
        g.add_edge(1, 9, EdgeSet::FORCED);
        assert_eq!(g.bandwidth(), 2);
    }

    #[test]
    fn bandwidth_of_empty_and_isolated() {
        assert_eq!(ConstraintGraph::new().bandwidth(), 0);
        let g = ConstraintGraph::with_nodes([st(1, 1, 1), st(1, 1, 2)]);
        assert_eq!(g.bandwidth(), 0);
    }

    /// [`find_cycle_in`] over a plain edge list.
    fn cycle_of(n: usize, edges: &[(usize, usize)]) -> Option<Vec<usize>> {
        find_cycle_in(n, |u| {
            edges
                .iter()
                .filter(move |&&(from, _)| from == u)
                .map(|&(_, to)| to)
        })
    }

    #[test]
    fn acyclic_edge_list_has_no_cycle() {
        assert_eq!(cycle_of(3, &[(0, 1), (1, 2)]), None);
    }

    #[test]
    fn cycle_found_with_first_node_repeated() {
        let edges = [(0, 1), (1, 2), (2, 0)];
        let cycle = cycle_of(3, &edges).expect("cyclic");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() >= 3);
        for w in cycle.windows(2) {
            assert!(
                edges.contains(&(w[0], w[1])),
                "cycle step {w:?} is not an edge"
            );
        }
    }

    #[test]
    fn edge_list_self_loop_is_a_cycle() {
        assert_eq!(cycle_of(2, &[(1, 1)]), Some(vec![1, 1]));
    }
}
