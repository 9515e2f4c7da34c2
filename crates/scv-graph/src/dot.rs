//! Graphviz DOT export for constraint graphs — used when inspecting
//! counterexample witness graphs by eye.
//!
//! The renderer takes raw node labels and an edge list rather than a
//! [`crate::ConstraintGraph`], so it also draws the partial graphs that
//! arise when explaining a rejection: a descriptor prefix cut at the
//! offending symbol can mention nodes whose labels were recycled away and
//! edges that carry no annotation.

use crate::edge::EdgeSet;
use scv_types::Op;
use std::fmt::Write;

fn edge_style(ann: EdgeSet) -> &'static str {
    if ann.contains(EdgeSet::STO) {
        "bold"
    } else if ann.contains(EdgeSet::PO) {
        "solid"
    } else if ann.contains(EdgeSet::INH) {
        "dashed"
    } else {
        "dotted"
    }
}

/// Render a (possibly partially-labeled) constraint graph in Graphviz DOT
/// syntax, highlighting `cycle` (a [`crate::find_cycle_in`]-format node
/// sequence) in red. Nodes are numbered 1-based as in the paper; stores
/// are boxes, loads ellipses, and unlabeled nodes render as `?` (their
/// label symbol lies outside the decoded window). Edge styles follow
/// §3.1: program order solid, ST order bold, inheritance dashed, forced
/// dotted.
pub fn annotated_dot(
    labels: &[Option<Op>],
    edges: &[(usize, usize, EdgeSet)],
    cycle: Option<&[usize]>,
) -> String {
    let on_cycle = |u: usize, v: usize| -> bool {
        cycle.is_some_and(|c| c.windows(2).any(|w| w[0] == u && w[1] == v))
    };
    let cycle_nodes: Vec<usize> = cycle.map(|c| c.to_vec()).unwrap_or_default();
    let mut out = String::new();
    out.push_str("digraph constraint_graph {\n");
    out.push_str("  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n");
    for (v, op) in labels.iter().enumerate() {
        let (text, shape) = match op {
            Some(op) => (
                format!("{}: {}", v + 1, op),
                if op.is_store() { "box" } else { "ellipse" },
            ),
            None => (format!("{}: ?", v + 1), "box"),
        };
        let highlight = if cycle_nodes.contains(&v) {
            ", color=red, penwidth=2"
        } else {
            ""
        };
        writeln!(
            out,
            "  n{} [label=\"{text}\", shape={shape}{highlight}];",
            v + 1
        )
        .expect("write to string");
    }
    for &(u, v, ann) in edges {
        let label = if ann.is_empty() {
            String::new()
        } else {
            ann.to_string()
        };
        let highlight = if on_cycle(u, v) {
            ", color=red, penwidth=2"
        } else {
            ""
        };
        writeln!(
            out,
            "  n{} -> n{} [label=\"{label}\", style={}{highlight}];",
            u + 1,
            v + 1,
            edge_style(ann),
        )
        .expect("write to string");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstraintGraph;
    use scv_types::{BlockId, ProcId, Value};

    fn st(p: u8, b: u8, v: u8) -> Op {
        Op::store(ProcId(p), BlockId(b), Value(v))
    }
    fn ld(p: u8, b: u8, v: u8) -> Op {
        Op::load(ProcId(p), BlockId(b), Value(v))
    }

    fn sample() -> ConstraintGraph {
        let mut g = ConstraintGraph::with_nodes([st(1, 1, 1), ld(2, 1, 1)]);
        g.add_edge(0, 1, EdgeSet::INH);
        g
    }

    /// Render a fully-labeled graph.
    fn render(g: &ConstraintGraph, cycle: Option<&[usize]>) -> String {
        let labels: Vec<Option<Op>> = g.labels().iter().copied().map(Some).collect();
        let edges: Vec<_> = g.edges().collect();
        annotated_dot(&labels, &edges, cycle)
    }

    #[test]
    fn dot_contains_nodes_and_edges() {
        let dot = render(&sample(), None);
        assert!(dot.starts_with("digraph constraint_graph {"));
        assert!(dot.contains("n1 [label=\"1: ST(P1,B1,1)\", shape=box]"));
        assert!(dot.contains("n2 [label=\"2: LD(P2,B1,1)\", shape=ellipse]"));
        assert!(dot.contains("n1 -> n2 [label=\"inh\", style=dashed]"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn edge_styles_reflect_annotations() {
        let mut g = sample();
        g.add_edge(1, 0, EdgeSet::FORCED); // creates a cycle, but dot doesn't care
        let dot = render(&g, None);
        assert!(dot.contains("style=dotted"));
    }

    #[test]
    fn cycle_overlay_marks_edges_red() {
        let mut g = sample();
        g.add_edge(1, 0, EdgeSet::FORCED);
        let cycle = g.find_cycle().expect("cyclic");
        let dot = render(&g, Some(&cycle));
        assert!(dot.contains("color=red"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_tolerates_unlabeled_nodes_and_empty_annotations() {
        let labels = vec![Some(st(1, 1, 1)), None];
        let edges = vec![(0, 1, EdgeSet::EMPTY)];
        let dot = annotated_dot(&labels, &edges, None);
        assert!(dot.contains("n1 [label=\"1: ST(P1,B1,1)\", shape=box]"));
        assert!(dot.contains("n2 [label=\"2: ?\", shape=box]"));
        assert!(dot.contains("n1 -> n2 [label=\"\", style=dotted]"));
        assert!(!dot.contains("color=red"));
    }

    #[test]
    fn cycle_edges_and_nodes_render_red() {
        let labels = vec![Some(st(1, 1, 1)), Some(ld(2, 1, 1)), Some(st(1, 1, 2))];
        let edges = vec![
            (0, 1, EdgeSet::PO),
            (1, 2, EdgeSet::INH),
            (2, 1, EdgeSet::FORCED),
        ];
        let cycle =
            crate::find_cycle_in(3, |u| edges.iter().filter(move |e| e.0 == u).map(|e| e.1))
                .expect("cyclic");
        let dot = annotated_dot(&labels, &edges, Some(&cycle));
        // The 1->2 edge is off-cycle; both cycle edges are red.
        assert!(dot.contains("n1 -> n2 [label=\"po\", style=solid];"));
        assert!(dot.contains("n2 -> n3 [label=\"inh\", style=dashed, color=red, penwidth=2];"));
        assert!(dot.contains("n3 -> n2 [label=\"forced\", style=dotted, color=red, penwidth=2];"));
        assert!(
            dot.contains("n2 [label=\"2: LD(P2,B1,1)\", shape=ellipse, color=red, penwidth=2];")
        );
    }
}
