//! The multi-dimensional loop dependence graph (MLDG) of Definition 2.2.
//!
//! An MLDG `G = (V, E, δ_L, D_L)` models a nested loop whose body is a
//! sequence of innermost DOALL loops:
//!
//! * each node represents one innermost loop nest,
//! * there is at most one edge `a -> b` whenever loop `b` consumes one or
//!   more values produced by loop `a`,
//! * `D_L(a, b)` is the *set* of loop dependence vectors between `a` and `b`
//!   (Definition 2.1), and
//! * `δ_L(e)` is the lexicographically minimal vector of that set.
//!
//! An edge is a *parallelism hard edge* ("hard edge", Section 2.2) when two
//! of its dependence vectors agree on the first coordinate but differ on the
//! second; hard edges constrain the fully-parallel fusion of cyclic graphs
//! (Algorithm 4).

use std::collections::HashMap;
use std::fmt;

use crate::vec2::IVec2;

/// Identifier of a node (an innermost loop) within one [`Mldg`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Identifier of an edge within one [`Mldg`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The node's position in [`Mldg::node_ids`] iteration order.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The edge's position in [`Mldg::edge_ids`] iteration order.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A set of loop dependence vectors `D_L(a, b)`, kept sorted in ascending
/// lexicographic order with duplicates removed.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct DepSet {
    vecs: Vec<IVec2>,
}

impl DepSet {
    /// An empty set.
    pub fn new() -> Self {
        DepSet { vecs: Vec::new() }
    }

    /// Builds a set from arbitrary vectors (sorted + deduplicated).
    pub fn from_vecs<I: IntoIterator<Item = IVec2>>(iter: I) -> Self {
        let mut s = DepSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }

    /// Inserts a vector, keeping the set sorted; returns `true` if it was
    /// not already present.
    pub fn insert(&mut self, v: IVec2) -> bool {
        match self.vecs.binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.vecs.insert(pos, v);
                true
            }
        }
    }

    /// The lexicographically minimal vector `δ_L` of the set; panics when
    /// the set is empty (an MLDG edge always carries at least one vector).
    #[inline]
    pub fn min_vector(&self) -> IVec2 {
        self.vecs[0]
    }

    /// The lexicographically maximal vector of the set.
    // A `DepSet` is non-empty by construction, so `last()` always succeeds.
    #[allow(clippy::expect_used)]
    #[inline]
    pub fn max_vector(&self) -> IVec2 {
        *self.vecs.last().expect("DepSet must be non-empty")
    }

    /// `true` when two vectors agree on the first coordinate but differ on
    /// the second — the hard-edge criterion of Section 2.2.
    pub fn is_hard(&self) -> bool {
        self.vecs
            .windows(2)
            .any(|w| w[0].x == w[1].x && w[0].y != w[1].y)
    }

    /// Number of vectors in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.vecs.len()
    }

    /// `true` when the set holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vecs.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, v: IVec2) -> bool {
        self.vecs.binary_search(&v).is_ok()
    }

    /// Iterates the vectors in ascending lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = IVec2> + '_ {
        self.vecs.iter().copied()
    }

    /// Returns a new set with every vector shifted by `offset` — the effect
    /// of retiming on `D_L`: `D_Lr(u,v) = { d + r(u) - r(v) : d ∈ D_L }`.
    pub fn shifted(&self, offset: IVec2) -> DepSet {
        // Adding a constant preserves lexicographic order, so the vector
        // stays sorted and deduplicated.
        DepSet {
            vecs: self.vecs.iter().map(|&v| v + offset).collect(),
        }
    }

    /// Borrow the underlying sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[IVec2] {
        &self.vecs
    }
}

impl fmt::Debug for DepSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.vecs.iter()).finish()
    }
}

impl FromIterator<IVec2> for DepSet {
    fn from_iter<I: IntoIterator<Item = IVec2>>(iter: I) -> Self {
        DepSet::from_vecs(iter)
    }
}

/// Per-node payload.
#[derive(Clone, Debug)]
pub struct NodeData {
    /// Human-readable loop label (`"A"`, `"B"`, ... in the paper's figures).
    pub label: String,
}

/// Per-edge payload: endpoints plus the dependence-vector set.
#[derive(Clone, Debug)]
pub struct EdgeData {
    /// Producer loop.
    pub src: NodeId,
    /// Consumer loop.
    pub dst: NodeId,
    /// All loop dependence vectors between the two loops.
    pub deps: DepSet,
}

/// A two-dimensional MLDG (the paper's "2LDG").
///
/// The graph is stored as index-based adjacency lists; node and edge ids are
/// dense and stable, which keeps the Bellman–Ford-based algorithms free of
/// hashing in their hot loops.
///
/// ```
/// use mdf_graph::{Mldg, v2};
///
/// let mut g = Mldg::new();
/// let a = g.add_node("A");
/// let b = g.add_node("B");
/// // Two dependence vectors between the same loops merge into one edge.
/// let e = g.add_deps(a, b, [v2(0, -2), v2(0, 1)]);
/// assert_eq!(g.delta(e), v2(0, -2)); // the lexicographic minimum
/// assert!(g.is_hard(e));             // same x, different y
/// ```
#[derive(Clone, Default)]
pub struct Mldg {
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
    by_endpoints: HashMap<(NodeId, NodeId), EdgeId>,
    by_label: HashMap<String, NodeId>,
}

impl Mldg {
    /// An empty graph.
    pub fn new() -> Self {
        Mldg::default()
    }

    /// Adds a node with the given label and returns its id.
    ///
    /// # Panics
    /// Panics if the label is already in use: the textual formats and the
    /// paper's figures identify loops by label, so duplicates would be
    /// ambiguous.
    pub fn add_node(&mut self, label: impl Into<String>) -> NodeId {
        let label = label.into();
        let id = NodeId(self.nodes.len() as u32);
        assert!(
            self.by_label.insert(label.clone(), id).is_none(),
            "duplicate node label {label:?}"
        );
        self.nodes.push(NodeData { label });
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Records one loop dependence vector from `src` to `dst`, creating the
    /// edge if needed and merging into its `D_L` set otherwise. Returns the
    /// edge id.
    pub fn add_dep(&mut self, src: NodeId, dst: NodeId, d: impl Into<IVec2>) -> EdgeId {
        let d = d.into();
        match self.by_endpoints.get(&(src, dst)) {
            Some(&e) => {
                self.edges[e.index()].deps.insert(d);
                e
            }
            None => {
                let e = EdgeId(self.edges.len() as u32);
                self.edges.push(EdgeData {
                    src,
                    dst,
                    deps: DepSet::from_vecs([d]),
                });
                self.out_edges[src.index()].push(e);
                self.in_edges[dst.index()].push(e);
                self.by_endpoints.insert((src, dst), e);
                e
            }
        }
    }

    /// Records several dependence vectors at once.
    // Documented precondition: at least one vector must be supplied.
    #[allow(clippy::expect_used)]
    pub fn add_deps<I>(&mut self, src: NodeId, dst: NodeId, ds: I) -> EdgeId
    where
        I: IntoIterator,
        I::Item: Into<IVec2>,
    {
        let mut last = None;
        for d in ds {
            last = Some(self.add_dep(src, dst, d));
        }
        last.expect("add_deps requires at least one vector")
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + 'static {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates edge ids in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + 'static {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Node payload.
    #[inline]
    pub fn node(&self, n: NodeId) -> &NodeData {
        &self.nodes[n.index()]
    }

    /// Edge payload.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &EdgeData {
        &self.edges[e.index()]
    }

    /// The node's label.
    #[inline]
    pub fn label(&self, n: NodeId) -> &str {
        &self.nodes[n.index()].label
    }

    /// Looks a node up by label.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.by_label.get(label).copied()
    }

    /// The edge between two nodes, if present.
    pub fn edge_between(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.by_endpoints.get(&(src, dst)).copied()
    }

    /// `δ_L(e)`: the minimal loop dependence vector of the edge.
    #[inline]
    pub fn delta(&self, e: EdgeId) -> IVec2 {
        self.edges[e.index()].deps.min_vector()
    }

    /// The full dependence set `D_L` of the edge.
    #[inline]
    pub fn deps(&self, e: EdgeId) -> &DepSet {
        &self.edges[e.index()].deps
    }

    /// `true` iff the edge is a parallelism hard edge.
    #[inline]
    pub fn is_hard(&self, e: EdgeId) -> bool {
        self.edges[e.index()].deps.is_hard()
    }

    /// Outgoing edge ids of a node.
    #[inline]
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.out_edges[n.index()]
    }

    /// Incoming edge ids of a node.
    #[inline]
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.in_edges[n.index()]
    }

    /// `true` when the graph has a `u -> u` self-dependence edge anywhere.
    pub fn has_self_loops(&self) -> bool {
        self.edges.iter().any(|e| e.src == e.dst)
    }

    /// Total number of dependence vectors across all edges.
    pub fn total_dep_vectors(&self) -> usize {
        self.edges.iter().map(|e| e.deps.len()).sum()
    }

    /// Returns a copy of the graph whose dependence sets have been rewritten
    /// by `f(edge_id, old_set) -> new_set`. Structure (nodes, edge
    /// endpoints) is preserved. This is the primitive on which
    /// `mdf-retime::apply` builds.
    pub fn map_deps(&self, mut f: impl FnMut(EdgeId, &DepSet) -> DepSet) -> Mldg {
        let mut g = self.clone();
        for (i, e) in g.edges.iter_mut().enumerate() {
            e.deps = f(EdgeId(i as u32), &self.edges[i].deps);
            assert!(!e.deps.is_empty(), "map_deps produced an empty DepSet");
        }
        g
    }

    /// Sum of `δ_L` over an edge-id path or cycle (the paper's `δ_L(c)`).
    pub fn delta_sum(&self, path: &[EdgeId]) -> IVec2 {
        path.iter().fold(IVec2::ZERO, |acc, &e| acc + self.delta(e))
    }
}

impl fmt::Debug for Mldg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mldg {{")?;
        for n in self.node_ids() {
            writeln!(f, "  node {} = {:?}", n.0, self.label(n))?;
        }
        for e in self.edge_ids() {
            let d = self.edge(e);
            writeln!(
                f,
                "  edge {} -> {} : {:?}{}",
                self.label(d.src),
                self.label(d.dst),
                d.deps,
                if d.deps.is_hard() { " (hard)" } else { "" }
            )?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec2::v2;

    /// Builds the 2LDG of the paper's Figure 2.
    pub(crate) fn figure2() -> Mldg {
        let mut g = Mldg::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let c = g.add_node("C");
        let d = g.add_node("D");
        g.add_deps(a, b, [v2(1, 1), v2(2, 1)]);
        g.add_deps(b, c, [v2(0, -2), v2(0, 1)]);
        g.add_deps(c, d, [v2(0, -1)]);
        g.add_deps(a, c, [v2(0, 1)]);
        g.add_deps(d, a, [v2(2, 1)]);
        g.add_deps(c, c, [v2(1, 0)]);
        g
    }

    #[test]
    fn figure2_structure_matches_paper() {
        let g = figure2();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 6);
        let (a, b, c, d) = (
            g.node_by_label("A").unwrap(),
            g.node_by_label("B").unwrap(),
            g.node_by_label("C").unwrap(),
            g.node_by_label("D").unwrap(),
        );
        // δ_L values quoted in Section 2.2.
        assert_eq!(g.delta(g.edge_between(a, b).unwrap()), v2(1, 1));
        assert_eq!(g.delta(g.edge_between(b, c).unwrap()), v2(0, -2));
        assert_eq!(g.delta(g.edge_between(c, d).unwrap()), v2(0, -1));
        assert_eq!(g.delta(g.edge_between(a, c).unwrap()), v2(0, 1));
        assert_eq!(g.delta(g.edge_between(d, a).unwrap()), v2(2, 1));
        assert_eq!(g.delta(g.edge_between(c, c).unwrap()), v2(1, 0));
    }

    #[test]
    fn hard_edge_detection_matches_paper() {
        let g = figure2();
        let (a, b, c) = (
            g.node_by_label("A").unwrap(),
            g.node_by_label("B").unwrap(),
            g.node_by_label("C").unwrap(),
        );
        // B -> C is hard: (0,-2) and (0,1) agree in x, differ in y.
        assert!(g.is_hard(g.edge_between(b, c).unwrap()));
        // A -> B is not: (1,1) and (2,1) have different first coordinates.
        assert!(!g.is_hard(g.edge_between(a, b).unwrap()));
    }

    #[test]
    fn dep_set_sorted_and_deduped() {
        let mut s = DepSet::new();
        assert!(s.insert(v2(0, 1)));
        assert!(s.insert(v2(0, -2)));
        assert!(!s.insert(v2(0, 1)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.min_vector(), v2(0, -2));
        assert_eq!(s.max_vector(), v2(0, 1));
        assert!(s.contains(v2(0, -2)));
        assert!(!s.contains(v2(1, 0)));
    }

    #[test]
    fn dep_set_shift_preserves_order() {
        let s = DepSet::from_vecs([v2(0, -2), v2(0, 1), v2(3, 5)]);
        let t = s.shifted(v2(1, -1));
        assert_eq!(
            t.as_slice(),
            &[v2(1, -3), v2(1, 0), v2(4, 4)],
            "shift must keep ascending order"
        );
    }

    #[test]
    fn add_dep_merges_parallel_edges() {
        let mut g = Mldg::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let e1 = g.add_dep(a, b, (1, 1));
        let e2 = g.add_dep(a, b, (2, 1));
        assert_eq!(e1, e2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.deps(e1).len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate node label")]
    fn duplicate_labels_rejected() {
        let mut g = Mldg::new();
        g.add_node("A");
        g.add_node("A");
    }

    #[test]
    fn cycle_delta_sum() {
        let g = figure2();
        let (a, b, c, d) = (
            g.node_by_label("A").unwrap(),
            g.node_by_label("B").unwrap(),
            g.node_by_label("C").unwrap(),
            g.node_by_label("D").unwrap(),
        );
        // c1 = A -> B -> C -> D -> A has δ_L(c1) = (3, -1)  (Section 2.2).
        let c1 = [
            g.edge_between(a, b).unwrap(),
            g.edge_between(b, c).unwrap(),
            g.edge_between(c, d).unwrap(),
            g.edge_between(d, a).unwrap(),
        ];
        assert_eq!(g.delta_sum(&c1), v2(3, -1));
        // c2 = A -> C -> D -> A has δ_L(c2) = (2, 1).
        let c2 = [
            g.edge_between(a, c).unwrap(),
            g.edge_between(c, d).unwrap(),
            g.edge_between(d, a).unwrap(),
        ];
        assert_eq!(g.delta_sum(&c2), v2(2, 1));
    }
}
