//! Link dynamics: diffing consecutive topology snapshots.
//!
//! The frequency of *level-0 link state change events* is the `f_0` of
//! eq. (4); the paper shows it is `Θ(1)` per node per second under random
//! waypoint mobility at fixed density. [`LinkDiff`] extracts the up/down
//! event stream.

use crate::{Graph, NodeIdx};

/// The set of links created and broken between two topology snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkDiff {
    /// Edges present in `new` but not `old`, as `(u, v)` with `u < v`.
    pub up: Vec<(NodeIdx, NodeIdx)>,
    /// Edges present in `old` but not `new`, as `(u, v)` with `u < v`.
    pub down: Vec<(NodeIdx, NodeIdx)>,
}

impl LinkDiff {
    /// Compute the diff between two graphs over the same node set.
    ///
    /// Linear in total adjacency size thanks to sorted neighbor lists.
    ///
    /// # Panics
    /// If node counts differ.
    pub fn between(old: &Graph, new: &Graph) -> LinkDiff {
        let mut diff = LinkDiff::default();
        for_each_change(old, new, |edge, up| {
            if up {
                diff.up.push(edge);
            } else {
                diff.down.push(edge);
            }
        });
        diff
    }

    /// `between(old, new).event_count()` without building the diff: the
    /// same merge, counting instead of collecting.
    ///
    /// # Panics
    /// If node counts differ.
    pub fn count_between(old: &Graph, new: &Graph) -> usize {
        let mut events = 0;
        for_each_change(old, new, |_, _| events += 1);
        events
    }

    /// Total number of link state change events (ups + downs).
    pub fn event_count(&self) -> usize {
        self.up.len() + self.down.len()
    }

    pub fn is_empty(&self) -> bool {
        self.up.is_empty() && self.down.is_empty()
    }
}

/// Call `on_change((u, v), up)` for every edge (`u < v`) present in
/// exactly one of `old` / `new` — `up` iff it is in `new` — in a linear
/// merge of the sorted neighbor lists.
fn for_each_change(old: &Graph, new: &Graph, mut on_change: impl FnMut((NodeIdx, NodeIdx), bool)) {
    assert_eq!(
        old.node_count(),
        new.node_count(),
        "snapshots must cover the same node set"
    );
    for u in 0..old.node_count() as NodeIdx {
        let a = old.neighbors(u);
        let b = new.neighbors(u);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() || j < b.len() {
            match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                }
                (Some(&x), y) if y.is_none_or(|&y| x < y) => {
                    if u < x {
                        on_change((u, x), false);
                    }
                    i += 1;
                }
                (_, Some(&y)) => {
                    if u < y {
                        on_change((u, y), true);
                    }
                    j += 1;
                }
                _ => unreachable!(),
            }
        }
    }
}

/// Running event-rate counter: accumulates link events and exposures to
/// report events per node per second (the `f_0` of eq. (4)).
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkEventRate {
    pub events: u64,
    pub node_seconds: f64,
}

impl LinkEventRate {
    pub fn record(&mut self, diff: &LinkDiff, n_nodes: usize, dt: f64) {
        self.record_count(diff.event_count(), n_nodes, dt);
    }

    /// [`LinkEventRate::record`] of a diff known only by its
    /// [`LinkDiff::event_count`] (see [`LinkDiff::count_between`]).
    pub fn record_count(&mut self, events: usize, n_nodes: usize, dt: f64) {
        self.events += events as u64;
        self.node_seconds += n_nodes as f64 * dt;
    }

    /// Events per node per second.
    pub fn per_node_per_second(&self) -> f64 {
        if self.node_seconds == 0.0 {
            0.0
        } else {
            self.events as f64 / self.node_seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_identical_is_empty() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let d = LinkDiff::between(&g, &g.clone());
        assert!(d.is_empty());
        assert_eq!(d.event_count(), 0);
    }

    #[test]
    fn diff_up_and_down() {
        let old = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let new = Graph::from_edges(5, &[(0, 1), (2, 3), (3, 4), (0, 4)]);
        let d = LinkDiff::between(&old, &new);
        assert_eq!(d.down, vec![(1, 2)]);
        let mut up = d.up.clone();
        up.sort_unstable();
        assert_eq!(up, vec![(0, 4), (2, 3)]);
        assert_eq!(d.event_count(), 3);
    }

    #[test]
    fn diff_is_antisymmetric() {
        let a = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let b = Graph::from_edges(4, &[(1, 2), (2, 3)]);
        let ab = LinkDiff::between(&a, &b);
        let ba = LinkDiff::between(&b, &a);
        assert_eq!(ab.up, ba.down);
        assert_eq!(ab.down, ba.up);
    }

    #[test]
    #[should_panic]
    fn diff_node_count_mismatch_panics() {
        LinkDiff::between(&Graph::with_nodes(3), &Graph::with_nodes(4));
    }

    #[test]
    fn event_rate_normalization() {
        let mut r = LinkEventRate::default();
        let old = Graph::from_edges(10, &[(0, 1)]);
        let new = Graph::from_edges(10, &[(1, 2)]);
        let d = LinkDiff::between(&old, &new); // 2 events
        r.record(&d, 10, 0.5); // 5 node-seconds
        assert!((r.per_node_per_second() - 0.4).abs() < 1e-12);
    }
}
