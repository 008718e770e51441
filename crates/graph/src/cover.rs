//! Which roots [`Graph::fill_hops`] searches: a vertex cover of the open
//! pairs.
//!
//! A pair is read from whichever end is held, so any set of roots that
//! touches every open pair is enough, and the smaller the set, the fewer
//! BFS rows a fill computes. The cover is the greedy one: take the node
//! with the most pairs still uncovered, the lower index on a tie, until
//! none is left. On a tick of E27's six banks (n = 1 024) the legs form
//! about 4 800 distinct pairs over 1 019 nodes; the cover holds about 650
//! roots a tick where one root per pair, filled bank by bank, held 918.
//!
//! The pair graph is a CSR built in two passes over the pairs, its
//! repeats dropped per node with a stamp rather than by sorting the list.
//! The greedy order comes from a bucket queue: `buckets[d]` lists the
//! nodes that had `d` uncovered pairs when they were pushed. Degrees only
//! fall, so while `d` is the largest non-empty bucket nothing is pushed
//! into it; it is sorted once, descending, when it is reached and popped
//! from its end, so the lowest index goes first, and an entry whose node
//! has since been chosen or lost a pair is stale and skipped. Every buffer
//! lives in [`PairCover`], which the caller keeps across fills.

use crate::{Graph, NodeIdx};

/// The buffers of [`Graph::fill_hops`]' vertex cover, kept by the caller
/// so that a fill per tick allocates only to grow them.
#[derive(Debug, Default)]
pub struct PairCover {
    /// Whether each node was held when the cover began. Read once: a `hops`
    /// or a fill racing this one may publish more, and both passes over
    /// the pairs must see the same open ones.
    held: Vec<bool>,
    /// Where each node's partners sit in `ends`: `start[v]..start[v + 1]`.
    start: Vec<u32>,
    /// Every open pair's other end, from each end, each partner once.
    ends: Vec<NodeIdx>,
    /// Each node's pairs not yet covered (0 once chosen).
    degree: Vec<u32>,
    /// Per node, `v + 1` once `v`'s partners have listed it.
    seen: Vec<u32>,
    /// The bucket queue; see the module docs.
    buckets: Vec<Vec<NodeIdx>>,
    /// The cover, ascending.
    pub(crate) roots: Vec<NodeIdx>,
}

/// `buf` as `len` copies of `value`, in the buffer it already has.
fn refill<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

/// Whether `(a, b)` needs a search: distinct ends, neither `held`.
fn open(held: &[bool], (a, b): (NodeIdx, NodeIdx)) -> bool {
    a != b && !held[a as usize] && !held[b as usize]
}

impl PairCover {
    /// Cover `pairs` on `g`: of the open ones, leave in `roots` the greedy
    /// max-degree vertex cover, ascending.
    pub(crate) fn cover(&mut self, g: &Graph, pairs: &[(NodeIdx, NodeIdx)]) {
        let n = g.node_count();
        self.roots.clear();
        self.held.clear();
        self.held.extend((0..n as NodeIdx).map(|v| g.holds(v)));
        // Count every open pair at both ends, prefix-sum, scatter (moving
        // each start to the next node's), shift back.
        refill(&mut self.degree, n, 0);
        let mut listed = 0;
        for &(a, b) in pairs {
            if open(&self.held, (a, b)) {
                self.degree[a as usize] += 1;
                self.degree[b as usize] += 1;
                listed += 2;
            }
        }
        if listed == 0 {
            return;
        }
        refill(&mut self.start, n + 1, 0);
        for v in 0..n {
            self.start[v + 1] = self.start[v] + self.degree[v];
        }
        refill(&mut self.ends, listed, 0);
        for &(a, b) in pairs {
            if open(&self.held, (a, b)) {
                for (from, to) in [(a, b), (b, a)] {
                    let at = &mut self.start[from as usize];
                    self.ends[*at as usize] = to;
                    *at += 1;
                }
            }
        }
        self.start.copy_within(0..n, 1);
        self.start[0] = 0;
        // Drop repeated partners, compacting the rows forward in place.
        refill(&mut self.seen, n, 0);
        let mut kept = 0;
        for v in 0..n {
            let row = self.start[v] as usize..self.start[v + 1] as usize;
            self.start[v] = kept as u32;
            for i in row {
                let u = self.ends[i];
                if self.seen[u as usize] != v as u32 + 1 {
                    self.seen[u as usize] = v as u32 + 1;
                    self.ends[kept] = u;
                    kept += 1;
                }
            }
            self.degree[v] = kept as u32 - self.start[v];
        }
        self.start[n] = kept as u32;

        let deepest = self.degree.iter().copied().max().unwrap_or(0) as usize;
        if self.buckets.len() <= deepest {
            self.buckets.resize_with(deepest + 1, Vec::new);
        }
        for bucket in &mut self.buckets[..=deepest] {
            bucket.clear();
        }
        for (v, &d) in (0..).zip(&self.degree) {
            if d > 0 {
                self.buckets[d as usize].push(v);
            }
        }
        for d in (1..=deepest).rev() {
            let mut bucket = std::mem::take(&mut self.buckets[d]);
            bucket.sort_unstable_by(|x, y| y.cmp(x));
            while let Some(v) = bucket.pop() {
                // Chosen (degree 0) or lost a pair since it was pushed.
                if self.degree[v as usize] != d as u32 {
                    continue;
                }
                self.degree[v as usize] = 0;
                self.roots.push(v);
                let partners = self.start[v as usize] as usize..self.start[v as usize + 1] as usize;
                for &u in &self.ends[partners] {
                    let left = &mut self.degree[u as usize];
                    if *left > 0 {
                        // `u` is not chosen, so its pair with `v` was open.
                        *left -= 1;
                        if *left > 0 {
                            self.buckets[*left as usize].push(u);
                        }
                    }
                }
            }
            self.buckets[d] = bucket;
        }
        self.roots.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The greedy rule on a small pair list: node 0 has three open pairs
    /// and goes first; `(1, 2)` is left, and of its two ends, equal at one
    /// pair each, the lower goes. Self-pairs, repeats, the reverse of a
    /// pair and pairs at a held end are not open.
    #[test]
    fn greedy_takes_the_most_pairs_first_and_the_lower_index_on_a_tie() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        g.hops(5, 0);
        let mut cover = PairCover::default();
        let pairs = [
            (2, 1),
            (0, 1),
            (3, 0),
            (0, 2),
            (1, 2),
            (4, 4),
            (4, 5),
            (0, 3),
        ];
        cover.cover(&g, &pairs);
        assert_eq!(cover.roots, [0, 1]);
        // Node 0's partners once each, node 1's, node 2's.
        assert_eq!(&cover.start[..4], [0, 3, 5, 7]);
    }

    /// A path's pairs: the greedy cover takes the inner nodes with two
    /// pairs each, lowest first, so 1 covers `(0, 1)` and `(1, 2)`, then
    /// 3, then nothing is left but `(4, 5)`, whose lower end goes.
    /// Covering again in the same buffers gives the same cover without
    /// growing them.
    #[test]
    fn a_path_of_pairs_and_a_second_cover_in_the_same_buffers() {
        let g = Graph::with_nodes(6);
        let pairs: Vec<(NodeIdx, NodeIdx)> = (0..5).map(|v| (v, v + 1)).collect();
        let mut cover = PairCover::default();
        cover.cover(&g, &pairs);
        assert_eq!(cover.roots, [1, 3, 4]);
        let capacity = |c: &PairCover| {
            (
                c.start.capacity(),
                c.ends.capacity(),
                c.buckets.iter().map(Vec::capacity).sum::<usize>(),
                c.roots.capacity(),
            )
        };
        let grown = capacity(&cover);
        cover.cover(&g, &pairs);
        assert_eq!(cover.roots, [1, 3, 4]);
        assert_eq!(capacity(&cover), grown);
        cover.cover(&g, &[]);
        assert!(cover.roots.is_empty());
    }
}
