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
//! The greedy order comes from a bucket queue: bucket `d` lists the nodes
//! that had `d` uncovered pairs when they were pushed. Degrees only fall,
//! so while `d` is the largest non-empty bucket nothing is pushed into it;
//! it is sorted once, ascending, when it is reached and walked front to
//! back, so the lowest index goes first, and an entry whose node has since
//! been chosen or lost a pair is stale and skipped. A node enters bucket
//! `d` at most once, so the buckets are segments of one flat array, bucket
//! `d` sized for the nodes whose degree starts at `d` or above: the queue
//! takes as many slots as the pair graph has partner entries, whatever
//! order the degrees fall in. Every buffer lives in [`PairCover`], part of
//! the [`crate::HopFill`] the caller keeps across fills.

use crate::{Graph, NodeIdx};

/// The buffers of [`Graph::fill_hops`]' vertex cover, kept (in the
/// caller's [`crate::HopFill`]) so that a fill per tick allocates only to
/// grow them.
#[derive(Debug, Default)]
pub(crate) struct PairCover {
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
    /// The bucket queue, flat; see the module docs. Bucket `d` is
    /// `slots[at[d]..at[d] + len[d]]`.
    slots: Vec<NodeIdx>,
    at: Vec<u32>,
    len: Vec<u32>,
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
        self.roots.reserve(n);
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
        // Sized by the pairs, not the open ones: a call with no more pairs
        // than an earlier one grows neither `ends` nor `slots`.
        for buf in [&mut self.ends, &mut self.slots] {
            buf.clear();
            buf.reserve(2 * pairs.len());
        }
        self.ends.resize(listed, 0);
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

        // Size the buckets: `len[d]` counts the nodes of degree `d`, then
        // (summed from the top) those of degree `d` or above; bucket `d`
        // starts where the buckets below it end. Sized by `n`, as a degree
        // is below it, so no tick's deepest degree grows them.
        let deepest = self.degree.iter().copied().max().unwrap_or(0) as usize;
        refill(&mut self.len, n + 1, 0);
        for &d in &self.degree {
            self.len[d as usize] += 1;
        }
        for d in (1..deepest).rev() {
            self.len[d] += self.len[d + 1];
        }
        refill(&mut self.at, n + 1, 0);
        for d in 1..deepest {
            self.at[d + 1] = self.at[d] + self.len[d];
        }
        refill(&mut self.slots, kept, 0);
        refill(&mut self.len, n + 1, 0);
        let PairCover {
            degree,
            start,
            ends,
            slots,
            at,
            len,
            roots,
            ..
        } = self;
        // Append `v` to bucket `d`.
        let push = |slots: &mut [NodeIdx], len: &mut [u32], v: NodeIdx, d: u32| {
            let d = d as usize;
            slots[(at[d] + len[d]) as usize] = v;
            len[d] += 1;
        };
        for (v, &d) in (0..).zip(degree.iter()) {
            if d > 0 {
                push(slots, len, v, d);
            }
        }
        for d in (1..=deepest).rev() {
            let (first, end) = (at[d] as usize, (at[d] + len[d]) as usize);
            slots[first..end].sort_unstable();
            for i in first..end {
                let v = slots[i];
                // Chosen (degree 0) or lost a pair since it was pushed.
                if degree[v as usize] != d as u32 {
                    continue;
                }
                degree[v as usize] = 0;
                roots.push(v);
                let partners = start[v as usize] as usize..start[v as usize + 1] as usize;
                for &u in &ends[partners] {
                    let left = &mut degree[u as usize];
                    if *left > 0 {
                        // `u` is not chosen, so its pair with `v` was open.
                        *left -= 1;
                        if *left > 0 {
                            push(slots, len, u, *left);
                        }
                    }
                }
            }
        }
        roots.sort_unstable();
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
                c.slots.capacity(),
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
