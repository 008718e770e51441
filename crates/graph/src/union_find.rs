//! Disjoint-set union (union-find) with path halving and union by size.
//! Kept although the simulator never calls it: `prop_graph`'s
//! `union_find_matches_components` is the only independent reference for
//! [`crate::traversal::connected_components`].

/// Disjoint sets over `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    n_sets: usize,
}

impl UnionFind {
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            n_sets: n,
        }
    }

    pub fn len(&self) -> usize {
        self.parent.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    pub fn set_count(&self) -> usize {
        self.n_sets
    }

    /// Representative of `x`'s set, with path halving.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        self.n_sets -= 1;
        true
    }

    pub fn same_set(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::connected_components;
    use crate::Graph;

    #[test]
    fn singleton_sets() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.set_count(), 5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_and_find() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0));
        assert!(uf.union(0, 2));
        assert_eq!(uf.set_count(), 3);
        assert!(uf.same_set(1, 3));
        assert!(!uf.same_set(1, 4));
        let root = uf.find(3) as usize;
        assert_eq!(uf.size[root], 4);
    }

    #[test]
    fn agrees_with_bfs_components() {
        let edges = [(0u32, 1u32), (1, 2), (4, 5), (6, 7), (7, 4)];
        let g = Graph::from_edges(9, &edges);
        let mut uf = UnionFind::new(9);
        for (u, v) in edges {
            uf.union(u, v);
        }
        let (comp, count) = connected_components(&g);
        assert_eq!(uf.set_count(), count);
        for a in 0..9u32 {
            for b in 0..9u32 {
                assert_eq!(
                    uf.same_set(a, b),
                    comp[a as usize] == comp[b as usize],
                    "pair ({a},{b})"
                );
            }
        }
    }
}
