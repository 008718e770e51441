//! The paper's closed-form machinery (eqs. 1–24) as code.
//!
//! These functions evaluate the paper's *predicted* quantities for a given
//! parameterization so that experiment binaries can print
//! predicted-vs-measured columns. Θ-constants are taken as 1 unless stated;
//! what matters in the comparisons is shape.

/// Hierarchy parameterization: constant arity `alpha` across `levels`
/// cluster levels (the paper's `α_k = Θ(1)` regime).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformHierarchy {
    /// Arity `α` (cluster count shrink factor per level).
    pub alpha: f64,
    /// Number of cluster levels `L`.
    pub levels: usize,
}

impl UniformHierarchy {
    /// The natural parameterization for `n` nodes: `L = ⌈log_α n⌉` levels.
    pub fn for_network(n: usize, alpha: f64) -> Self {
        assert!(alpha > 1.0, "arity must exceed 1");
        assert!(n >= 1);
        let levels = ((n as f64).ln() / alpha.ln()).ceil().max(1.0) as usize;
        UniformHierarchy { alpha, levels }
    }

    /// `c_k = Π_{j≤k} α_j = α^k` (eq. 2a).
    pub fn aggregation(&self, k: usize) -> f64 {
        self.alpha.powi(k as i32)
    }

    /// `h_k = Θ(√c_k)` (eq. 3): mean hop count across a level-k cluster.
    pub fn hop_count(&self, k: usize) -> f64 {
        self.aggregation(k).sqrt()
    }

    /// `f_k = Θ(1/h_k)` (eqs. 8–9): level-k migration frequency per node,
    /// normalized so `f_0 = f0`.
    pub fn migration_frequency(&self, k: usize, f0: f64) -> f64 {
        f0 / self.hop_count(k)
    }

    /// `φ_k = Θ(f_k · h_k · log n)` (eq. 6a): with (9), every level costs
    /// `Θ(f0 · log n)`.
    pub fn phi_k(&self, k: usize, f0: f64, n: usize) -> f64 {
        self.migration_frequency(k, f0) * self.hop_count(k) * (n as f64).ln()
    }

    /// `φ = Σ_k φ_k` (eq. 6c) — `Θ(log² n)` when (9) holds.
    pub fn phi_total(&self, f0: f64, n: usize) -> f64 {
        (1..=self.levels).map(|k| self.phi_k(k, f0, n)).sum()
    }

    /// `g'_k = Θ(1/h_k)` (eq. 14): per-cluster-link state-change frequency.
    pub fn link_change_frequency(&self, k: usize, g0: f64) -> f64 {
        g0 / self.hop_count(k)
    }

    /// `γ_k = Θ(g_k · c_k · h_k · log n)` (eq. 10a) with
    /// `g_k = Θ(g'_k / c_k)` (eq. 13b/14): every level costs
    /// `Θ(g0 · log n)`.
    pub fn gamma_k(&self, k: usize, g0: f64, n: usize) -> f64 {
        // g_k per node = g'_k · |E_k|/|V| = Θ(g'_k / c_k); the c_k·h_k·log n
        // cost multiplies back to g0 · log n.
        let g_k = self.link_change_frequency(k, g0) / self.aggregation(k);
        g_k * self.aggregation(k) * self.hop_count(k) * (n as f64).ln()
    }

    /// `γ = Σ_k γ_k` (eq. 11) — `Θ(log² n)`.
    pub fn gamma_total(&self, g0: f64, n: usize) -> f64 {
        (1..=self.levels).map(|k| self.gamma_k(k, g0, n)).sum()
    }
}

/// `f_0 = Θ(μ / R_TX)` (eq. 4 with the sparse-graph identity), scaled by
/// mean degree: each of a node's `d` links flips at rate `∝ v_rel/R_TX`.
pub fn f0_prediction(mu: f64, rtx: f64, mean_degree: f64) -> f64 {
    assert!(mu > 0.0 && rtx > 0.0 && mean_degree >= 0.0);
    // Mean relative speed between independent uniform headings is 4μ/π;
    // mean unit-disk link lifetime is ≈ (π/2)·R_TX / v_rel.
    let v_rel = 4.0 * mu / std::f64::consts::PI;
    let lifetime = std::f64::consts::FRAC_PI_2 * rtx / v_rel;
    mean_degree / lifetime
}

/// The recursion-stopping probabilities `q_j` of eq. (15a), given the
/// per-level critical-state probabilities `p[j] = P(level-j node in ALCA
/// state 1)` and target level `k`.
pub fn q_chain(p: &[f64], k: usize) -> Vec<f64> {
    assert!(k >= 2 && k <= p.len(), "need p for levels 0..k");
    let mut q = Vec::with_capacity(k - 1);
    for j in 1..k {
        let prod: f64 = (1..=j).map(|i| p[k - i]).product();
        let val = if j < k - 1 {
            (1.0 - p[k - j - 1]) * prod
        } else {
            prod
        };
        q.push(val);
    }
    q
}

/// `Q = Σ q_j` (eq. 15b).
pub fn q_total(q: &[f64]) -> f64 {
    q.iter().sum()
}

/// The lower bound `q_1 / Q ≥ q_1 / (p² + q_1)` of eq. (21b), with
/// `p = max p_j` (eq. 18).
pub fn q1_fraction_lower_bound(p: &[f64], k: usize) -> f64 {
    let q = q_chain(p, k);
    let q1 = q[0];
    let pmax = p[..k].iter().copied().fold(0.0f64, f64::max);
    if q1 <= 0.0 {
        0.0
    } else {
        q1 / (pmax * pmax + q1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_and_hops() {
        let h = UniformHierarchy {
            alpha: 4.0,
            levels: 5,
        };
        assert_eq!(h.aggregation(0), 1.0);
        assert_eq!(h.aggregation(3), 64.0);
        assert_eq!(h.hop_count(2), 4.0);
    }

    #[test]
    fn for_network_levels_logarithmic() {
        let h1 = UniformHierarchy::for_network(256, 4.0);
        assert_eq!(h1.levels, 4); // log_4 256
        let h2 = UniformHierarchy::for_network(4096, 4.0);
        assert_eq!(h2.levels, 6);
    }

    #[test]
    fn phi_k_flat_across_levels() {
        // The heart of §4: with f_k = f0/h_k, every level contributes
        // equally, so φ = L·f0·log n.
        let h = UniformHierarchy {
            alpha: 6.0,
            levels: 6,
        };
        let per: Vec<f64> = (1..=6).map(|k| h.phi_k(k, 1.0, 1000)).collect();
        for w in per.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9, "levels not flat: {per:?}");
        }
        let total = h.phi_total(1.0, 1000);
        assert!((total - 6.0 * per[0]).abs() < 1e-9);
    }

    #[test]
    fn gamma_k_flat_across_levels() {
        let h = UniformHierarchy {
            alpha: 6.0,
            levels: 5,
        };
        let per: Vec<f64> = (1..=5).map(|k| h.gamma_k(k, 1.0, 1000)).collect();
        for w in per.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9);
        }
    }

    #[test]
    fn totals_scale_polylogarithmically() {
        // φ(n) at natural parameterization grows like log²n: the ratio
        // φ(n²)/φ(n) ≈ 4 (since log n² = 2 log n and L doubles).
        let f = |n: usize| UniformHierarchy::for_network(n, 4.0).phi_total(1.0, n);
        let r = f(4096 * 4096) / f(4096);
        assert!((r - 4.0).abs() < 0.8, "ratio = {r}");
    }

    #[test]
    fn f0_independent_of_density_scaling() {
        // f_0 depends on μ/R_TX and degree only — not on n (eq. 4).
        let a = f0_prediction(2.0, 1.0, 8.0);
        let b = f0_prediction(4.0, 1.0, 8.0);
        assert!((b / a - 2.0).abs() < 1e-9);
        let c = f0_prediction(2.0, 2.0, 8.0);
        assert!((c / a - 0.5).abs() < 1e-9);
    }

    #[test]
    fn q_chain_matches_hand_computation() {
        // p = [p0, p1, p2] = [0.5, 0.25, 0.1], k = 3:
        // q1 = (1 - p1)·p2 = 0.075; q2 = p2·p1 = 0.025.
        let p = [0.5, 0.25, 0.1];
        let q = q_chain(&p, 3);
        assert!((q[0] - 0.075).abs() < 1e-12);
        assert!((q[1] - 0.025).abs() < 1e-12);
        assert!((q_total(&q) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn q1_bound_in_unit_interval_and_tight_when_p_small() {
        let p = [0.2, 0.2, 0.2, 0.2];
        let b = q1_fraction_lower_bound(&p, 4);
        assert!(b > 0.0 && b <= 1.0);
        // Smaller p ⇒ bound closer to 1 (recursion almost always stops at
        // the first level).
        let tiny = [0.01, 0.01, 0.01, 0.01];
        assert!(q1_fraction_lower_bound(&tiny, 4) > b);
    }
}
