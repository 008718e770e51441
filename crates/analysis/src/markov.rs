//! The birth–death chain of Fig. 3.
//!
//! A level-k node's ALCA state (its elector count) changes by ±1 at a time:
//! a neighbor starts or stops electing it. Fig. 3 is exactly a birth–death
//! chain on `{0, 1, …, n_{k,v}}`. Two predictive models are provided:
//!
//! * [`stationary_birth_death`] — the exact stationary distribution of an
//!   arbitrary birth–death chain via detailed balance, and
//! * [`binomial_occupancy`] — the independent-voter approximation: each of
//!   `d` neighbors elects the node independently with probability `q`, so
//!   the state is `Binomial(d, q)`. This is the natural closed form when
//!   neighbor votes flip independently (which the simulation lets us test).

/// Stationary distribution of a birth–death chain with birth rates
/// `lambda[s]` (s → s+1, length `m`) and death rates `mu[s]` (s+1 → s,
/// length `m`). Returns `m + 1` probabilities.
///
/// # Panics
/// If lengths differ, any rate is negative/non-finite, or any death rate
/// needed for normalization is zero while its birth rate is positive.
pub fn stationary_birth_death(lambda: &[f64], mu: &[f64]) -> Vec<f64> {
    assert_eq!(lambda.len(), mu.len(), "need matching rate vectors");
    let m = lambda.len();
    let mut pi = Vec::with_capacity(m + 1);
    pi.push(1.0f64);
    for s in 0..m {
        assert!(lambda[s] >= 0.0 && lambda[s].is_finite());
        assert!(mu[s] >= 0.0 && mu[s].is_finite());
        // audit: infallible because pi starts seeded with 1.0 above
        let prev = *pi.last().expect("pi seeded non-empty");
        let next = if lambda[s] <= 0.0 {
            0.0
        } else {
            assert!(mu[s] > 0.0, "absorbing upward transition at state {s}");
            prev * lambda[s] / mu[s]
        };
        pi.push(next);
    }
    let total: f64 = pi.iter().sum();
    assert!(total > 0.0);
    for p in &mut pi {
        *p /= total;
    }
    pi
}

/// Binomial(d, q) pmf over states `0..=d`: the independent-voter model of
/// the ALCA state.
pub fn binomial_occupancy(d: usize, q: f64) -> Vec<f64> {
    assert!((0.0..=1.0).contains(&q));
    let mut pmf = Vec::with_capacity(d + 1);
    // Iterative binomial coefficients to avoid factorial overflow.
    let mut coeff = 1.0f64;
    for s in 0..=d {
        if s > 0 {
            coeff *= (d - s + 1) as f64 / s as f64;
        }
        pmf.push(coeff * q.powi(s as i32) * (1.0 - q).powi((d - s) as i32));
    }
    pmf
}

/// Total variation distance between two distributions (padded with zeros to
/// equal length).
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    let len = p.len().max(q.len());
    let mut tv = 0.0;
    for i in 0..len {
        let a = p.get(i).copied().unwrap_or(0.0);
        let b = q.get(i).copied().unwrap_or(0.0);
        tv += (a - b).abs();
    }
    tv / 2.0
}

/// Rank-mixture model of the ALCA state distribution.
///
/// A plain binomial assumes every neighbor elects the node with the *same*
/// probability — but under highest-ID election the probability depends
/// strongly on the node's ID rank. For a node at ID quantile `x` with
/// degree `d`, a given neighbor `u` (degree ≈ `d`) elects it iff its ID
/// beats the other ≈ `d` IDs in `u`'s closed neighborhood, i.e. with
/// probability ≈ `x^d`. Mixing `Binomial(d, x^d)` over `x ~ U(0,1)`:
///
/// `P(s) = ∫₀¹ C(d,s) · x^{d·s} · (1 - x^d)^{d-s} dx`
///
/// evaluated here by Simpson quadrature on `grid` panels. This captures
/// the heavy state-0 mass (low-rank nodes are never elected) and the long
/// tail (the top-rank node absorbs all its neighbors) that the plain
/// binomial misses.
pub fn rank_mixture_occupancy(d: usize, grid: usize) -> Vec<f64> {
    assert!(grid >= 2);
    let m = 2 * grid; // Simpson needs an even panel count
    let h = 1.0 / m as f64;
    let mut pmf = vec![0.0f64; d + 1];
    for i in 0..=m {
        let x = i as f64 * h;
        let weight = if i == 0 || i == m {
            1.0
        } else if i % 2 == 1 {
            4.0
        } else {
            2.0
        };
        let q = x.powi(d as i32);
        let bin = binomial_occupancy(d, q);
        for (s, p) in bin.iter().enumerate() {
            pmf[s] += weight * p;
        }
    }
    let norm = h / 3.0;
    for p in &mut pmf {
        *p *= norm;
    }
    // Guard against quadrature round-off: renormalize.
    let total: f64 = pmf.iter().sum();
    for p in &mut pmf {
        *p /= total;
    }
    pmf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_rates_give_uniform_distribution() {
        let pi = stationary_birth_death(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0]);
        for &p in &pi {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn birth_death_ratio_balance() {
        // λ = 2, μ = 1 per state: π_{s+1} = 2 π_s.
        let pi = stationary_birth_death(&[2.0, 2.0], &[1.0, 1.0]);
        assert!((pi[1] / pi[0] - 2.0).abs() < 1e-12);
        assert!((pi[2] / pi[1] - 2.0).abs() < 1e-12);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_birth_rate_truncates() {
        let pi = stationary_birth_death(&[1.0, 0.0], &[1.0, 1.0]);
        assert_eq!(pi[2], 0.0);
        assert!((pi[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn binomial_matches_birth_death_equivalent() {
        // Independent voters each on/off with rates (on: qr, off: (1-q)r)
        // give a birth-death chain whose stationary law is Binomial(d, q):
        // λ_s = (d-s)·qr, μ_s = (s+1)·(1-q)·r.
        let d = 6;
        let q = 0.3;
        let r = 1.0;
        let lambda: Vec<f64> = (0..d).map(|s| (d - s) as f64 * q * r).collect();
        let mu: Vec<f64> = (0..d).map(|s| (s + 1) as f64 * (1.0 - q) * r).collect();
        let pi = stationary_birth_death(&lambda, &mu);
        let bin = binomial_occupancy(d, q);
        assert!(total_variation(&pi, &bin) < 1e-12);
    }

    #[test]
    fn binomial_sums_to_one_and_extremes() {
        let pmf = binomial_occupancy(10, 0.37);
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(binomial_occupancy(4, 0.0)[0], 1.0);
        assert_eq!(binomial_occupancy(4, 1.0)[4], 1.0);
    }

    #[test]
    fn tv_distance_properties() {
        let a = [0.5, 0.5];
        let b = [1.0, 0.0];
        assert!((total_variation(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(total_variation(&a, &a), 0.0);
        // Padding works.
        assert!((total_variation(&[1.0], &[0.5, 0.5]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rank_mixture_sums_to_one_and_has_heavy_zero_mass() {
        let pmf = rank_mixture_occupancy(9, 64);
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // P(0) = ∫ (1-x^d)^d dx is large (most ranks are never elected) —
        // far larger than a mean-matched binomial's P(0).
        assert!(pmf[0] > 0.5, "P(0) = {}", pmf[0]);
        // The tail is exactly P(d) = ∫ x^{d²} dx = 1/(d²+1) = 1/82 — far
        // heavier than a mean-matched binomial's.
        assert!((pmf[9] - 1.0 / 82.0).abs() < 1e-4, "P(d) = {}", pmf[9]);
    }

    #[test]
    fn rank_mixture_p0_matches_quadrature_of_known_integral() {
        // d = 1: P(0) = ∫ (1-x) dx = 1/2 exactly.
        let pmf = rank_mixture_occupancy(1, 128);
        assert!((pmf[0] - 0.5).abs() < 1e-6);
        assert!((pmf[1] - 0.5).abs() < 1e-6);
    }
}
