//! Least-squares fitting against Θ-class shape candidates.
//!
//! The paper's results are asymptotic (`φ, γ = Θ(log²|V|)`). The
//! experiments verify them by measuring overhead at several network sizes
//! and asking *which shape* fits best: `a·log²n + b`, `a·log n + b`,
//! `a·√n + b`, `a·n + b`, or a constant. The winner (by R², with ties
//! within noise acceptable) is reported per experiment in EXPERIMENTS.md.

/// The candidate scaling shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelClass {
    /// `a · ln²(n) + b` — the paper's claim for φ and γ.
    Log2N,
    /// `a · ln(n) + b`.
    LogN,
    /// `a · √n + b`.
    SqrtN,
    /// `a · n + b`.
    Linear,
    /// `b` (flat) — the paper's claim for f₀ (eq. 4).
    Constant,
}

impl ModelClass {
    pub const ALL: [ModelClass; 5] = [
        ModelClass::Log2N,
        ModelClass::LogN,
        ModelClass::SqrtN,
        ModelClass::Linear,
        ModelClass::Constant,
    ];

    /// The basis function of this class.
    pub fn basis(&self, n: f64) -> f64 {
        assert!(n > 0.0);
        match self {
            ModelClass::Log2N => {
                let l = n.ln();
                l * l
            }
            ModelClass::LogN => n.ln(),
            ModelClass::SqrtN => n.sqrt(),
            ModelClass::Linear => n,
            ModelClass::Constant => 0.0,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            ModelClass::Log2N => "log^2(n)",
            ModelClass::LogN => "log(n)",
            ModelClass::SqrtN => "sqrt(n)",
            ModelClass::Linear => "n",
            ModelClass::Constant => "const",
        }
    }
}

/// One fitted model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitResult {
    pub class: ModelClass,
    /// Slope on the basis function (0 for `Constant`).
    pub a: f64,
    /// Intercept.
    pub b: f64,
    /// Coefficient of determination on the original scale.
    pub r2: f64,
}

impl FitResult {
    /// Predicted value at size `n`.
    pub fn predict(&self, n: f64) -> f64 {
        self.a * self.class.basis(n) + self.b
    }
}

/// Ordinary least squares of `y = a·basis(x) + b`.
///
/// # Panics
/// If inputs are empty, lengths differ, or any x is non-positive.
pub fn fit_model(class: ModelClass, xs: &[f64], ys: &[f64]) -> FitResult {
    assert_eq!(xs.len(), ys.len());
    assert!(!xs.is_empty(), "empty fit input");
    let n = xs.len() as f64;
    let mean_y = ys.iter().sum::<f64>() / n;
    let ss_tot: f64 = ys.iter().map(|y| (y - mean_y) * (y - mean_y)).sum();

    let (a, b) = if class == ModelClass::Constant {
        (0.0, mean_y)
    } else {
        let ts: Vec<f64> = xs.iter().map(|&x| class.basis(x)).collect();
        let mean_t = ts.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut var_t = 0.0;
        for (t, y) in ts.iter().zip(ys) {
            cov += (t - mean_t) * (y - mean_y);
            var_t += (t - mean_t) * (t - mean_t);
        }
        if var_t <= 0.0 {
            (0.0, mean_y)
        } else {
            let a = cov / var_t;
            (a, mean_y - a * mean_t)
        }
    };
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| {
            let e = y - (a * class.basis(x) + b);
            e * e
        })
        .sum();
    let r2 = if ss_tot <= 0.0 {
        // Flat data: any model with zero residual is a perfect fit.
        if ss_res < 1e-12 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    };
    FitResult { class, a, b, r2 }
}

/// The 95 % confidence interval of `fit`'s slope `a`, fitted on `xs` /
/// `ys`: `a ± t · SE(a)`, with `SE(a)² = (SS_res / (m − 2)) / Σ(t − t̄)²`
/// over the basis values `t` and `t` the two-sided 97.5 % Student
/// quantile at `m − 2` degrees of freedom. `None` when the slope has no
/// error estimate: fewer than three points, a constant class, or a basis
/// that does not vary over `xs`. A slope *falls significantly* when the
/// whole interval lies below zero.
///
/// # Panics
/// If the lengths differ, or any x is non-positive.
pub fn slope_interval95(fit: &FitResult, xs: &[f64], ys: &[f64]) -> Option<(f64, f64)> {
    assert_eq!(xs.len(), ys.len());
    let m = xs.len();
    if m < 3 || fit.class == ModelClass::Constant {
        return None;
    }
    let ts: Vec<f64> = xs.iter().map(|&x| fit.class.basis(x)).collect();
    let mean_t = ts.iter().sum::<f64>() / m as f64;
    let var_t: f64 = ts.iter().map(|t| (t - mean_t) * (t - mean_t)).sum();
    if var_t <= 0.0 {
        return None;
    }
    let ss_res: f64 = ts
        .iter()
        .zip(ys)
        .map(|(&t, &y)| {
            let e = y - (fit.a * t + fit.b);
            e * e
        })
        .sum();
    let se = (ss_res / (m - 2) as f64 / var_t).sqrt();
    let half = student_t975(m - 2) * se;
    Some((fit.a - half, fit.a + half))
}

/// The two-sided 97.5 % quantile of Student's t at `df ≥ 1` degrees of
/// freedom, to three decimals; past 30 it stays at 30's value, which
/// over-states the quantile (1.96 in the limit), so an interval built
/// from it errs wide.
fn student_t975(df: usize) -> f64 {
    const T: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    assert!(df >= 1, "no degrees of freedom");
    T[df.min(30) - 1]
}

/// Fit every candidate class and return the results sorted by descending
/// R² (best first).
pub fn best_fit(xs: &[f64], ys: &[f64]) -> Vec<FitResult> {
    let mut fits: Vec<FitResult> = ModelClass::ALL
        .iter()
        .map(|&c| fit_model(c, xs, ys))
        .collect();
    fits.sort_by(|a, b| b.r2.total_cmp(&a.r2));
    fits
}

/// Relative spread `(max - min) / mean` of a series — the direct test for
/// `Θ(1)` claims. R² is structurally unable to select the constant model
/// (flat data has zero explainable variance, so R²_const = 0 while any
/// sloped model trivially fits the noise), so constant-ness is judged by
/// whether the series moves at all across the sweep.
pub fn relative_spread(ys: &[f64]) -> f64 {
    assert!(!ys.is_empty());
    let mean = ys.iter().sum::<f64>() / ys.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let max = ys.iter().copied().fold(f64::MIN, f64::max);
    let min = ys.iter().copied().fold(f64::MAX, f64::min);
    ((max - min) / mean).abs()
}

/// Convenience check for the experiment reports: does `want` win, or come
/// within `tolerance` of the winner's R²?
pub fn class_is_competitive(fits: &[FitResult], want: ModelClass, tolerance: f64) -> bool {
    let Some(best) = fits.first() else {
        return false;
    };
    fits.iter()
        .find(|f| f.class == want)
        .is_some_and(|f| f.r2 >= best.r2 - tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(class: ModelClass, a: f64, b: f64, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| a * class.basis(x) + b).collect()
    }

    const SIZES: [f64; 7] = [64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0];

    #[test]
    fn recovers_known_coefficients() {
        for class in ModelClass::ALL {
            let ys = synth(class, 2.5, 1.0, &SIZES);
            let fit = fit_model(class, &SIZES, &ys);
            if class != ModelClass::Constant {
                assert!((fit.a - 2.5).abs() < 1e-9, "{class:?}");
            }
            assert!(fit.r2 > 0.999999, "{class:?} r2 = {}", fit.r2);
            // Prediction at a training point is exact.
            assert!((fit.predict(256.0) - ys[2]).abs() < 1e-9);
        }
    }

    #[test]
    fn best_fit_identifies_generator() {
        for gen in [ModelClass::Log2N, ModelClass::SqrtN, ModelClass::Linear] {
            let ys = synth(gen, 3.0, 0.5, &SIZES);
            let fits = best_fit(&SIZES, &ys);
            assert_eq!(fits[0].class, gen, "generator {gen:?} lost to {fits:?}");
        }
    }

    #[test]
    fn log2_beats_linear_for_polylog_data() {
        // Noisy log² data must still rank log² above √n and n.
        let ys: Vec<f64> = SIZES
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let noise = 1.0 + 0.03 * ((i % 3) as f64 - 1.0);
                2.0 * ModelClass::Log2N.basis(x) * noise
            })
            .collect();
        let fits = best_fit(&SIZES, &ys);
        let rank = |c: ModelClass| fits.iter().position(|f| f.class == c).unwrap();
        assert!(rank(ModelClass::Log2N) < rank(ModelClass::Linear));
        assert!(rank(ModelClass::Log2N) < rank(ModelClass::SqrtN));
        assert!(class_is_competitive(&fits, ModelClass::Log2N, 0.02));
    }

    #[test]
    fn constant_data_prefers_constant_like_fits() {
        let ys = vec![5.0; SIZES.len()];
        let fit = fit_model(ModelClass::Constant, &SIZES, &ys);
        assert_eq!(fit.b, 5.0);
        assert_eq!(fit.r2, 1.0);
        // Non-constant classes fit flat data with a ≈ 0, also r² = 1; the
        // report prefers Constant when it is competitive.
        let fits = best_fit(&SIZES, &ys);
        assert!(class_is_competitive(&fits, ModelClass::Constant, 1e-9));
    }

    #[test]
    fn relative_spread_flat_and_sloped() {
        assert_eq!(relative_spread(&[5.0, 5.0, 5.0]), 0.0);
        let s = relative_spread(&[4.0, 5.0, 6.0]);
        assert!((s - 0.4).abs() < 1e-12);
        assert!(relative_spread(&[1.0, 10.0]) > 1.0);
    }

    #[test]
    fn degenerate_single_point() {
        let fit = fit_model(ModelClass::LogN, &[100.0], &[3.0]);
        assert_eq!(fit.b + fit.a * ModelClass::LogN.basis(100.0), 3.0);
    }

    /// A line with residuals of known size: four points on `y = 2t + 1`
    /// in `t = ln n`, nudged by ±0.1 alternately, give the slope's
    /// textbook interval, and the interval is `None` where it has no
    /// error estimate.
    #[test]
    fn slope_interval_is_the_textbook_one() {
        let ts = [1.0f64, 2.0, 3.0, 4.0];
        let xs: Vec<f64> = ts.iter().map(|t| t.exp()).collect();
        let ys: Vec<f64> = ts
            .iter()
            .zip([0.1, -0.1, 0.1, -0.1])
            .map(|(t, e)| 2.0 * t + 1.0 + e)
            .collect();
        let fit = fit_model(ModelClass::LogN, &xs, &ys);
        let (lo, hi) = slope_interval95(&fit, &xs, &ys).unwrap();
        // Σ(t − t̄)² = 5; the fit leaves SS_res = 0.032 at slope 1.96, so
        // SE = √(0.032 / 2 / 5) and t(2) = 4.303.
        let half = 4.303 * (0.032f64 / 2.0 / 5.0).sqrt();
        assert!((fit.a - 1.96).abs() < 1e-9, "{fit:?}");
        assert!((lo - (1.96 - half)).abs() < 1e-9 && (hi - (1.96 + half)).abs() < 1e-9);
        assert!(lo > 0.0, "a clear rise is significant");
        assert_eq!(slope_interval95(&fit, &xs[..2], &ys[..2]), None);
        let flat = fit_model(ModelClass::Constant, &xs, &ys);
        assert_eq!(slope_interval95(&flat, &xs, &ys), None);
        assert_eq!(student_t975(1), 12.706);
        assert_eq!(student_t975(500), student_t975(30));
    }

    #[test]
    #[should_panic]
    fn empty_input_panics() {
        fit_model(ModelClass::LogN, &[], &[]);
    }
}
