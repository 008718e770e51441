//! `chlm-benchmark compare <a.json> <b.json>`: per (workload, end-to-end
//! metric) both values, the relative change with its base, the bound, and
//! a verdict. `a` is the base (the parent commit, or the first of two
//! runs of one commit), `b` the candidate.

use crate::json::Value;
use crate::result::{Better, E2E_METRICS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound (and than the noise).
    Worse,
    /// A value is missing, or the repetitions of either run disagreed by
    /// more than the bound and the change is within that disagreement:
    /// the benchmark cannot tell, which is not the same as unchanged.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the value and the repetition spread.
pub type Side = (Option<f64>, Option<f64>);

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(better: Better, bound: f64, a: Side, b: Side) -> Verdict {
    let (Some(va), Some(vb)) = (a.0, b.0) else {
        return Verdict::Unresolved;
    };
    if va == 0.0 {
        return if vb == 0.0 {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let worse = worse_by(better, va, vb);
    let noise = a.1.unwrap_or(0.0).max(b.1.unwrap_or(0.0));
    if noise <= bound {
        if worse > bound {
            Verdict::Worse
        } else {
            Verdict::Ok
        }
    } else if worse > noise {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: Side,
    pub b: Side,
    pub bound: f64,
    pub better: Better,
    pub verdict: Verdict,
}

fn side(workload: &Value, metric: &str) -> Side {
    let m = workload.get("metrics").and_then(|m| m.get(metric));
    let field = |key: &str| m.and_then(|m| m.get(key)).and_then(Value::as_f64);
    (field("value"), field("spread"))
}

fn workloads(run: &Value) -> Result<&[Value], String> {
    run.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "not a chlm-benchmark result: no \"workloads\" array".to_string())
}

fn name(workload: &Value) -> &str {
    workload.get("name").and_then(Value::as_str).unwrap_or("?")
}

/// Every (workload of `a`, end-to-end metric) pairing; a workload missing
/// from `b` is unresolved on every metric.
pub fn rows(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let in_b = workloads(b)?;
    let mut out = Vec::new();
    for wa in workloads(a)? {
        let wb = in_b.iter().find(|w| name(w) == name(wa));
        for spec in &E2E_METRICS {
            let sa = side(wa, spec.name);
            let sb = wb.map_or((None, None), |w| side(w, spec.name));
            out.push(Row {
                workload: name(wa).to_string(),
                metric: spec.name,
                a: sa,
                b: sb,
                bound: spec.bound,
                better: spec.better,
                verdict: verdict(spec.better, spec.bound, sa, sb),
            });
        }
    }
    Ok(out)
}

/// `(workload, bank, digest in a, digest in b)` where the two runs report
/// different simulated statistics. Informational: expected empty between
/// two runs of one commit or across a speed-only change, legitimate when
/// a change means to alter a simulated statistic.
pub fn digest_changes(
    a: &Value,
    b: &Value,
) -> Result<Vec<(String, String, String, String)>, String> {
    let in_b = workloads(b)?;
    let mut out = Vec::new();
    for wa in workloads(a)? {
        let Some(wb) = in_b.iter().find(|w| name(w) == name(wa)) else {
            continue;
        };
        let banks = wa.get("sim_digest").and_then(Value::as_obj).unwrap_or(&[]);
        for (label, da) in banks {
            let db = wb.get("sim_digest").and_then(|d| d.get(label));
            if db != Some(da) {
                let show = |v: Option<&Value>| v.map_or("absent".to_string(), Value::render);
                out.push((
                    name(wa).to_string(),
                    label.clone(),
                    show(Some(da)),
                    show(db),
                ));
            }
        }
    }
    Ok(out)
}

/// The table `compare` prints.
pub fn table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<13} {:<18} {:>14} {:>14} {:>22} {:>6}  {}\n",
        "workload", "metric", "a", "b", "change (base a)", "bound", "verdict"
    );
    let show = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.4}"));
    for r in rows {
        let change = match (r.a.0, r.b.0) {
            (Some(a), Some(b)) if a != 0.0 => {
                let w = worse_by(r.better, a, b);
                let word = if w > 0.0 { "worse" } else { "better" };
                format!("{:+.2}% of {:.4} {word}", (b - a) / a * 100.0, a)
            }
            _ => "n/a".to_string(),
        };
        out.push_str(&format!(
            "{:<13} {:<18} {:>14} {:>14} {:>22} {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            show(r.a.0),
            show(r.b.0),
            change,
            r.bound * 100.0,
            r.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const QUIET: Option<f64> = Some(0.01);

    #[test]
    fn within_the_bound_is_ok_in_either_direction() {
        let v = |a, b| verdict(Better::Lower, 0.10, (Some(a), QUIET), (Some(b), QUIET));
        assert_eq!(v(100.0, 109.0), Verdict::Ok);
        assert_eq!(v(100.0, 50.0), Verdict::Ok);
        assert_eq!(v(100.0, 111.0), Verdict::Worse);
        let h = |a, b| verdict(Better::Higher, 0.10, (Some(a), QUIET), (Some(b), QUIET));
        assert_eq!(h(100.0, 91.0), Verdict::Ok);
        assert_eq!(h(100.0, 200.0), Verdict::Ok);
        assert_eq!(h(100.0, 89.0), Verdict::Worse);
    }

    #[test]
    fn the_base_of_the_ratio_is_a() {
        assert!((worse_by(Better::Lower, 80.0, 100.0) - 0.25).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 80.0) - 0.20).abs() < 1e-12);
    }

    #[test]
    fn noisy_repetitions_make_a_change_within_the_noise_unresolved() {
        let noisy = Some(0.30);
        let v = |b| verdict(Better::Lower, 0.10, (Some(100.0), noisy), (Some(b), QUIET));
        // Within the bound, but the run could not have seen a 10% change.
        assert_eq!(v(105.0), Verdict::Unresolved);
        assert_eq!(v(125.0), Verdict::Unresolved);
        // Beyond even the noise.
        assert_eq!(v(140.0), Verdict::Worse);
    }

    #[test]
    fn missing_values_are_unresolved() {
        let some = (Some(1.0), None);
        assert_eq!(
            verdict(Better::Lower, 0.1, some, (None, None)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Lower, 0.1, (None, None), some),
            Verdict::Unresolved
        );
        // One repetition has no spread; the bound alone decides.
        assert_eq!(
            verdict(Better::Lower, 0.1, some, (Some(1.05), None)),
            Verdict::Ok
        );
    }

    fn run(tick: f64, digest: &str) -> Value {
        parse(&format!(
            r#"{{"workloads":[{{"name":"grid-e24","metrics":{{"tick_ms_p50":{{"value":{tick},"unit":"ms","spread":0.02}},"setup_s":{{"value":0.01,"unit":"s","spread":null}}}},"sim_digest":{{"chlm-eucl":["{digest}"]}}}}]}}"#
        ))
        .expect("valid json")
    }

    #[test]
    fn rows_cover_every_metric_of_every_workload() {
        let rows = rows(&run(200.0, "0x1"), &run(260.0, "0x1")).expect("rows");
        assert_eq!(rows.len(), E2E_METRICS.len());
        let of = |m: &str| rows.iter().find(|r| r.metric == m).expect("row").verdict;
        assert_eq!(of("tick_ms_p50"), Verdict::Worse);
        assert_eq!(of("setup_s"), Verdict::Ok);
        // Metrics the files lack cannot be judged.
        assert_eq!(of("rss_peak_mb"), Verdict::Unresolved);
        assert!(table(&rows).contains("+30.00% of 200.0000 worse"));
    }

    #[test]
    fn a_workload_missing_from_b_is_unresolved() {
        let empty = parse(r#"{"workloads":[]}"#).expect("valid json");
        let rows = rows(&run(200.0, "0x1"), &empty).expect("rows");
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unresolved));
        assert!(super::rows(&empty, &parse("{}").expect("valid json")).is_err());
    }

    #[test]
    fn digest_changes_are_listed() {
        let same = digest_changes(&run(1.0, "0x1"), &run(1.0, "0x1")).expect("digests");
        assert!(same.is_empty());
        let diff = digest_changes(&run(1.0, "0x1"), &run(1.0, "0x2")).expect("digests");
        assert_eq!(
            diff,
            [(
                "grid-e24".to_string(),
                "chlm-eucl".to_string(),
                r#"["0x1"]"#.to_string(),
                r#"["0x2"]"#.to_string()
            )]
        );
    }
}
