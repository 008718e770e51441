//! Parent side of the end-to-end benchmark: the metric definitions, and
//! the reduction of a workload's repetitions to metric values and checks.

use crate::json::{obj, Value};
use crate::stats::{median, nearest_rank, percentile};
use crate::workload::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric. All are host quantities (what the simulator
/// costs to run), none is simulated time.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (same value in `BENCHMARK.json`).
    pub bound: f64,
}

/// Repetitions every run performs. The counted metrics (allocations) come
/// from exactly these, so they repeat exactly for a seed however many
/// further repetitions the time budget admitted; the timed ones use all.
pub const COUNTED_REPS: usize = 3;

/// The tail percentile reported beside the median. p75 because a run
/// pools at least 3 × 14 = 42 tick samples, and ten must lie beyond it.
pub const TAIL: f64 = 0.75;

/// The bounds are set from this machine's measured run-to-run spread
/// (README: noise protocol), not from what one would like to detect.
pub const E2E_METRICS: [MetricSpec; 7] = [
    MetricSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricSpec {
        name: "tick_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricSpec {
        name: "tick_ms_p75",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricSpec {
        name: "node_ticks_per_s",
        unit: "node-ticks/s",
        better: Better::Higher,
        bound: 0.25,
    },
    MetricSpec {
        name: "allocs_per_tick",
        unit: "count",
        better: Better::Lower,
        bound: 0.15,
    },
    MetricSpec {
        name: "alloc_kb_per_tick",
        unit: "KiB",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricSpec {
        name: "rss_peak_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric's value over a workload's repetitions, and how far the
/// repetitions disagreed: (max − min) / median of their own values
/// (`None` for one repetition, and for counts, which repeat exactly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: Option<f64>,
    pub spread: Option<f64>,
}

/// Checks attempted and the ones that failed; `fail_ratio` is their ratio.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(describe());
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    pub fn to_json(&self) -> Value {
        obj([
            ("attempted", self.attempted.into()),
            ("failed", self.failures.len().into()),
            ("failures", self.failures.clone().into()),
        ])
    }

    /// Read back what [`Checks::to_json`] wrote (a child's verdict).
    pub fn from_json(v: &Value) -> Result<Checks, String> {
        let attempted = v.get("attempted").and_then(Value::as_f64);
        let failures = v.get("failures").and_then(Value::as_arr);
        let (Some(attempted), Some(failures)) = (attempted, failures) else {
            return Err("malformed checks object".into());
        };
        Ok(Checks {
            attempted: attempted as u64,
            failures: failures
                .iter()
                .filter_map(Value::as_str)
                .map(String::from)
                .collect(),
        })
    }
}

/// One workload's result: a value per [`E2E_METRICS`] entry, the digests,
/// and the checks.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub n: usize,
    pub threads: usize,
    pub repetitions: usize,
    /// Pooled tick samples behind both percentiles.
    pub samples: usize,
    pub metrics: Vec<Measured>,
    /// Per bank, `SimReport::digest()` (hex) of each counted repetition's
    /// world — reported, not pinned: a change that only speeds the
    /// simulator must leave them identical.
    pub digests: Vec<(String, Vec<String>)>,
    pub checks: Checks,
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("child output lacks number {key:?}"))
}

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("child output lacks string {key:?}"))
}

fn banks(rep: &Value) -> Result<&[Value], String> {
    rep.get("banks")
        .and_then(Value::as_arr)
        .ok_or_else(|| "child output lacks banks".to_string())
}

/// What one repetition contributes to each metric.
struct Rep {
    setup_s: f64,
    tick_ms: Vec<f64>,
    node_ticks_per_s: f64,
    allocs_per_tick: f64,
    alloc_kb_per_tick: f64,
    rss_peak_mb: f64,
}

impl Rep {
    fn read(rep: &Value, n: usize) -> Result<Rep, String> {
        let tick_ms: Vec<f64> = rep
            .get("tick_ms")
            .and_then(Value::as_arr)
            .ok_or("child output lacks tick_ms")?
            .iter()
            .filter_map(Value::as_f64)
            .collect();
        if tick_ms.is_empty() {
            return Err("a repetition measured no ticks".into());
        }
        let count = tick_ms.len() as f64;
        let busy_s = tick_ms.iter().sum::<f64>() / 1e3;
        Ok(Rep {
            setup_s: num(rep, "setup_s")?,
            node_ticks_per_s: n as f64 * count / busy_s,
            allocs_per_tick: num(rep, "alloc_calls")? / count,
            alloc_kb_per_tick: num(rep, "alloc_bytes")? / count / 1024.0,
            rss_peak_mb: num(rep, "rss_peak_mb")?,
            tick_ms,
        })
    }
}

/// Median over the repetitions, with their relative range.
fn timed_metric(per_rep: Vec<f64>) -> Measured {
    let mid = median(&per_rep);
    let lo = per_rep.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = per_rep.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Measured {
        value: Some(mid),
        spread: (per_rep.len() > 1 && mid != 0.0).then(|| (hi - lo) / mid),
    }
}

/// Mean over the counted repetitions; exact, so no spread.
fn counted_metric(per_rep: Vec<f64>) -> Measured {
    let counted = &per_rep[..per_rep.len().min(COUNTED_REPS)];
    Measured {
        value: Some(counted.iter().sum::<f64>() / counted.len() as f64),
        spread: None,
    }
}

/// Reduce the repetitions of `workload` (the children's JSON, in the order
/// they ran) to metric values, and run checks (c) and (d) on every one.
pub fn summarize(workload: &Workload, reps: &[Value]) -> Result<WorkloadResult, String> {
    let first = reps.first().ok_or("no repetitions")?;
    let n = num(first, "n")? as usize;
    let parsed = reps
        .iter()
        .map(|rep| Rep::read(rep, n))
        .collect::<Result<Vec<Rep>, String>>()?;
    let pooled: Vec<f64> = parsed
        .iter()
        .flat_map(|r| r.tick_ms.iter().copied())
        .collect();
    let column = |f: fn(&Rep) -> f64| -> Vec<f64> { parsed.iter().map(f).collect() };
    let metrics = E2E_METRICS
        .iter()
        .map(|spec| match spec.name {
            "setup_s" => timed_metric(column(|r| r.setup_s)),
            // The two percentiles are read off the pooled samples, and
            // refused (no value) when too few lie beyond them — as in a
            // --smoke run. Each repetition's own percentile only feeds
            // the spread.
            "tick_ms_p50" => Measured {
                value: percentile(&pooled, 0.5).ok(),
                ..timed_metric(column(|r| nearest_rank(&r.tick_ms, 0.5)))
            },
            "tick_ms_p75" => Measured {
                value: percentile(&pooled, TAIL).ok(),
                ..timed_metric(column(|r| nearest_rank(&r.tick_ms, TAIL)))
            },
            "node_ticks_per_s" => timed_metric(column(|r| r.node_ticks_per_s)),
            "allocs_per_tick" => counted_metric(column(|r| r.allocs_per_tick)),
            "alloc_kb_per_tick" => counted_metric(column(|r| r.alloc_kb_per_tick)),
            "rss_peak_mb" => timed_metric(column(|r| r.rss_peak_mb)),
            other => unreachable!("no reduction for metric {other}"),
        })
        .collect();

    let mut checks = Checks::default();
    for (i, rep) in reps.iter().enumerate() {
        let rep_banks = banks(rep)?;
        // (c) per scheme, the analytic and the packet bank agree on the
        // lookup counts and on the ledger's per-level event counts.
        if workload.has_backend_pairs() {
            for pair in rep_banks.chunks(2) {
                let (a, b) = (&pair[0], &pair[pair.len() - 1]);
                checks.check(a.get("backend_parity") == b.get("backend_parity"), || {
                    format!(
                        "(c) {} repetition {i}: banks {} and {} disagree: {} vs {}",
                        workload.name,
                        text(a, "label").unwrap_or("?"),
                        text(b, "label").unwrap_or("?"),
                        text(a, "backend_parity").unwrap_or("?"),
                        text(b, "backend_parity").unwrap_or("?"),
                    )
                });
            }
        }
        // (d) every report is sane.
        for bank in rep_banks {
            let depth = num(bank, "depth")?;
            let overhead = bank.get("total_overhead").and_then(Value::as_f64);
            let arrivals = bank.get("query_arrivals").and_then(Value::as_f64);
            let sane = depth >= 2.0
                && overhead.is_some_and(|o| o.is_finite() && o > 0.0)
                && (workload.query_rate() == 0.0 || arrivals.is_some_and(|a| a > 0.0));
            checks.check(sane, || {
                format!(
                    "(d) {} repetition {i}: bank {} is not sane: depth {depth}, total_overhead {overhead:?}, query arrivals {arrivals:?}",
                    workload.name,
                    text(bank, "label").unwrap_or("?"),
                )
            });
        }
    }
    let mut digests: Vec<(String, Vec<String>)> = Vec::new();
    for rep in reps.iter().take(COUNTED_REPS) {
        for (i, bank) in banks(rep)?.iter().enumerate() {
            if digests.len() <= i {
                digests.push((text(bank, "label")?.to_string(), Vec::new()));
            }
            digests[i].1.push(text(bank, "sim_digest")?.to_string());
        }
    }
    Ok(WorkloadResult {
        name: workload.name.to_string(),
        n,
        threads: workload.threads,
        repetitions: reps.len(),
        samples: pooled.len(),
        metrics,
        digests,
        checks,
    })
}

/// (b) the same worlds at `threads` 1 and 2 produce the same reports.
/// Compares as many repetitions as both sides counted.
pub fn check_thread_invariance(
    checks: &mut Checks,
    serial: &[(String, Vec<String>)],
    pooled: &[(String, Vec<String>)],
) {
    let same = serial.len() == pooled.len()
        && serial.iter().zip(pooled).all(|((la, a), (lb, b))| {
            la == lb && !a.is_empty() && !b.is_empty() && a.iter().zip(b).all(|(x, y)| x == y)
        });
    checks.check(same, || {
        format!("(b) sim_digest differs between threads=1 {serial:?} and threads=2 {pooled:?}")
    });
}

impl WorkloadResult {
    pub fn to_json(&self) -> Value {
        let metrics = E2E_METRICS
            .iter()
            .zip(&self.metrics)
            .map(|(spec, m)| {
                let field = obj([
                    ("value", m.value.map_or(Value::Null, Value::from)),
                    ("unit", spec.unit.into()),
                    ("spread", m.spread.map_or(Value::Null, Value::from)),
                ]);
                (spec.name.to_string(), field)
            })
            .collect();
        let digests = self
            .digests
            .iter()
            .map(|(label, d)| (label.clone(), Value::from(d.clone())))
            .collect();
        obj([
            ("name", self.name.as_str().into()),
            ("n", self.n.into()),
            ("threads", self.threads.into()),
            ("repetitions", self.repetitions.into()),
            ("samples", self.samples.into()),
            ("metrics", Value::Obj(metrics)),
            ("sim_digest", Value::Obj(digests)),
            ("checks", self.checks.to_json()),
        ])
    }

    /// The human table rows for this workload.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} (n={}, threads={}, {} repetitions, {} tick samples)\n",
            self.name, self.n, self.threads, self.repetitions, self.samples
        );
        for (spec, m) in E2E_METRICS.iter().zip(&self.metrics) {
            let value = m.value.map_or("n/a".to_string(), |v| format!("{v:.4}"));
            let spread = m
                .spread
                .map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            let samples = if spec.name.starts_with("tick_ms_p") {
                format!("  ({} samples)", self.samples)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  {:<18} {:>14} {:<13} spread {:>6}  bound {:>3.0}%{}\n",
                spec.name,
                value,
                spec.unit,
                spread,
                spec.bound * 100.0,
                samples
            ));
        }
        for (label, digest) in &self.digests {
            out.push_str(&format!("  sim_digest {label:<14} {}\n", digest.join(" ")));
        }
        out.push_str(&format!(
            "  checks: {} attempted, {} failed\n",
            self.checks.attempted,
            self.checks.failures.len()
        ));
        for f in &self.checks.failures {
            out.push_str(&format!("  FAILED {f}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn bank(label: &str, digest: &str, parity: &str, arrivals: Option<u64>) -> Value {
        obj([
            ("label", label.into()),
            ("sim_digest", digest.into()),
            ("depth", 5_u64.into()),
            ("total_overhead", 1.5.into()),
            ("query_arrivals", arrivals.map_or(Value::Null, Value::from)),
            ("backend_parity", parity.into()),
        ])
    }

    fn rep(setup: f64, tick: f64, allocs: u64, banks: Vec<Value>) -> Value {
        obj([
            ("n", 1000_u64.into()),
            ("setup_s", setup.into()),
            ("tick_ms", vec![tick; 14].into()),
            ("alloc_calls", (14 * allocs).into()),
            ("alloc_bytes", (14 * 2048_u64).into()),
            ("rss_peak_mb", 12.5.into()),
            ("banks", Value::Arr(banks)),
        ])
    }

    fn value(r: &WorkloadResult, name: &str) -> Measured {
        let i = E2E_METRICS
            .iter()
            .position(|m| m.name == name)
            .expect("metric");
        r.metrics[i]
    }

    #[test]
    fn timed_metrics_are_medians_and_pooled_percentiles() {
        let w = WORKLOADS[0];
        let b = |d: &str| vec![bank("chlm-eucl", d, "p", None)];
        let reps = [
            rep(1.0, 10.0, 100, b("0x1")),
            rep(3.0, 20.0, 100, b("0x2")),
            rep(2.0, 40.0, 100, b("0x3")),
        ];
        let r = summarize(&w, &reps).expect("summarize");
        assert_eq!(
            value(&r, "setup_s"),
            Measured {
                value: Some(2.0),
                spread: Some(1.0)
            }
        );
        // 42 pooled samples: 14 each of 10, 20, 40.
        assert_eq!(r.samples, 42);
        assert_eq!(
            value(&r, "tick_ms_p50"),
            Measured {
                value: Some(20.0),
                spread: Some(1.5)
            }
        );
        assert_eq!(value(&r, "tick_ms_p75").value, Some(40.0));
        // 1000 nodes × 14 ticks / (14 × 20 ms) in the median repetition.
        let throughput = value(&r, "node_ticks_per_s").value.expect("throughput");
        assert!((throughput - 50_000.0).abs() < 1e-6, "{throughput}");
        assert_eq!(
            value(&r, "alloc_kb_per_tick"),
            Measured {
                value: Some(2.0),
                spread: None
            }
        );
        assert_eq!(value(&r, "rss_peak_mb").value, Some(12.5));
        assert_eq!(
            r.checks,
            Checks {
                attempted: 3,
                failures: vec![]
            }
        );
        let digests = ["0x1", "0x2", "0x3"].map(String::from).to_vec();
        assert_eq!(r.digests, [("chlm-eucl".to_string(), digests)]);
    }

    #[test]
    fn counted_metrics_ignore_repetitions_beyond_the_guaranteed_three() {
        let w = WORKLOADS[0];
        let b = || vec![bank("chlm-eucl", "0x1", "p", None)];
        let mut reps = vec![
            rep(1.0, 10.0, 90, b()),
            rep(1.0, 10.0, 100, b()),
            rep(1.0, 10.0, 110, b()),
        ];
        let three = summarize(&w, &reps).expect("summarize");
        reps.push(rep(1.0, 10.0, 900, b()));
        let four = summarize(&w, &reps).expect("summarize");
        assert_eq!(
            value(&three, "allocs_per_tick"),
            Measured {
                value: Some(100.0),
                spread: None
            }
        );
        assert_eq!(
            value(&four, "allocs_per_tick"),
            value(&three, "allocs_per_tick")
        );
        assert_eq!(four.digests, three.digests);
        // The timed side does use the fourth.
        assert_eq!((three.samples, four.samples), (42, 56));
    }

    #[test]
    fn too_few_samples_leave_the_percentiles_without_a_value() {
        let w = WORKLOADS[0];
        let reps = [rep(
            1.0,
            10.0,
            100,
            vec![bank("chlm-eucl", "0x1", "p", None)],
        )];
        let r = summarize(&w, &reps).expect("summarize");
        assert_eq!(value(&r, "tick_ms_p50").value, None);
        assert_eq!(value(&r, "tick_ms_p75").value, None);
        assert_eq!(
            value(&r, "setup_s"),
            Measured {
                value: Some(1.0),
                spread: None
            }
        );
    }

    #[test]
    fn backend_disagreement_and_silent_query_plane_fail_checks_c_and_d() {
        let e27 = WORKLOADS[3];
        let good = |l: &str| bank(l, "0x1", "same", Some(9));
        let mut banks: Vec<Value> = ["ca", "cp", "ga", "gp", "ha", "hp"].map(good).into();
        let ok = summarize(&e27, &[rep(1.0, 10.0, 1, banks.clone())]).expect("summarize");
        assert_eq!(
            ok.checks,
            Checks {
                attempted: 9,
                failures: vec![]
            }
        );
        banks[3] = bank("gp", "0x1", "other", Some(9));
        banks[4] = bank("ha", "0x1", "same", Some(0));
        let bad = summarize(&e27, &[rep(1.0, 10.0, 1, banks)]).expect("summarize");
        let kinds: Vec<&str> = bad.checks.failures.iter().map(|f| &f[..3]).collect();
        assert_eq!(kinds, ["(c)", "(d)"]);
    }

    #[test]
    fn thread_invariance_compares_the_repetitions_both_sides_have() {
        let d = |v: &[&str]| {
            vec![(
                "chlm-eucl".to_string(),
                v.iter().map(|s| s.to_string()).collect(),
            )]
        };
        let mut c = Checks::default();
        check_thread_invariance(&mut c, &d(&["0x1", "0x2"]), &d(&["0x1", "0x2"]));
        // The serial twin may have simulated the first world only.
        check_thread_invariance(&mut c, &d(&["0x1"]), &d(&["0x1", "0x2"]));
        assert_eq!((c.attempted, c.failures.len()), (2, 0));
        check_thread_invariance(&mut c, &d(&["0x9"]), &d(&["0x1", "0x2"]));
        check_thread_invariance(&mut c, &d(&[]), &d(&["0x1"]));
        assert_eq!((c.attempted, c.failures.len()), (4, 2));
    }

    #[test]
    fn checks_round_trip_through_json() {
        let c = Checks {
            attempted: 7,
            failures: vec!["(e) x".to_string()],
        };
        assert_eq!(Checks::from_json(&c.to_json()), Ok(c));
        assert!(Checks::from_json(&Value::Null).is_err());
    }
}
