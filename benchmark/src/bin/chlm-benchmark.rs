//! End-to-end benchmark of the CHLM simulator, tracing off. See README.md.
//!
//! This binary reaches the simulator only through `chlm_benchmark::
//! {workload, measure}`, which use nothing but the `chlm_sim` facade.

use chlm_benchmark::alloc::CountingAlloc;
use chlm_benchmark::json::{self, obj, Value};
use chlm_benchmark::measure::{self, timed};
use chlm_benchmark::proc::{exit_code, repeat_within, run_child, sibling_exe, Args};
use chlm_benchmark::result::{
    check_thread_invariance, summarize, Checks, WorkloadResult, COUNTED_REPS, E2E_METRICS,
};
use chlm_benchmark::stats::median;
use chlm_benchmark::workload::{Workload, DEFAULT_SEED, WORKLOADS};
use chlm_benchmark::{compare, contract};
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  chlm-benchmark run [--seed S] [--workload W] [--smoke]
      every workload (or W), 3 interleaved repetitions each; JSON on stdout,
      a table on stderr; exit 1 if a check fails
  chlm-benchmark compare <a.json> <b.json>
      two `run` results, metric by metric; exit 1 on any `worse`
  chlm-benchmark bench --workload W --seed S --seconds T --trace 0|1
      one workload for about T seconds, as BENCHMARK.json's command runs it
  chlm-benchmark contract
      print BENCHMARK.json as the code defines it";

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = Args::new(argv.collect());
    let outcome = match command.as_str() {
        "run" => run(args),
        "bench" => bench(args),
        "compare" => compare_files(args),
        "child" => child(args),
        "contract" => args.finish().map(|_| {
            println!("{}", contract::document().render_lines(2));
            true
        }),
        _ => Err(format!("unknown command {command:?}\n{USAGE}")),
    };
    exit_code("chlm-benchmark", outcome)
}

/// One repetition, in this (fresh) process. `--seed` is the world seed.
fn child(mut args: Args) -> Result<bool, String> {
    let workload = Workload::named(&args.value("--workload")?.ok_or("child needs --workload")?)?;
    let seed = args.parsed("--seed")?.ok_or("child needs --seed")?;
    let smoke = args.flag("--smoke");
    args.finish()?;
    println!("{}", measure::repetition(&workload, seed, smoke).render());
    Ok(true)
}

/// Check (b) when the threads=1 twin was not measured in this invocation:
/// one repetition of it on the first world, for its digest alone.
fn check_against_serial_twin(
    result: &mut WorkloadResult,
    twin: &Workload,
    me: &Path,
    seed: u64,
    smoke: bool,
) -> Result<(), String> {
    let rep = run_child(me, &twin.child_args(seed, 0, smoke))?;
    let serial = summarize(twin, &[rep])?;
    check_thread_invariance(&mut result.checks, &serial.digests, &result.digests);
    Ok(())
}

fn run(mut args: Args) -> Result<bool, String> {
    let seed = args.parsed("--seed")?.unwrap_or(DEFAULT_SEED);
    let only = args.value("--workload")?;
    let smoke = args.flag("--smoke");
    args.finish()?;
    let selected: Vec<Workload> = match &only {
        Some(name) => vec![Workload::named(name)?],
        None => WORKLOADS.to_vec(),
    };
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let repetitions = if smoke { 1 } else { COUNTED_REPS };
    // A B C D A B C D A B C D: machine drift lands on every workload alike.
    let mut reps: Vec<Vec<Value>> = vec![Vec::new(); selected.len()];
    let (wall_s, spawned) = timed(|| -> Result<(), String> {
        for round in 0..repetitions {
            for (i, w) in selected.iter().enumerate() {
                eprintln!("[{}/{repetitions}] {}", round + 1, w.name);
                reps[i].push(run_child(&me, &w.child_args(seed, round, smoke))?);
            }
        }
        Ok(())
    });
    spawned?;
    let mut results = Vec::new();
    for (w, reps) in selected.iter().zip(&reps) {
        results.push(summarize(w, reps)?);
    }
    // (b), against the twin's own result when this run measured it.
    for (i, w) in selected.iter().enumerate() {
        let Some(twin) = w.serial_twin() else {
            continue;
        };
        match selected.iter().position(|s| *s == twin) {
            Some(t) => {
                let (serial, own) = (results[t].digests.clone(), results[i].digests.clone());
                check_thread_invariance(&mut results[i].checks, &serial, &own);
            }
            None => check_against_serial_twin(&mut results[i], &twin, &me, seed, smoke)?,
        }
    }
    let mut all = Checks::default();
    for r in &results {
        eprint!("{}", r.table());
        all.absorb(r.checks.clone());
    }
    let fail_ratio = all.failures.len() as f64 / all.attempted.max(1) as f64;
    eprintln!(
        "seed {seed}{}: {} checks attempted, {} failed (fail_ratio {fail_ratio}), wall {wall_s:.1} s",
        if smoke { ", smoke" } else { "" },
        all.attempted,
        all.failures.len(),
    );
    let out = obj([
        ("schema", "chlm-benchmark-v1".into()),
        ("mode", "run".into()),
        ("seed", seed.into()),
        ("smoke", smoke.into()),
        ("wall_s", wall_s.into()),
        ("fail_ratio", fail_ratio.into()),
        ("checks", all.to_json()),
        (
            "workloads",
            Value::Arr(results.iter().map(WorkloadResult::to_json).collect()),
        ),
    ]);
    println!("{}", out.render());
    Ok(all.failures.is_empty())
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // A `run` result is the last line of what `run` printed.
    json::parse(text.trim_end().lines().last().unwrap_or("")).map_err(|e| format!("{path}: {e}"))
}

fn compare_files(args: Args) -> Result<bool, String> {
    let files = args.finish()?;
    let [a, b] = files.as_slice() else {
        return Err(format!("compare needs two files\n{USAGE}"));
    };
    let (a, b) = (read_json(a)?, read_json(b)?);
    let rows = compare::rows(&a, &b)?;
    print!("{}", compare::table(&rows));
    let changed = compare::digest_changes(&a, &b)?;
    for (workload, bank, da, db) in &changed {
        println!("sim_digest {workload} {bank}: {da} -> {db}");
    }
    if changed.is_empty() {
        println!("sim_digest: identical on every bank");
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let worse = count(compare::Verdict::Worse);
    println!(
        "{} ok, {worse} worse, {} unresolved",
        count(compare::Verdict::Ok),
        count(compare::Verdict::Unresolved)
    );
    Ok(worse == 0)
}

/// The benchmark contract: one workload, repetitions in fresh child
/// processes until `--seconds` are spent, one JSON object as the last line.
fn bench(mut args: Args) -> Result<bool, String> {
    let workload = Workload::named(&args.value("--workload")?.ok_or("bench needs --workload")?)?;
    let seed: u64 = args.parsed("--seed")?.ok_or("bench needs --seed")?;
    let seconds: f64 = args.parsed("--seconds")?.ok_or("bench needs --seconds")?;
    let trace: u8 = args.parsed("--trace")?.ok_or("bench needs --trace")?;
    args.finish()?;
    if !(seconds > 0.0 && seconds.is_finite()) || trace > 1 {
        return Err("--seconds must be positive and --trace 0 or 1".into());
    }
    let (metrics, checks) = if trace == 1 {
        bench_layers(&workload, seed, seconds)?
    } else {
        bench_end_to_end(&workload, seed, seconds)?
    };
    for failure in &checks.failures {
        eprintln!("FAILED {failure}");
    }
    let line = obj([
        ("correct", checks.failures.is_empty().into()),
        ("attempted", checks.attempted.into()),
        ("failed", checks.failures.len().into()),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(checks.failures.is_empty())
}

fn metric_field(value: f64, unit: &str) -> Value {
    obj([("value", value.into()), ("unit", unit.into())])
}

fn bench_end_to_end(
    workload: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<(Vec<(String, Value)>, Checks), String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let reps = repeat_within(seconds, COUNTED_REPS, |repetition| {
        run_child(&me, &workload.child_args(seed, repetition, false))
    })?;
    let mut result = summarize(workload, &reps)?;
    if let Some(twin) = workload.serial_twin() {
        check_against_serial_twin(&mut result, &twin, &me, seed, false)?;
    }
    eprint!("{}", result.table());
    let mut metrics = Vec::new();
    for (spec, m) in E2E_METRICS.iter().zip(&result.metrics) {
        let value = m
            .value
            .ok_or_else(|| format!("{} has no value over {} samples", spec.name, result.samples))?;
        metrics.push((spec.name.to_string(), metric_field(value, spec.unit)));
    }
    Ok((metrics, result.checks))
}

/// `--trace 1`: the per-layer metrics, from `chlm-benchmark-trace`'s
/// children; each metric is the median over the repetitions that fit.
fn bench_layers(
    workload: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<(Vec<(String, Value)>, Checks), String> {
    let tracer = sibling_exe("chlm-benchmark-trace")?;
    let reps = repeat_within(seconds, 1, |repetition| {
        run_child(&tracer, &workload.child_args(seed, repetition, false))
    })?;
    let mut checks = Checks::default();
    for rep in &reps {
        let c = rep.get("checks").ok_or("trace child output lacks checks")?;
        checks.absorb(Checks::from_json(c)?);
    }
    let first = reps[0]
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("trace child output lacks metrics")?;
    let mut metrics = Vec::new();
    for (name, field) in first {
        let unit = field.get("unit").and_then(Value::as_str).unwrap_or("");
        let values: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        metrics.push((name.clone(), metric_field(median(&values), unit)));
    }
    Ok((metrics, checks))
}
