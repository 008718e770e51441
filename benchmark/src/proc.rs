//! Process plumbing: command-line flags, fresh child processes, peak RSS.

use crate::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// `--key value` / `--flag` arguments after the subcommand.
pub struct Args {
    rest: Vec<String>,
}

impl Args {
    pub fn new(rest: Vec<String>) -> Self {
        Args { rest }
    }

    /// Remove `--name <value>` and return the value.
    pub fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.rest.len() {
            return Err(format!("{name} needs a value"));
        }
        self.rest.remove(i);
        Ok(Some(self.rest.remove(i)))
    }

    /// Remove `--name <value>` and parse it.
    pub fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot parse {v:?}")),
        }
    }

    /// Remove `--name` and report whether it was there.
    pub fn flag(&mut self, name: &str) -> bool {
        match self.rest.iter().position(|a| a == name) {
            Some(i) => {
                self.rest.remove(i);
                true
            }
            None => false,
        }
    }

    /// The positional arguments left over; an unconsumed `--flag` is an
    /// error, so a typo cannot silently fall back to a default.
    pub fn finish(self) -> Result<Vec<String>, String> {
        match self.rest.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown argument {unknown}")),
            None => Ok(self.rest),
        }
    }
}

/// Exit status of a command: 0 done, 1 a check (or a `worse`) failed, 2
/// the command could not run, with the reason on standard error.
pub fn exit_code(program: &str, outcome: Result<bool, String>) -> ExitCode {
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{program}: {message}");
            ExitCode::from(2)
        }
    }
}

/// The binary `name` built beside the running one.
pub fn sibling_exe(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = me.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is not built; build it with `cargo build --release --offline --bin {name}`",
            path.display()
        ))
    }
}

/// Run `exe args…` to completion as a fresh process — so its peak RSS and
/// allocator counters belong to one repetition — and parse the last line
/// of its standard output as JSON. Its standard error passes through.
pub fn run_child(exe: &Path, args: &[String]) -> Result<Value, String> {
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("child {args:?} exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|_| "child output is not UTF-8")?;
    let last = text.lines().last().ok_or("child printed nothing")?;
    json::parse(last)
}

/// Call `one` with 0, 1, 2, … (a repetition in a fresh child) until
/// `budget_s` seconds are spent: always `min_reps` times, and after that
/// only while another repetition as long as the longest so far still fits.
pub fn repeat_within(
    budget_s: f64,
    min_reps: usize,
    mut one: impl FnMut(usize) -> Result<Value, String>,
) -> Result<Vec<Value>, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut longest = 0.0_f64;
    loop {
        let began = Instant::now();
        reps.push(one(reps.len())?);
        longest = longest.max(began.elapsed().as_secs_f64());
        if reps.len() >= min_reps && start.elapsed().as_secs_f64() + longest > budget_s {
            return Ok(reps);
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_values_and_positionals_are_separated() {
        let mut a = args(&["a.json", "--seed", "23", "--smoke", "b.json"]);
        assert_eq!(a.parsed::<u64>("--seed"), Ok(Some(23)));
        assert_eq!(a.parsed::<u64>("--seconds"), Ok(None));
        assert!(a.flag("--smoke"));
        assert!(!a.flag("--smoke"));
        assert_eq!(
            a.finish(),
            Ok(vec!["a.json".to_string(), "b.json".to_string()])
        );
    }

    #[test]
    fn bad_arguments_are_errors() {
        assert!(args(&["--seed"]).value("--seed").is_err());
        assert!(args(&["--seed", "x"]).parsed::<u64>("--seed").is_err());
        assert!(args(&["--sed", "1"]).finish().is_err());
    }

    #[test]
    fn repetitions_stop_at_the_budget_but_never_below_the_minimum() {
        let slow = |repetition: usize| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            Ok(Value::from(repetition))
        };
        // No budget at all: the minimum still runs.
        let indices = vec![0_usize.into(), 1_usize.into(), 2_usize.into()];
        assert_eq!(repeat_within(0.0, 3, slow), Ok(indices));
        // 20 ms repetitions in a 90 ms budget: at least 3, and the fifth
        // would not fit.
        let n = repeat_within(0.09, 1, slow).map(|r| r.len()).unwrap_or(0);
        assert!((3..=4).contains(&n), "{n} repetitions");
        assert!(repeat_within(1.0, 1, |_| Err("boom".to_string())).is_err());
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(204800.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
