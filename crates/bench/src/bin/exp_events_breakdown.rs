//! E10 (§5.2): the reorganization-event taxonomy.
//!
//! Counts events (i)–(vii) per level per node-second, and the occurrences
//! of the *converse* of (vii) — a neighboring upper cluster dying — which
//! the paper argues incurs no handoff (we verify the case actually arises,
//! so the zero-cost claim is exercised, not vacuous).

use chlm_analysis::table::{fnum, TextTable};
use chlm_bench::{banner, env_usize, standard_sweep, MIN_N};

fn main() {
    banner("E10 / §5.2", "event classes (i)-(vii) frequency breakdown");
    let n = env_usize("CHLM_MAX_N", 1024, MIN_N).min(1024);
    let reports = &standard_sweep(&[n], 10_000)[0];
    let node_seconds: f64 = reports.iter().map(|r| r.rates.node_seconds).sum();

    // Pool counts across replications.
    let depth = reports.iter().map(|r| r.events.counts.len()).max().unwrap();
    let labels = ["i", "ii", "iii", "iv", "v", "vi", "vii"];
    let mut headers = vec!["level".to_string()];
    headers.extend(labels.iter().map(|l| format!("({l})")));
    headers.push("conv(vii)".into());
    let mut t = TextTable::new(headers);
    let mut class_totals = [0u64; 7];
    let mut conv_total = 0u64;
    for k in 1..depth {
        let mut row = vec![format!("{k}")];
        for c in 0..7 {
            let total: u64 = reports
                .iter()
                .map(|r| r.events.counts.get(k).map_or(0, |r| r[c]))
                .sum();
            class_totals[c] += total;
            row.push(fnum(total as f64 / node_seconds * 1000.0));
        }
        let conv: u64 = reports
            .iter()
            .map(|r| r.events.converse_vii.get(k).copied().unwrap_or(0))
            .sum();
        conv_total += conv;
        row.push(format!("{conv}"));
        t.row(row);
    }
    println!("rates in events per node per 1000 s; conv(vii) as raw count:");
    println!("{}", t.render());

    println!(
        "class totals (raw events across {} node-seconds):",
        node_seconds as u64
    );
    for (c, label) in labels.iter().enumerate() {
        println!("  ({label:>3}): {}", class_totals[c]);
    }
    println!("  converse of (vii) occurrences: {conv_total} (each incurs ZERO handoff");
    println!("  by the paper's argument — the members already hold the LM hierarchy).");
    // Steady-state balance: elections ≈ rejections (paper: f_ELECT = f_REJECT).
    let elect = class_totals[2] + class_totals[4];
    let reject = class_totals[3] + class_totals[5];
    println!(
        "\nelection/rejection balance: {elect} vs {reject} (ratio {:.2}; §5.3.2 predicts ≈ 1)",
        elect as f64 / reject.max(1) as f64
    );
}
