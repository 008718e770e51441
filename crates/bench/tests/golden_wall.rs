//! The golden wall: every absolute pin of the workspace, in one place.
//!
//! The other suites check the simulator against itself; this one checks it
//! against `tests/golden/pins.txt`, one `name = value` line per pin (`@file`
//! names a JSON snapshot beside it). Each group is its own test, and
//! [`check`] fails once per group, listing every drift. Only for an
//! intentional model change, `CHLM_REGEN_GOLDEN='<reason, naming the parent
//! commit>' cargo test -p chlm-bench --test golden_wall --release` rewrites
//! the drifted pins in place and logs the reason in the manifest's header.

use chlm_bench::{lm_compare, query_crossover};
use chlm_sim::{Backend, HopMetric, LmScheme, LossSpec, MobilityKind, SimConfig, Simulation};
use std::sync::Mutex;

const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
const REGEN: &str = "CHLM_REGEN_GOLDEN";

/// Held from reading the manifest to writing it back (groups run in
/// parallel). A drifting group panics holding it; the `()` stays valid.
static MANIFEST: Mutex<()> = Mutex::new(());

const MOBILITIES: [(&str, MobilityKind); 5] = [
    ("waypoint", MobilityKind::Waypoint),
    ("direction", MobilityKind::Direction { mean_epoch: 2.0 }),
    ("walk", MobilityKind::walk()),
    (
        "rpgm",
        MobilityKind::Rpgm {
            groups: 6,
            group_radius: 2.0,
            jitter_radius: 0.5,
            jitter_speed: 0.5,
        },
    ),
    ("static", MobilityKind::Static),
];
const SEEDS: [u64; 4] = [11, 29, 47, 83];
const LOSSY: [(&str, LmScheme); 3] = [
    ("lossy.chlm", LmScheme::Chlm),
    ("lossy.gls", LmScheme::Gls),
    ("lossy.home", LmScheme::HomeAgent),
];
/// `(name, query rate, ticks, lookups on the last tick)`: two ticks without
/// a lookup, the first lookup after them, a tick with several.
const GLS_QUERY: [(&str, f64, usize, u64); 3] = [
    ("gls_query.rate0.05.tick11", 0.05, 11, 0),
    ("gls_query.rate0.05.tick12", 0.05, 12, 1),
    ("gls_query.rate0.5.tick27", 0.5, 27, 4),
];

/// Report digests at n = 90 over 2 s with the query plane off: a drift
/// means an edit altered simulation arithmetic, not just structure.
#[test]
fn report_digests_match_pre_pipeline_engine() {
    let mut got = Vec::new();
    for (mobility, kind) in MOBILITIES {
        for seed in SEEDS {
            let cfg = SimConfig::builder(90)
                .mobility(kind)
                .duration(2.0)
                .warmup(0.5)
                .seed(seed)
                .query_rate(0.0)
                .build();
            let digest = Simulation::new(cfg).run().digest();
            let name = format!("report.{mobility}.{seed}");
            got.push((name, format!("{digest:#018x}")));
        }
    }
    check(&got);
}

/// The lossy packet path, which the other suites check only against
/// itself: `digest | PacketTotals | query NetworkStats` per scheme under
/// 10 % per-hop loss with 2 retries, BFS pricing and lookups at rate 2, at
/// one thread and at two. Loss draws depend on how a tick's packets are
/// cut into shards and on the per-(seed, tick, shard) stream seeds.
#[test]
fn lossy_packet_results_are_pinned() {
    let fingerprint = |scheme, threads| {
        let loss = LossSpec {
            prob: 0.1,
            max_retries: 2,
            seed: 7,
        };
        let cfg = SimConfig::builder(160)
            .duration(1.5)
            .warmup(0.5)
            .seed(42)
            .query_rate(2.0)
            .lm_scheme(scheme)
            .hop_metric(HopMetric::Bfs)
            .threads(threads)
            .backend(Backend::Packet {
                hop_delay: Backend::DEFAULT_HOP_DELAY,
                loss: Some(loss),
            })
            .build();
        let mut sim = Simulation::new(cfg);
        for _ in 0..sim.config().tick_count() {
            sim.step();
        }
        let observers = sim.observers();
        let totals = observers.handoff.packet_totals().expect("packet backend");
        let query = observers.query.as_ref().and_then(|q| q.query_net());
        let query = query.expect("query plane on");
        // `{:?}` prints floats shortest-round-trip: the string pins every bit.
        format!("{:016x} | {totals:?} | {query:?}", sim.finish().digest())
    };
    let mut got = Vec::new();
    for (name, scheme) in LOSSY {
        let [one, two] = [1, 2].map(|threads| fingerprint(scheme, threads));
        assert_eq!(one, two, "{name}: threads 1 and 2 disagree");
        got.push((name.to_string(), one));
    }
    check(&got);
}

/// A standalone GLS run (n = 120, seed 31): its query half reads the
/// server table its update half advanced every tick, lookups or not.
#[test]
fn gls_query_half_reads_the_update_half_table() {
    let arrivals = |sim: &Simulation| {
        let query = sim.observers().query.as_ref();
        query.map_or(0, |q| q.stats().arrivals)
    };
    let mut got = Vec::new();
    for (name, rate, ticks, last_lookups) in GLS_QUERY {
        let cfg = SimConfig::builder(120)
            .duration(2.0)
            .warmup(0.5)
            .seed(31)
            .lm_scheme(LmScheme::Gls)
            .query_rate(rate)
            .threads(1)
            .build();
        let mut sim = Simulation::new(cfg);
        let mut before = 0;
        for _ in 0..ticks {
            before = arrivals(&sim);
            sim.step();
        }
        let lookups = arrivals(&sim) - before;
        assert_eq!(lookups, last_lookups, "{name}: lookups on the last tick");
        got.push((name.to_string(), format!("{:016x}", sim.finish().digest())));
    }
    check(&got);
}

/// E24's scheme comparison on its pinned grid, through `chlm-exp E24`'s
/// library code: both mobilities x three schemes, priced by the calibrated
/// Euclidean estimate and along hierarchical routes.
#[test]
fn lm_compare_matches_golden_snapshot() {
    let spec = lm_compare::CompareSpec::golden();
    let rows = lm_compare::run_compare(&spec);
    assert_eq!(rows.len(), 2 * 3 * 2);
    check(&[("e24".into(), lm_compare::rows_json(&spec, &rows))]);
}

/// E27's update-vs-query crossover on its pinned grid, through `chlm-exp
/// E27`'s library code.
#[test]
fn query_crossover_matches_golden_snapshot() {
    let spec = query_crossover::CrossoverSpec::golden();
    let (rows, crossovers) = query_crossover::run_crossover(&spec);
    assert_eq!((rows.len(), crossovers.len()), (2 * 6 * 2, 2 * 6));
    let json = query_crossover::rows_json(&spec, &rows, &crossovers);
    check(&[("e27".into(), json)]);
}

/// The manifest pins exactly the case table, in order: no orphan line, no
/// unpinned case.
#[test]
fn manifest_names_match_the_case_table() {
    let mut cases = vec![];
    for (mobility, _) in MOBILITIES {
        cases.extend(SEEDS.map(|seed| format!("report.{mobility}.{seed}")));
    }
    cases.extend(LOSSY.map(|c| c.0.into()));
    cases.extend(GLS_QUERY.map(|c| c.0.into()));
    cases.extend(["e24", "e27"].map(String::from));
    let _lock = MANIFEST.lock().unwrap_or_else(|e| e.into_inner());
    let manifest = read("pins.txt").expect("tests/golden/pins.txt");
    let names: Vec<&str> = entries(&manifest).iter().map(|e| e.0).collect();
    assert_eq!(names, cases);
}

#[test]
fn a_drift_report_names_every_mismatch() {
    let manifest = "# header\na = 1\nb = 2\ns = @s.json\n";
    let got = [("a", "1"), ("b", "20"), ("s", "x\ny\n"), ("d", "4")];
    let got: Vec<_> = got.iter().map(|&(n, v)| (n.into(), v.into())).collect();
    let snapshot = |file: &str| (file == "s.json").then(|| "x\nz\n".into());
    let want = ["b: 2 → 20", "s: s.json line 2 differs", "d: (unpinned) → 4"];
    assert_eq!(drifts(manifest, &got, snapshot), want);
    let regenerated = rewrite(manifest, &got, "why");
    let want = "# header\n# why\na = 1\nb = 20\ns = @s.json\nd = 4\n";
    assert_eq!(regenerated, want);
    assert!(drifts(&regenerated, &got[..2], snapshot).is_empty());
    // A second group of the same run adds no second reason line.
    assert_eq!(rewrite(&regenerated, &got, "why"), regenerated);
}

/// A group's cases as run: `(manifest name, value)`.
type Pins = [(String, String)];

/// Compare a group with the manifest and fail once, listing every drift;
/// with `CHLM_REGEN_GOLDEN=<reason>` set, write the group's values instead.
fn check(got: &Pins) {
    let _lock = MANIFEST.lock().unwrap_or_else(|e| e.into_inner());
    let manifest = read("pins.txt").expect("tests/golden/pins.txt");
    let found = drifts(&manifest, got, read);
    if found.is_empty() {
        return;
    }
    let list = found.join("\n  ");
    let Ok(reason) = std::env::var(REGEN) else {
        panic!(
            "pins drifted:\n  {list}\nonly for an intentional model change, regenerate with \
             {REGEN}='<reason>' cargo test -p chlm-bench --test golden_wall --release"
        );
    };
    assert!(!reason.trim().is_empty(), "{REGEN} must name a reason");
    let write = |file: &str, text: &str| std::fs::write(format!("{DIR}/{file}"), text);
    for (name, value) in got {
        if let Some(file) = pinned(&manifest, name).and_then(|v| v.strip_prefix('@')) {
            write(file, value).expect("write snapshot");
        }
    }
    write("pins.txt", &rewrite(&manifest, got, &reason)).expect("write manifest");
    eprintln!("regenerated:\n  {list}");
}

fn read(file: &str) -> Option<String> {
    std::fs::read_to_string(format!("{DIR}/{file}")).ok()
}

/// The manifest's `name = value` entries in order, past `#` comments.
fn entries(manifest: &str) -> Vec<(&str, &str)> {
    let lines = manifest.lines().filter(|l| !l.starts_with('#'));
    lines.filter_map(|l| l.split_once(" = ")).collect()
}

fn pinned<'m>(manifest: &'m str, name: &str) -> Option<&'m str> {
    let entry = entries(manifest).into_iter().find(|e| e.0 == name);
    entry.map(|e| e.1)
}

/// Every case of `got` whose value is not the pinned one, as `name: want →
/// got`; a snapshot entry compares with its file's contents, as `read`
/// returns them, and names the first line that differs.
fn drifts(manifest: &str, got: &Pins, read: impl Fn(&str) -> Option<String>) -> Vec<String> {
    let mut found = Vec::new();
    for (name, got) in got {
        let entry = pinned(manifest, name);
        let file = entry.and_then(|v| v.strip_prefix('@'));
        let want = file.map_or(entry.map(String::from), &read);
        if want.as_ref() == Some(got) {
            continue;
        }
        let want = want.unwrap_or("(unpinned)".into());
        found.push(match file {
            None => format!("{name}: {want} → {got}"),
            Some(file) => {
                let same = want.lines().zip(got.lines()).take_while(|(w, g)| w == g);
                format!("{name}: {file} line {} differs", same.count() + 1)
            }
        });
    }
    found
}

/// `manifest` with `got`'s values in place (a case it lacked appended) and
/// `# reason` closing the header, unless another group of the same run
/// wrote it. A snapshot entry keeps its line.
fn rewrite(manifest: &str, got: &Pins, reason: &str) -> String {
    let mut lines: Vec<String> = manifest.lines().map(String::from).collect();
    for (name, value) in got {
        let named = |l: &String| l.split_once(" = ").is_some_and(|(n, _)| n == name);
        match lines.iter().position(named) {
            Some(at) if lines[at].contains(" = @") => {}
            Some(at) => lines[at] = format!("{name} = {value}"),
            None => lines.push(format!("{name} = {value}")),
        }
    }
    let note = format!("# {reason}");
    if !lines.contains(&note) {
        let header = lines.iter().take_while(|l| l.starts_with('#')).count();
        lines.insert(header, note);
    }
    lines.iter().map(|l| format!("{l}\n")).collect()
}
