//! Workspace call graph and step-path reachability.
//!
//! Edges come from best-effort name resolution over the parsed function
//! table: a method call resolves to every workspace method with that
//! name, `Type::f(..)` to members of `Type` (or impls of trait `Type`),
//! and a bare `f(..)` to every free function named `f`. That is an
//! over-approximation — exactly what a lint wants: a function that
//! *might* be on the per-tick step path is held to step-path rules.
//!
//! Roots are the engine entry points (`MultiplexSim::step`, the one tick
//! loop, and `Simulation::step`, its one-bank delegation), every impl of
//! the stage/observer/cost/scheme traits, and the `chlm-par` pool
//! internals (its closures run inside worker threads on the step path).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::analysis::model::Workspace;
use crate::analysis::scan::{self, ChainSeg};
use crate::json;

/// Traits whose implementations execute inside `MultiplexSim::step`
/// every tick.
pub const ROOT_TRAITS: [&str; 11] = [
    "MobilityStage",
    "TopologyStage",
    "HierarchyStage",
    "AssignmentStage",
    "Observer",
    "HandoffAccounting",
    "Scheme",
    "QueryAccounting",
    "CostModel",
    "HopPricer",
    "Engine",
];

/// `Type::method` pairs that root the reachability walk directly. The
/// per-tick entry points of the topology maintainer and the hierarchy
/// rebuild are listed explicitly so the walk still covers them if a
/// stage stops calling one.
pub const ROOT_FNS: [(&str, &str); 4] = [
    ("Simulation", "step"),
    ("MultiplexSim", "step"),
    ("Hierarchy", "rebuild"),
    ("UnitDiskMaintainer", "advance"),
];

/// Files whose non-test functions are roots wholesale (the worker-pool
/// crate: everything it runs happens on worker threads mid-tick).
pub const ROOT_PATH_PREFIX: &str = "crates/par/src/";

/// One resolved call edge out of a function.
#[derive(Debug)]
pub struct CallEdge {
    /// Callee node id.
    pub callee: usize,
    /// Call-site line in the caller's file.
    pub line: usize,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Outgoing edges per node id.
    pub edges: Vec<Vec<CallEdge>>,
    /// Node ids of the reachability roots, sorted.
    pub roots: Vec<usize>,
    /// `reachable[id]` — node sits on the step path (roots included).
    pub reachable: Vec<bool>,
}

/// Name-resolution index over the function table.
pub struct Resolver {
    /// method/assoc-fn name → ids (anything owned by a type or trait).
    members: BTreeMap<String, Vec<usize>>,
    /// (owner base, name) → ids; owner is the impl self type.
    typed: BTreeMap<(String, String), Vec<usize>>,
    /// (trait base, name) → ids (impl members and trait defaults).
    trait_members: BTreeMap<(String, String), Vec<usize>>,
    /// free fn name → ids.
    free: BTreeMap<String, Vec<usize>>,
}

impl Resolver {
    pub fn build(ws: &Workspace) -> Resolver {
        let mut r = Resolver {
            members: BTreeMap::new(),
            typed: BTreeMap::new(),
            trait_members: BTreeMap::new(),
            free: BTreeMap::new(),
        };
        for f in &ws.fns {
            if f.is_test {
                continue; // test helpers never join the production graph
            }
            match (&f.self_ty, &f.trait_) {
                (Some(ty), tr) => {
                    r.members.entry(f.name.clone()).or_default().push(f.id);
                    r.typed
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(f.id);
                    if let Some(tr) = tr {
                        r.trait_members
                            .entry((tr.clone(), f.name.clone()))
                            .or_default()
                            .push(f.id);
                    }
                }
                (None, Some(tr)) => {
                    // Trait declaration / default body.
                    r.members.entry(f.name.clone()).or_default().push(f.id);
                    r.trait_members
                        .entry((tr.clone(), f.name.clone()))
                        .or_default()
                        .push(f.id);
                }
                (None, None) => {
                    r.free.entry(f.name.clone()).or_default().push(f.id);
                }
            }
        }
        r
    }

    pub fn methods_named(&self, name: &str) -> &[usize] {
        self.members.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn free_named(&self, name: &str) -> &[usize] {
        self.free.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn typed_named(&self, owner: &str, name: &str) -> &[usize] {
        self.typed
            .get(&(owner.to_string(), name.to_string()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    pub fn trait_named(&self, tr: &str, name: &str) -> &[usize] {
        self.trait_members
            .get(&(tr.to_string(), name.to_string()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Resolve a qualified call `qual::name(..)` from inside `caller_ty`.
    pub fn resolve_path(&self, qual: &str, name: &str, caller_ty: Option<&str>) -> Vec<usize> {
        let qual = if qual == "Self" {
            match caller_ty {
                Some(ty) => ty,
                None => return Vec::new(),
            }
        } else {
            qual
        };
        let mut ids: Vec<usize> = self.typed_named(qual, name).to_vec();
        ids.extend_from_slice(self.trait_named(qual, name));
        if ids.is_empty() && qual.chars().next().is_some_and(|c| c.is_lowercase()) {
            // Module-qualified free call (`json::array(..)`).
            ids.extend_from_slice(self.free_named(name));
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Build the call graph and mark step-path reachability.
pub fn build(ws: &Workspace, resolver: &Resolver) -> CallGraph {
    let mut graph = CallGraph {
        edges: Vec::with_capacity(ws.fns.len()),
        ..CallGraph::default()
    };

    for f in &ws.fns {
        let mut out: Vec<CallEdge> = Vec::new();
        if f.has_body && !f.is_test {
            let mut push = |ids: &[usize], line: usize| {
                for &id in ids {
                    if id != f.id {
                        out.push(CallEdge { callee: id, line });
                    }
                }
            };
            for mc in scan::method_calls(&f.flat) {
                // `self.field.get(..)` style accessor chains still resolve
                // by the final method name alone.
                push(resolver.methods_named(&mc.name), mc.line);
                // A bare-looking method on `self` can also be a free fn
                // brought into scope; the chain disambiguates enough here.
                let chain = scan::receiver_chain(&f.flat, mc.dot);
                if chain.is_empty() || chain == [ChainSeg::Other] {
                    push(resolver.free_named(&mc.name), mc.line);
                }
            }
            for pc in scan::path_calls(&f.flat) {
                let name = &pc.segs[pc.segs.len() - 1];
                if pc.segs.len() == 1 {
                    push(resolver.free_named(name), pc.line);
                } else {
                    let qual = &pc.segs[pc.segs.len() - 2];
                    let ids = resolver.resolve_path(qual, name, f.self_ty.as_deref());
                    push(&ids, pc.line);
                }
            }
            // Function references passed as values (`.map(helper)`,
            // `Stage::new(compute_cost)`) keep the callee on the graph:
            // any bare ident that names a free fn and is not a call head
            // was already covered above if called; here we catch the
            // by-name case conservatively.
            for (i, t) in f.flat.toks.iter().enumerate() {
                if t.kind == scan::TokKind::Ident
                    && !f.flat.is_punct(i + 1, '(')
                    && !f.flat.is_open(i + 1, syn::Delimiter::Parenthesis)
                    && !resolver.free_named(&t.text).is_empty()
                    && !f.flat.is_punct(i.wrapping_sub(1), '.')
                {
                    push(resolver.free_named(&t.text), t.line);
                }
            }
        }
        out.sort_by_key(|e| (e.callee, e.line));
        out.dedup_by_key(|e| (e.callee, e.line));
        graph.edges.push(out);
    }

    // Roots.
    let mut roots = BTreeSet::new();
    for f in &ws.fns {
        if f.is_test {
            continue;
        }
        let rooted = ROOT_FNS
            .iter()
            .any(|(ty, name)| f.self_ty.as_deref() == Some(*ty) && f.name == *name)
            || f.trait_
                .as_deref()
                .is_some_and(|tr| ROOT_TRAITS.contains(&tr))
            || ws.files[f.file].rel.starts_with(ROOT_PATH_PREFIX);
        if rooted {
            roots.insert(f.id);
        }
    }

    // BFS.
    let mut reachable = vec![false; ws.fns.len()];
    let mut queue: VecDeque<usize> = roots.iter().copied().collect();
    for &r in &roots {
        reachable[r] = true;
    }
    while let Some(id) = queue.pop_front() {
        for e in &graph.edges[id] {
            if !reachable[e.callee] && !ws.fns[e.callee].is_test {
                reachable[e.callee] = true;
                queue.push_back(e.callee);
            }
        }
    }

    graph.roots = roots.into_iter().collect();
    graph.reachable = reachable;
    graph
}

/// Render the reachability report (`target/step_reach.json`).
pub fn reach_json(ws: &Workspace, graph: &CallGraph) -> String {
    let roots = json::array(
        graph
            .roots
            .iter()
            .map(|&id| format!("\"{}\"", json::escape(&ws.fns[id].qual))),
    );
    let mut reach: Vec<&crate::analysis::model::FnNode> =
        ws.fns.iter().filter(|f| graph.reachable[f.id]).collect();
    reach.sort_by(|a, b| {
        (&ws.files[a.file].rel, a.line, &a.qual).cmp(&(&ws.files[b.file].rel, b.line, &b.qual))
    });
    let functions = json::array(reach.iter().map(|f| {
        let mut o = json::Object::new();
        o.str_field("fn", &f.qual)
            .str_field("file", &ws.files[f.file].rel)
            .num_field("line", f.line as u64)
            .bool_field("root", graph.roots.binary_search(&f.id).is_ok());
        o.finish()
    }));
    let mut o = json::Object::new();
    o.raw_field("roots", &roots)
        .num_field("count", reach.len() as u64)
        .raw_field("functions", &functions);
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_of(src: &str) -> Workspace {
        let mut ws = Workspace::default();
        ws.add_file("crates/sim/src/engine.rs".into(), src.to_string())
            .expect("parse");
        ws
    }

    #[test]
    fn reachability_flows_from_step() {
        let ws = ws_of(
            "pub struct Simulation;\n\
             impl Simulation {\n\
                 pub fn step(&mut self) { helper(self.book.len()); self.advance(); }\n\
                 fn advance(&mut self) { leaf(); }\n\
                 fn unrelated_api(&self) { other(); }\n\
             }\n\
             fn helper(n: usize) { leaf(); }\n\
             fn leaf() {}\n\
             fn other() {}\n\
             #[cfg(test)] mod tests { fn t() { other(); } }\n",
        );
        let g = build(&ws, &Resolver::build(&ws));
        let by_name = |n: &str| ws.fns.iter().find(|f| f.qual == n).expect("fn").id;
        assert!(g.reachable[by_name("Simulation::step")]);
        assert!(g.reachable[by_name("helper")]);
        assert!(g.reachable[by_name("Simulation::advance")]);
        assert!(g.reachable[by_name("leaf")]);
        assert!(!g.reachable[by_name("other")], "only called off-path");
        let js = reach_json(&ws, &g);
        assert!(crate::json::validate(&js), "{js}");
        assert!(js.contains("\"Simulation::step\""));
    }

    #[test]
    fn trait_impls_and_par_files_are_roots() {
        let mut ws = Workspace::default();
        ws.add_file(
            "crates/sim/src/stage.rs".into(),
            "impl Observer for Counter { fn observe(&mut self) { tally(); } }\n\
             fn tally() {}\n"
                .into(),
        )
        .expect("parse");
        ws.add_file(
            "crates/par/src/lib.rs".into(),
            "pub fn run_indexed() {}\n".into(),
        )
        .expect("parse");
        let g = build(&ws, &Resolver::build(&ws));
        assert!(g.reachable.iter().all(|&r| r), "{:?}", g.reachable);
        assert_eq!(g.roots.len(), 2);
    }

    #[test]
    fn no_roots_means_nothing_reachable() {
        let ws = ws_of("fn a() { b(); } fn b() {}");
        let g = build(&ws, &Resolver::build(&ws));
        assert!(g.roots.is_empty());
        assert!(g.reachable.iter().all(|&r| !r));
    }
}
