#!/usr/bin/env bash
# Full correctness gate: the one copy, which the CI workflow's `checks`
# job runs as is. Any step failing fails the script. Run from the
# workspace root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"
# A set CHLM_REGEN_GOLDEN makes the golden wall rewrite its pins instead
# of checking them; the gate never regenerates.
unset CHLM_REGEN_GOLDEN

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -q -- -D warnings

step "cargo xtask lint"
cargo xtask lint

# Machine-readable artifacts for downstream gating: the findings report
# and the step-path reachability export (written by the same run).
step "cargo xtask lint --json artifact"
mkdir -p target
cargo xtask lint --json > target/lint_report.json
test -s target/step_reach.json

# One tick loop (MultiplexSim::step), one production stage set, one
# accounting observer per plane over one packet executor: these names
# belonged to the second engine, the config-selected slow stages (whose
# from-scratch reference now lives only under crates/sim/tests/), the six
# per-(scheme, backend) observers, chlm-proto's second copy of the handoff
# message set, the inner-thread env knob, and the private shortest-path
# state of the hop oracle (row cache + buffer pool) and of the packet
# network (per-destination next-hop trees) that the graph's hop store replaced,
# the LM walk's cross-tick entry reuse with the cluster arena that fed
# it (1 % of entries on every workload), the second facade crate with
# its per-size sweep loop (every sweep is one `run_sweep` pool now), and
# the diff-driven hierarchy maintainer with its snapshot copy and owned-
# graph build (`Hierarchy::rebuild` writes every tick's hierarchy in
# place; at the tick every run uses, no tick took the repair's fast path),
# and the CHLM-only, handoff-only hint that told the BFS cost model which
# rows to compute ahead of pricing (every transport now warms the rows of
# its own legs, `Transport::carry` -> `Graph::fill_hops`), and the
# pricing stack one `Pricing` replaced: three model structs, the oracle
# and its prefill, the routing pricer, the engine's second metric match
# and the stub pricer handed to world observers that never price, and
# the per-root row store with its per-lane scatter kernel (one heap row
# per BFS root; the hop store keeps bit-plane blocks of 64 roots, read
# one pair at a time through `Graph::hops`), and the per-tick random walk
# (a heading drawn once per tick made its law depend on the tick length;
# the walk is `RandomDirection` at `WALK_EPOCH`), and the wire-message
# vocabulary no executor read with the scheme seam's two half-traits and
# lookup view (a leg is its `(src, dst)` pair; one `Scheme` trait takes the
# `TickCtx`), and the assignment-rule knob only one test ever set (the
# engine selects by HRW; E14's ablation calls `LmAssignment::compute`), and
# the lookup pricers that ran beside the query plane with their two route
# types (a lookup is priced only by a bank's `QueryBook`; both schemes'
# route functions return one `chlm_lm::query::Route`), and the disjoint-set
# forest and the hash-set alias that nothing outside their own tests used.
# Fail if one comes back into production source. (`if`, not `! grep`:
# errexit ignores a status inverted with `!`.) The last entry is a layout,
# not a name: `chlm_graph::Graph` keeps its neighbor rows in one arena, and
# a heap block per node (`adj: Vec<Vec<NodeIdx>>`) must not come back.
step "leftover check (removed twins stay removed)"
removed='full_rebuild\|PacketEngine\|with_handoff\|run_engine'
removed+='\|LedgerHandoffObserver\|PacketHandoffObserver\|AnalyticSchemeObserver\|PacketSchemeObserver\|AnalyticQueryObserver\|PacketQueryObserver\|send_handoff\|execute_handoff\|execute_queries\|THREADS_INNER'
removed+='\|tree_for\|with_pool\|into_pool\|cached_sources'
removed+='\|ClusterArena\|ClusterHandle\|ArenaStamps\|subtree_changed_at\|compute_cached_stamped\|entries_reused\|debug_desync_arena\|LmCache'
removed+='\|chlm_core\|run_replications\|SweepPoint'
removed+='\|HierarchyMaintainer\|IncrementalHierarchy\|snapshot_into\|escalation_count\|build_owned'
removed+='\|collect_chlm_bfs_sources\|wants_bfs_sources'
removed+='\|DistanceOracle\|BfsCostModel\|EuclideanCostModel\|HierRoutingCostModel\|HierPricer\|InertPricer\|variant_cost_model'
removed+='\|hop_row(\|batch_rows'
removed+='\|RandomWalk\|MobilityKind::Walk'
removed+='\|LmMessage\|SchemeWorkload\|SchemeLookup\|LookupWorld\|selection_rule'
removed+='\|QueryOutcome\|gls_resolve(\|QueryRoute\|GlsRoute'
removed+='\|UnionFind\|FastSet'
removed+='\|adj: Vec<Vec<'
if grep -rn "$removed" crates/*/src src xtask/src examples; then
  echo "leftover check: a removed name is back in production source" >&2
  exit 1
fi
if [ -e crates/mobility/src/walk.rs ]; then
  echo "leftover check: crates/mobility/src/walk.rs is back; the walk is RandomDirection at WALK_EPOCH" >&2
  exit 1
fi
if [ -e crates/proto/src/message.rs ]; then
  echo "leftover check: crates/proto/src/message.rs is back; a packet is its (src, dst) pair" >&2
  exit 1
fi
# Every mobile experiment steps the engine (`Simulation` or `MultiplexSim`)
# and reads its snapshots: a private tick loop over a mobility model must
# not come back into the experiments.
if grep -rn 'RandomWaypoint\|MobilityModel' crates/bench/src; then
  echo "leftover check: an experiment drives its own mobility model; step a Simulation instead" >&2
  exit 1
fi
# The Euclidean hop estimate has one copy, `chlm_sim::oracle::euclidean_hops`
# at `DEFAULT_DETOUR`: the experiments that price without a world call it
# instead of restating `dist / rtx * 1.3`, so the factor cannot drift
# between the engine and a table.
if grep -rn '\* 1\.3)' crates/bench/src; then
  echo "leftover check: a restated Euclidean estimate is back in crates/bench/src" >&2
  exit 1
fi
# The experiments are records of one registry run by one binary
# (`chlm-exp <id>`, crates/bench/src/experiments/mod.rs): a per-experiment
# binary must not come back.
if compgen -G 'crates/bench/src/bin/exp_*.rs' >/dev/null; then
  echo "leftover check: an exp_* binary is back; add a registry record instead" >&2
  exit 1
fi
# The packet executor is two FIFO hop steps over hop counts: the event
# queue, its heap and the per-hop next-hop walk stay out of it (the queue
# executor lives on only as the oracle in crates/proto/tests/heap_oracle.rs;
# `EventQueue` itself stays, crate-private, for proto::dalca).
if grep -n 'EventQueue\|BinaryHeap\|fn next_hop' crates/proto/src/network.rs crates/sim/src/transport.rs; then
  echo "leftover check: the packet executor is back on an event queue or a next-hop walk" >&2
  exit 1
fi
# The LM walk runs over levels numbered in tree order: a member's CSR slot
# is its number one level down and a subject's ancestors come from the
# `parent` column, so the physical-to-local table, the per-member `down`
# column and the walk's address-book lookup stay out of it.
if grep -n 'slot_of_phys\|down: Vec<\|book\.row(' crates/lm/src/server.rs; then
  echo "leftover check: the LM walk is back on physical-order lookups" >&2
  exit 1
fi
# The membership numbering has one owner: `Hierarchy::rebuild` publishes
# tree order, so neither the per-level vote-grouped member arena nor the
# LM walk's private renumbering comes back.
if grep -rn 'member_arena\|rebuild_derived' crates/cluster/src \
  || grep -n 'fn number(\|up: Vec<u32>' crates/lm/src/server.rs; then
  echo "leftover check: a second membership index is back" >&2
  exit 1
fi

# A scheme plane has one owner per world: `MultiplexSim` runs one per
# scheme and every bank of that scheme books its slices, so GLS's update
# and query halves read one server table, built in one place, and no
# lookup keeps a copy refreshed by its own tick stamp.
if [ "$(grep -rn 'GlsIncremental::new(' crates/sim/src | wc -l)" -ne 1 ] \
  || grep -n 'table_tick' crates/sim/src/scheme.rs; then
  echo "leftover check: a second GLS server table is back" >&2
  exit 1
fi

# One level diff a tick: the world observers take levels k >= 1 from
# one `chlm_cluster::level_diffs` pass (link churn and the (i)-(vii)
# taxonomy together) and level 0 from the topology stage's flips.
# `classify_events` is the oracle tests compare that pass with, and the
# level-0 graph merge is the fallback for rebuild ticks, which publish no
# flips: one call site.
if grep -rn 'classify_events(' crates/sim/src \
  || [ "$(grep -rn 'count_between(' crates/sim/src | wc -l)" -ne 1 ]; then
  echo "leftover check: a second world diff is back" >&2
  exit 1
fi

# The topology maintainer works in cell order: candidates are ranks found
# by one half-stencil scan over the grid's own cell sort, and a rebuild
# writes the graph's rows in one pass. A per-node grid query, its
# neighbour scratch and the per-node sort that ordered it must not come
# back.
if grep -n 'for_each_within\|nbr_scratch\|sort_unstable' crates/graph/src/incremental.rs; then
  echo "leftover check: the topology maintainer is back on per-node grid queries" >&2
  exit 1
fi

# Every absolute pin lives in one manifest, crates/bench/tests/golden/
# pins.txt (checked by crates/bench/tests/golden_wall.rs): no 64-bit digest
# literal sits in Rust source anywhere else.
if grep -rnE --include='*.rs' '0x[0-9a-f]{16}\b|"[0-9a-f]{16}"' crates/*/src crates/*/tests tests; then
  echo "leftover check: a digest literal outside the golden wall's manifest" >&2
  exit 1
fi

step "cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

step "cargo test (workspace)"
cargo test --workspace -q

# The golden wall checked its pins and wrote nothing: a run that
# regenerated them cannot pass.
step "golden wall unchanged"
git diff --exit-code -- crates/bench/tests/golden

# The packet executor against the event-queue executor it replaced, at
# eight times tier-1's case count: stats bit for bit, per-packet counts,
# fresh and restarted networks.
step "packet executor vs event-queue oracle (PROPTEST_CASES=512)"
PROPTEST_CASES=512 cargo test -q -p chlm-proto --test heap_oracle

# The tree-ordered LM walk against a subject-at-a-time walk over the
# public `Hierarchy` API, at the same case count: every host of every
# entry, both rules, threads 1/2/8 through recycled scratches.
step "LM walk vs reference walk (PROPTEST_CASES=512)"
PROPTEST_CASES=512 cargo test -q -p chlm-lm --test walk_reference

# The routing table against the builder it replaced: every entry, the
# entry counts and the walked routes, on hierarchies whose level-0 graph
# was edited after the election (the BFS fallback of the level-0 rows,
# internally disconnected scopes). The case count scales that property;
# the file's other properties keep their own.
step "routing table vs reference builder (PROPTEST_CASES=512)"
PROPTEST_CASES=512 cargo test -q -p chlm-routing --test nexthop_reference

# Schedule fuzz: rerun the determinism-sensitive suites with every
# multi-threaded pool call claiming work in a seeded adversarial order.
# Byte-identical reports are the contract; a merge-order leak fails here.
# Since PR 7 that includes the sweep orchestrator: multiplex_equivalence
# pins the fan-out against standalone runs while run_sweep workers claim
# whole world-runs in the fuzzed order. chlm-lm is here for its pooled
# walk test (n above WALK_PAR_MIN_N at 2 and 8 workers), which no other
# suite reaches; chlm-graph for the eight-worker race of `hops` and
# `fill_hop_rows` on the same cells; hop_row_sharing for the roots a
# six-bank tick leaves behind at 2 and 8 workers against 1; parity and
# query_parity for the packet shards, which run through `for_each_mut`
# (chunk spawn order fuzzed), not `run_indexed`.
step "schedule fuzz (CHLM_SHUFFLE_MERGE=1)"
CHLM_SHUFFLE_MERGE=1 cargo test -q -p chlm-par
CHLM_SHUFFLE_MERGE=1 cargo test -q -p chlm-graph
CHLM_SHUFFLE_MERGE=1 cargo test -q -p chlm-lm
CHLM_SHUFFLE_MERGE=1 cargo test -q -p chlm-sim --test thread_invariance
CHLM_SHUFFLE_MERGE=1 cargo test -q -p chlm-sim --test multiplex_equivalence
CHLM_SHUFFLE_MERGE=1 cargo test -q -p chlm-sim --test hop_row_sharing
CHLM_SHUFFLE_MERGE=1 cargo test -q -p chlm-sim --test parity
CHLM_SHUFFLE_MERGE=1 cargo test -q -p chlm-sim --test query_parity

# Miri over the worker pool when the toolchain carries it (nightly-only
# component; the GitHub workflow runs it in a dedicated nightly job).
if cargo miri --version >/dev/null 2>&1; then
  step "cargo miri test -p chlm-par"
  MIRIFLAGS="-Zmiri-disable-isolation" cargo miri test -p chlm-par
else
  step "cargo miri test -p chlm-par (skipped: miri not installed)"
fi

# Run the determinism audit at two thread counts: the audit digests must
# not care how many intra-tick workers the pools use (the thread-
# invariance contract).
step "cargo xtask audit-determinism (CHLM_THREADS=1)"
CHLM_THREADS=1 cargo xtask audit-determinism

step "cargo xtask audit-determinism (CHLM_THREADS=2)"
CHLM_THREADS=2 cargo xtask audit-determinism

# The hierarchy-stage equivalence suite at both thread counts and under
# the shuffle-merge fuzz: the production stage set (Verlet topology, the
# hierarchy rebuilt into a retired snapshot, the pooled walk) must agree,
# per tick, with the reference stage set (crates/sim/tests/common/mod.rs:
# from-scratch topology, the hierarchy built on an empty one, selection on
# a fresh scratch) regardless of how the walk's pool is sized or its
# merges ordered.
step "hierarchy equivalence, in-place rebuild vs reference stage set (CHLM_THREADS=1)"
CHLM_THREADS=1 cargo test -q -p chlm-sim --test hierarchy_equivalence

step "hierarchy equivalence, in-place rebuild vs reference stage set (CHLM_THREADS=2)"
CHLM_THREADS=2 cargo test -q -p chlm-sim --test hierarchy_equivalence

step "hierarchy equivalence, in-place rebuild vs reference stage set (CHLM_SHUFFLE_MERGE=1)"
CHLM_SHUFFLE_MERGE=1 cargo test -q -p chlm-sim --test hierarchy_equivalence

# The long-horizon row of the same suite (420 audited ticks, walk and
# RPGM, depth moving between ticks): `#[ignore]`d out of tier-1 for its
# ~35 s in a debug build, run here by name.
step "hierarchy equivalence, depth-oscillation soak"
cargo test -q -p chlm-sim --test hierarchy_equivalence -- --ignored depth_oscillation_soak

# The benchmark harness is its own workspace compiled against chlm_sim's
# public surface; its tests also smoke-run both benchmark binaries on all
# four workload shapes, so an API break fails here, not in a benchmark run.
step "benchmark/ tests"
(cd benchmark && cargo test --offline -q)

# The two experiments whose full grid starts above CI scale, each at its
# bounded `--smoke` spec (n = 256, 1 seed, all three mobilities) and at two
# thread counts: E24, the scheme comparison through the shared-world
# multiplexer, every world priced by the calibrated Euclidean estimate and
# under HopMetric::HierRouting (the only record that drives the routing-
# table cost model end to end); E27, the update-vs-query crossover over all
# schemes x both backends. Scheme accounting and the query plane share the
# thread-invariance contract.
for id in E24 E27; do
  for threads in 1 2; do
    step "chlm-exp $id --smoke (CHLM_THREADS=$threads)"
    CHLM_THREADS=$threads cargo run -p chlm-bench --release -q --bin chlm-exp -- "$id" --smoke
  done
done

# Every committed E1-E23 result is what its command prints today: each
# record runs at the knobs of EXPERIMENTS.md's Reproducing block at one
# thread, and its stdout is diffed with results/<record>.txt minus the
# file's `#` header lines. (E24-E27 name their own commands in their
# headers; the golden wall pins E24 and E27.) Ids and record names come
# from the registry listing `chlm-exp` prints when given no id.
step "results/ E1-E23 match their command (CHLM_THREADS=1)"
cargo build -p chlm-bench --release -q --bin chlm-exp
exp=target/release/chlm-exp
knobs=$(grep -m1 '^export CHLM_' EXPERIMENTS.md | sed 's/^export //')
records=$("$exp" 2>&1 | awk '$1 ~ /^E([1-9]|1[0-9]|2[0-3])$/ { print $1 ":" $2 }' || true)
if [ -z "$knobs" ] || [ "$(echo "$records" | wc -w)" -ne 23 ]; then
  echo "results drift: no Reproducing knobs, or not 23 records E1-E23 in the registry listing" >&2
  exit 1
fi
drifted=0
for record in $records; do
  id=${record%%:*}
  name=${record#*:}
  # shellcheck disable=SC2086 # $knobs is a list of NAME=value words
  if ! env -u CHLM_MOBILITY_N $knobs CHLM_THREADS=1 "$exp" "$id" \
    | diff -u <(grep -v '^#' "results/$name.txt") -; then
    echo "results drift: results/$name.txt is not what chlm-exp $id prints" >&2
    drifted=1
  fi
done
[ "$drifted" -eq 0 ]

printf '\nci.sh: all checks passed\n'
