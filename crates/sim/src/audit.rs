//! Tick-level invariant auditing.
//!
//! With `SimConfig::audit` enabled, the engine re-checks the system's
//! conservation laws and structural invariants *as the run progresses*,
//! split along the same seam as the accounting (`crate::observe`). The
//! checks that read only the world run once a tick per world, in the
//! [`WorldAuditor`] the world owns:
//!
//! * the hierarchy is a valid LCA fixpoint — every node has exactly one
//!   level-k clusterhead per level — numbered in tree order (via
//!   [`chlm_cluster::audit`]),
//! * the [`AddressBook`](chlm_cluster::address::AddressBook) snapshot
//!   matches the hierarchy it captured,
//! * the [`LmAssignment`](chlm_lm::server::LmAssignment) matches §3.2's
//!   hash mapping, re-derived independently (via [`chlm_lm::audit`]),
//! * per-level migration/reorganization counters in [`LevelRates`]
//!   reconcile with the address-change stream,
//! * the event-taxonomy counters ([`EventCounts`]) reconcile with the
//!   actual level-k node births/deaths between consecutive hierarchies,
//! * the [`StateTracker`]'s Fig. 3 jump counters reconcile with the
//!   independently recomputed per-node state transitions (adjacent moves
//!   must land in the ±1 bin, larger moves in the ≥±2 bin — the tracker
//!   must measure the adjacent-transition property faithfully).
//!
//! The checks that read a bank's [`HandoffLedger`] run once a tick per
//! bank, in its [`Auditor`]:
//!
//! * a CHLM ledger's event totals reconcile with the host-change stream
//!   and the migration/reorganization classification — every host change
//!   is counted exactly once, in the class the cascade rule assigns
//!   (conservation; a double-counted or dropped handoff surfaces here).
//!   Other schemes' ledgers book a workload of their own, so their banks
//!   skip it;
//! * every ledger's node-seconds exposure equals the world's to the bit.
//!
//! Each bank's violation list records the world's findings of every tick
//! before its own, so it holds the whole verdict on its run. Violations are
//! structured [`AuditViolation`] values — the auditors never panic, so a
//! corrupted run still produces a report plus the full violation list.

use chlm_cluster::address::{AddrChange, AddrChangeKind};
use chlm_cluster::audit::{audit_address_book, audit_hierarchy, ClusterViolation};
use chlm_cluster::events::EventCounts;
use chlm_cluster::{Hierarchy, StateTracker};
use chlm_graph::NodeIdx;
use chlm_lm::audit::{audit_assignment, LmViolation};
use chlm_lm::handoff::HandoffLedger;
use chlm_lm::server::{HostChange, SelectionRule};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::observe::WorldObservers;
use crate::report::LevelRates;
use crate::stage::TickCtx;

/// One invariant violation detected during an audited run.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditViolation {
    /// Structural inconsistency in the hierarchy or address book.
    Cluster(ClusterViolation),
    /// The LM assignment disagrees with the hash mapping.
    Lm(LmViolation),
    /// The ledger's per-level event count moved by a different amount than
    /// the classified host-change stream this tick (conservation).
    LedgerEventMismatch {
        level: usize,
        kind: AddrChangeKind,
        ledger_delta: u64,
        expected: u64,
    },
    /// Ledger and rates disagree on accumulated node-seconds exposure.
    ExposureMismatch { ledger: f64, rates: f64 },
    /// A per-level migration/reorganization counter moved by a different
    /// amount than the address-change stream this tick.
    RatesMismatch {
        level: usize,
        kind: AddrChangeKind,
        rates_delta: u64,
        expected: u64,
    },
    /// Event-taxonomy births at a level differ from the hierarchy diff
    /// (classes iii + v must equal the level-k node births).
    EventBirthMismatch {
        level: usize,
        counted: u64,
        observed: u64,
    },
    /// Event-taxonomy deaths at a level differ from the hierarchy diff
    /// (classes iv + vi must equal the level-k node deaths).
    EventDeathMismatch {
        level: usize,
        counted: u64,
        observed: u64,
    },
    /// Converse-(vii) counter differs from observed upper-level cluster
    /// deaths.
    ConverseViiMismatch {
        level: usize,
        counted: u64,
        observed: u64,
    },
    /// The state tracker's jump histogram moved differently from the
    /// recomputed per-node ALCA state transitions (Fig. 3 accounting).
    StateJumpMismatch {
        level: usize,
        /// Jump-magnitude bin: 0 = no change, 1 = ±1, 2 = ≥±2.
        bin: usize,
        recorded: u64,
        expected: u64,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::Cluster(v) => write!(f, "cluster: {v}"),
            AuditViolation::Lm(v) => write!(f, "lm: {v}"),
            AuditViolation::LedgerEventMismatch { level, kind, ledger_delta, expected } => write!(
                f,
                "ledger level {level} {kind:?}: counted {ledger_delta} events, stream has {expected}"
            ),
            AuditViolation::ExposureMismatch { ledger, rates } => {
                write!(f, "node-seconds diverged: ledger {ledger}, rates {rates}")
            }
            AuditViolation::RatesMismatch { level, kind, rates_delta, expected } => write!(
                f,
                "rates level {level} {kind:?}: counted {rates_delta}, address stream has {expected}"
            ),
            AuditViolation::EventBirthMismatch { level, counted, observed } => write!(
                f,
                "level {level} births: taxonomy counted {counted}, hierarchy diff shows {observed}"
            ),
            AuditViolation::EventDeathMismatch { level, counted, observed } => write!(
                f,
                "level {level} deaths: taxonomy counted {counted}, hierarchy diff shows {observed}"
            ),
            AuditViolation::ConverseViiMismatch { level, counted, observed } => write!(
                f,
                "level {level} converse-vii: counted {counted}, observed {observed}"
            ),
            AuditViolation::StateJumpMismatch { level, bin, recorded, expected } => write!(
                f,
                "level {level} jump bin {bin}: tracker recorded {recorded}, recomputed {expected}"
            ),
        }
    }
}

/// The world account's totals captured at the end of a tick, so the next
/// tick's deltas can be reconciled against that tick's input streams.
#[derive(Debug, Clone, Default)]
pub struct AccumSnapshot {
    /// Per level: (migration_events, reorg_events) in the rates.
    rates_events: Vec<(u64, u64)>,
    events: EventCounts,
    jumps: Vec<[u64; 3]>,
}

impl AccumSnapshot {
    pub fn capture(rates: &LevelRates, events: &EventCounts, tracker: &StateTracker) -> Self {
        let mut snap = AccumSnapshot::default();
        snap.recapture(rates, events, tracker);
        snap
    }

    /// Refresh this snapshot in place, reusing its buffers — the auditor
    /// recaptures every audited tick, so the baseline must not reallocate.
    pub fn recapture(&mut self, rates: &LevelRates, events: &EventCounts, tracker: &StateTracker) {
        self.rates_events.clear();
        self.rates_events.extend(
            rates
                .migration_events
                .iter()
                .zip(rates.reorg_events.iter())
                .map(|(&m, &r)| (m, r)),
        );
        self.events.counts.clone_from(&events.counts);
        self.events.converse_vii.clone_from(&events.converse_vii);
        self.jumps.clear();
        self.jumps
            .extend((0..tracker.jump_level_count()).map(|k| tracker.jumps(k).unwrap_or([0; 3])));
    }
}

/// Per level: (migration_events, reorg_events) in `ledger`.
fn ledger_events(ledger: &HandoffLedger) -> impl Iterator<Item = (u64, u64)> + '_ {
    ledger
        .per_level
        .iter()
        .map(|c| (c.migration_events, c.reorg_events))
}

/// Independent reimplementation of the ledger's migration/reorganization
/// attribution (the cascade rule of `chlm_lm::handoff`): classify every
/// host change and count per level. Returns `counts[level] = (migration,
/// reorganization)`.
pub fn classify_host_changes(
    host_changes: &[HostChange],
    addr_changes: &[AddrChange],
) -> BTreeMap<usize, (u64, u64)> {
    let mut exact: BTreeMap<(NodeIdx, u16), AddrChangeKind> = BTreeMap::new();
    let mut lowest: BTreeMap<NodeIdx, (u16, AddrChangeKind)> = BTreeMap::new();
    for c in addr_changes {
        exact.insert((c.node, c.level), c.kind);
        let e = lowest.entry(c.node).or_insert((c.level, c.kind));
        if c.level < e.0 {
            *e = (c.level, c.kind);
        }
    }
    let host_kind = |node: NodeIdx, k: u16| -> Option<AddrChangeKind> {
        lowest
            .get(&node)
            .filter(|&&(lvl, _)| lvl <= k)
            .map(|&(_, kind)| kind)
    };
    let mut counts: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    for hc in host_changes {
        let kind = exact
            .get(&(hc.subject, hc.level))
            .copied()
            .or_else(|| host_kind(hc.old_host, hc.level))
            .or_else(|| host_kind(hc.new_host, hc.level))
            .unwrap_or(AddrChangeKind::Reorganization);
        let slot = counts.entry(hc.level as usize).or_insert((0, 0));
        match kind {
            AddrChangeKind::Migration => slot.0 += 1,
            AddrChangeKind::Reorganization => slot.1 += 1,
        }
    }
    counts
}

/// Conservation: the ledger's per-level event deltas must equal the
/// independently classified host-change stream. A handoff recorded twice
/// (or dropped) shows up as a mismatch.
pub fn check_ledger_delta(
    prev: &[(u64, u64)],
    ledger: &HandoffLedger,
    host_changes: &[HostChange],
    addr_changes: &[AddrChange],
    out: &mut Vec<AuditViolation>,
) {
    let expected = classify_host_changes(host_changes, addr_changes);
    let levels = ledger.per_level.len().max(prev.len());
    for k in 0..levels {
        let now = ledger
            .per_level
            .get(k)
            .map_or((0, 0), |c| (c.migration_events, c.reorg_events));
        let before = prev.get(k).copied().unwrap_or((0, 0));
        let (exp_mig, exp_reorg) = expected.get(&k).copied().unwrap_or((0, 0));
        let d_mig = now.0.wrapping_sub(before.0);
        let d_reorg = now.1.wrapping_sub(before.1);
        if d_mig != exp_mig {
            out.push(AuditViolation::LedgerEventMismatch {
                level: k,
                kind: AddrChangeKind::Migration,
                ledger_delta: d_mig,
                expected: exp_mig,
            });
        }
        if d_reorg != exp_reorg {
            out.push(AuditViolation::LedgerEventMismatch {
                level: k,
                kind: AddrChangeKind::Reorganization,
                ledger_delta: d_reorg,
                expected: exp_reorg,
            });
        }
    }
}

/// Conservation: per-level migration/reorganization counters must move by
/// exactly the per-kind address-change counts of the tick.
pub fn check_rates_delta(
    prev: &AccumSnapshot,
    rates: &LevelRates,
    addr_changes: &[AddrChange],
    out: &mut Vec<AuditViolation>,
) {
    let mut expected: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    for c in addr_changes {
        let slot = expected.entry(c.level as usize).or_insert((0, 0));
        match c.kind {
            AddrChangeKind::Migration => slot.0 += 1,
            AddrChangeKind::Reorganization => slot.1 += 1,
        }
    }
    let levels = rates.migration_events.len().max(prev.rates_events.len());
    for k in 0..levels {
        let now = (
            rates.migration_events.get(k).copied().unwrap_or(0),
            rates.reorg_events.get(k).copied().unwrap_or(0),
        );
        let before = prev.rates_events.get(k).copied().unwrap_or((0, 0));
        let (exp_mig, exp_reorg) = expected.get(&k).copied().unwrap_or((0, 0));
        let d_mig = now.0.wrapping_sub(before.0);
        let d_reorg = now.1.wrapping_sub(before.1);
        if d_mig != exp_mig {
            out.push(AuditViolation::RatesMismatch {
                level: k,
                kind: AddrChangeKind::Migration,
                rates_delta: d_mig,
                expected: exp_mig,
            });
        }
        if d_reorg != exp_reorg {
            out.push(AuditViolation::RatesMismatch {
                level: k,
                kind: AddrChangeKind::Reorganization,
                rates_delta: d_reorg,
                expected: exp_reorg,
            });
        }
    }
}

fn level_phys_nodes(h: &Hierarchy, k: usize) -> BTreeSet<NodeIdx> {
    h.levels
        .get(k)
        .map(|l| l.nodes.iter().copied().collect())
        .unwrap_or_default()
}

/// Conservation: the taxonomy's birth classes (iii + v) must count exactly
/// the level-k node births between the two snapshots, the death classes
/// (iv + vi) the deaths, and converse-vii the upper-level cluster deaths.
pub fn check_event_delta(
    prev: &AccumSnapshot,
    events: &EventCounts,
    old_h: &Hierarchy,
    new_h: &Hierarchy,
    out: &mut Vec<AuditViolation>,
) {
    let max_depth = old_h.depth().max(new_h.depth());
    let row = |counts: &EventCounts, k: usize| counts.counts.get(k).copied().unwrap_or([0; 7]);
    let cvii = |counts: &EventCounts, k: usize| counts.converse_vii.get(k).copied().unwrap_or(0);
    for k in 1..max_depth {
        let old_nodes = level_phys_nodes(old_h, k);
        let new_nodes = level_phys_nodes(new_h, k);
        let births = new_nodes.difference(&old_nodes).count() as u64;
        let deaths = old_nodes.difference(&new_nodes).count() as u64;
        let now = row(events, k);
        let before = row(&prev.events, k);
        let d = |c: usize| now[c].wrapping_sub(before[c]);
        if d(2) + d(4) != births {
            out.push(AuditViolation::EventBirthMismatch {
                level: k,
                counted: d(2) + d(4),
                observed: births,
            });
        }
        if d(3) + d(5) != deaths {
            out.push(AuditViolation::EventDeathMismatch {
                level: k,
                counted: d(3) + d(5),
                observed: deaths,
            });
        }
        let upper_old = level_phys_nodes(old_h, k + 1);
        let upper_new = level_phys_nodes(new_h, k + 1);
        let upper_deaths = upper_old.difference(&upper_new).count() as u64;
        let d_cvii = cvii(events, k).wrapping_sub(cvii(&prev.events, k));
        if d_cvii != upper_deaths {
            out.push(AuditViolation::ConverseViiMismatch {
                level: k,
                counted: d_cvii,
                observed: upper_deaths,
            });
        }
    }
}

/// Conservation of the Fig. 3 measurement: recompute every per-node state
/// transition between the snapshots (nodes present at the level in both)
/// and require the tracker's jump histogram to have moved exactly that
/// much in every magnitude bin.
pub fn check_state_jumps(
    prev: &AccumSnapshot,
    tracker: &StateTracker,
    old_h: &Hierarchy,
    new_h: &Hierarchy,
    out: &mut Vec<AuditViolation>,
) {
    let levels = tracker
        .jump_level_count()
        .max(old_h.depth())
        .max(new_h.depth());
    for k in 0..levels {
        let mut expected = [0u64; 3];
        if let (Some(old_level), Some(new_level)) = (old_h.levels.get(k), new_h.levels.get(k)) {
            let old_states: BTreeMap<NodeIdx, u32> = old_level
                .nodes
                .iter()
                .zip(old_level.elector_count.iter())
                .map(|(&p, &s)| (p, s))
                .collect();
            for (i, &phys) in new_level.nodes.iter().enumerate() {
                if let Some(&prev_state) = old_states.get(&phys) {
                    let jump = prev_state.abs_diff(new_level.elector_count[i]);
                    expected[(jump.min(2)) as usize] += 1;
                }
            }
        }
        let now = tracker.jumps(k).unwrap_or([0; 3]);
        let before = prev.jumps.get(k).copied().unwrap_or([0; 3]);
        for bin in 0..3 {
            let delta = now[bin].wrapping_sub(before[bin]);
            if delta != expected[bin] {
                out.push(AuditViolation::StateJumpMismatch {
                    level: k,
                    bin,
                    recorded: delta,
                    expected: expected[bin],
                });
            }
        }
    }
}

/// Cap on stored violations: a hopelessly corrupted run would otherwise
/// accumulate O(n · ticks) reports.
const MAX_STORED: usize = 10_000;

/// The world's tick-by-tick auditor: the checks that read only the world,
/// run once a tick however many banks read the world. Construct with the
/// world account before the first audited tick, call
/// [`WorldAuditor::check_tick`] after each tick's world accounting.
#[derive(Debug)]
pub struct WorldAuditor {
    prev: AccumSnapshot,
    /// The last audited tick's findings (buffer reused across ticks).
    found: Vec<AuditViolation>,
    ticks_audited: u64,
}

impl WorldAuditor {
    pub fn new(obs: &WorldObservers) -> Self {
        WorldAuditor {
            prev: AccumSnapshot::capture(&obs.addr, &obs.taxonomy.counts, &obs.alca),
            found: Vec::new(),
            ticks_audited: 0,
        }
    }

    /// Audit one completed tick — its snapshots and address-change stream
    /// in `ctx`, and the world account `obs` after it booked them — and
    /// advance the snapshot baseline; the tick's findings are
    /// [`WorldAuditor::last_tick`] until the next.
    pub fn check_tick(&mut self, ctx: &TickCtx<'_>, obs: &WorldObservers) {
        let (old_h, new_h) = (ctx.old_hierarchy, ctx.new_hierarchy);
        let (rates, events, tracker) = (&obs.addr, &obs.taxonomy.counts, &obs.alca);
        let found = &mut self.found;
        found.clear();
        found.extend(
            audit_hierarchy(new_h)
                .into_iter()
                .map(AuditViolation::Cluster),
        );
        found.extend(
            audit_address_book(ctx.new_book, new_h)
                .into_iter()
                .map(AuditViolation::Cluster),
        );
        found.extend(
            audit_assignment(ctx.new_assignment, new_h, SelectionRule::Hrw)
                .into_iter()
                .map(AuditViolation::Lm),
        );
        check_rates_delta(&self.prev, rates, ctx.addr_changes, found);
        check_event_delta(&self.prev, events, old_h, new_h, found);
        check_state_jumps(&self.prev, tracker, old_h, new_h, found);
        self.prev.recapture(rates, events, tracker);
        self.ticks_audited += 1;
    }

    /// The last audited tick's findings (empty before the first), which
    /// every bank's [`Auditor::check_tick`] records.
    pub fn last_tick(&self) -> &[AuditViolation] {
        &self.found
    }

    pub fn ticks_audited(&self) -> u64 {
        self.ticks_audited
    }
}

/// One bank's tick-by-tick auditor: its violation list (the world's
/// findings, then its own, up to a storage cap) and the baseline of the
/// checks that read its ledger. Construct with the bank's (empty) ledger,
/// call [`Auditor::check_tick`] after each tick's booking, read the result
/// with [`Auditor::violations`].
#[derive(Debug)]
pub struct Auditor {
    /// Per level: (migration_events, reorg_events) in the ledger at the
    /// last audited tick.
    ledger_events: Vec<(u64, u64)>,
    violations: Vec<AuditViolation>,
}

impl Auditor {
    pub fn new(ledger: &HandoffLedger) -> Self {
        Auditor {
            ledger_events: ledger_events(ledger).collect(),
            violations: Vec::new(),
        }
    }

    /// Record one tick: the world's findings `world`, then this bank's.
    /// `host_stream` is the tick's (host-change, address-change) streams
    /// for a bank whose ledger books the host-change cascade (CHLM), which
    /// is then reconciled against them; `None` for a scheme whose ledger
    /// books a workload of its own. Every bank's ledger exposure must
    /// equal `node_seconds`, the world account's, to the bit: both
    /// accumulate the identical n·dt sequence.
    pub fn check_tick(
        &mut self,
        world: &[AuditViolation],
        ledger: &HandoffLedger,
        node_seconds: f64,
        host_stream: Option<(&[HostChange], &[AddrChange])>,
    ) {
        let mut found = Vec::new();
        if let Some((host_changes, addr_changes)) = host_stream {
            check_ledger_delta(
                &self.ledger_events,
                ledger,
                host_changes,
                addr_changes,
                &mut found,
            );
        }
        if ledger.node_seconds.to_bits() != node_seconds.to_bits() {
            found.push(AuditViolation::ExposureMismatch {
                ledger: ledger.node_seconds,
                rates: node_seconds,
            });
        }
        let room = MAX_STORED.saturating_sub(self.violations.len());
        let tick = world.iter().cloned().chain(found);
        self.violations.extend(tick.take(room));
        self.ledger_events.clear();
        self.ledger_events.extend(ledger_events(ledger));
    }

    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Consume the auditor, returning all stored violations.
    pub fn into_violations(self) -> Vec<AuditViolation> {
        self.violations
    }
}
