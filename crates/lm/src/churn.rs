//! Node birth/death handoff costs — the case the paper *declines* to
//! evaluate ("the occurrence of node birth/death is assumed here to be
//! extremely rare and, therefore, its effect is not evaluated", §1).
//!
//! We evaluate it anyway, as an extension: a death is modelled as the
//! node losing every link (the index stays, matching the simulator's
//! fixed node set — equivalent to the radio going silent), a birth as the
//! reverse. The LM consequences of a death:
//!
//! * entries **hosted by** the victim are lost and must be re-registered
//!   by their subjects (the dead node cannot hand them off) — priced
//!   `hop(subject, new host)` each;
//! * entries elsewhere whose host assignment shifts because the victim
//!   left every candidate set — ordinary transfers, priced
//!   `hop(old, new)`;
//! * the victim's **own registrations** become orphaned garbage (they age
//!   out; no packets).

use crate::server::{LmAssignment, SelectionRule};
use chlm_cluster::{ElectionId, Hierarchy, HierarchyOptions};
use chlm_graph::{Graph, NodeIdx};

/// Cost breakdown of one node death or birth. For a birth, the lost
/// entries are the newcomer's fresh registrations and nothing is orphaned.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChurnCost {
    /// Entries the victim hosted (lost, re-registered by subjects).
    pub entries_lost: u64,
    /// Packets spent re-registering those entries.
    pub reregistration_packets: f64,
    /// Ordinary host-shift transfers elsewhere (candidate-set ripple).
    pub entries_shifted: u64,
    /// Packets spent on those transfers.
    pub transfer_packets: f64,
    /// The victim's own registrations now orphaned (no packets; timeout).
    pub orphaned: u64,
}

impl ChurnCost {
    pub fn total_packets(&self) -> f64 {
        self.reregistration_packets + self.transfer_packets
    }
}

/// Price node `victim` dying (losing all links) in `(ids, graph)` and,
/// in reverse, being born into it (acquiring those links): `(death,
/// birth)` under `rule`. Both read the same two snapshots — the intact
/// graph's assignment and the one with the victim isolated — built once;
/// `hop` prices every leg of both.
///
/// A death's diff and a birth's are one set of host changes with the
/// hosts swapped (`LmAssignment::diff` walks `(subject, level)` in one
/// order either way), so one pass over the death diff prices both: the
/// newborn's own entries are fresh registrations, every other change an
/// ordinary transfer.
pub fn churn_cost<H: FnMut(NodeIdx, NodeIdx) -> f64>(
    ids: &[ElectionId],
    graph: &Graph,
    victim: NodeIdx,
    rule: SelectionRule,
    opts: HierarchyOptions,
    mut hop: H,
) -> (ChurnCost, ChurnCost) {
    let intact = LmAssignment::compute(&Hierarchy::build(ids, graph, opts), rule);
    let mut lonely = graph.clone();
    let nbrs: Vec<NodeIdx> = lonely.neighbors(victim).to_vec();
    for v in nbrs {
        lonely.remove_edge(victim, v);
    }
    let isolated = LmAssignment::compute(&Hierarchy::build(ids, &lonely, opts), rule);

    let (mut death, mut birth) = (ChurnCost::default(), ChurnCost::default());
    for hc in intact.diff(&isolated) {
        if hc.subject == victim {
            // The victim's own registrations: orphaned at its death (it is
            // gone), sent fresh at its birth.
            death.orphaned += 1;
            birth.entries_lost += 1;
            birth.reregistration_packets += hop(victim, hc.old_host);
            continue;
        }
        if hc.old_host == victim {
            death.entries_lost += 1;
            death.reregistration_packets += hop(hc.subject, hc.new_host);
        } else {
            death.entries_shifted += 1;
            death.transfer_packets += hop(hc.old_host, hc.new_host);
        }
        birth.entries_shifted += 1;
        birth.transfer_packets += hop(hc.new_host, hc.old_host);
    }
    (death, birth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chlm_geom::{Disk, SimRng};
    use chlm_graph::unit_disk::build_unit_disk;

    fn network(n: usize, seed: u64) -> (Vec<ElectionId>, Graph) {
        let density = 1.25;
        let rtx = chlm_geom::rtx_for_degree(9.0, density);
        let region = Disk::centered(chlm_geom::disk_radius_for_density(n, density));
        let mut rng = SimRng::seed_from(seed);
        let pts = chlm_geom::region::deploy_uniform(&region, n, &mut rng);
        (rng.permutation(n), build_unit_disk(&pts, rtx))
    }

    #[test]
    fn death_of_isolated_node_is_free() {
        let (ids, mut g) = network(80, 1);
        // Isolate node 0 first; its death then changes nothing.
        let nbrs: Vec<NodeIdx> = g.neighbors(0).to_vec();
        for v in nbrs {
            g.remove_edge(0, v);
        }
        let (cost, _) = churn_cost(
            &ids,
            &g,
            0,
            SelectionRule::Hrw,
            HierarchyOptions::default(),
            |_, _| 1.0,
        );
        assert_eq!(cost.entries_lost, 0);
        assert_eq!(cost.entries_shifted, 0);
        assert_eq!(cost.total_packets(), 0.0);
    }

    #[test]
    fn death_cost_accounts_hosted_entries() {
        let (ids, g) = network(200, 2);
        // Pick a victim that hosts at least one entry.
        let h = Hierarchy::build(&ids, &g, HierarchyOptions::default());
        let a = LmAssignment::compute(&h, SelectionRule::Hrw);
        let hosted = a.entries_hosted();
        let victim = (0..200u32).max_by_key(|&v| hosted[v as usize]).unwrap();
        assert!(hosted[victim as usize] > 0);
        let (cost, _) = churn_cost(
            &ids,
            &g,
            victim,
            SelectionRule::Hrw,
            HierarchyOptions::default(),
            |_, _| 1.0,
        );
        // Everything the victim hosted must re-home (counted lost) unless
        // the subject itself was the victim (orphaned instead).
        assert!(cost.entries_lost + cost.orphaned > 0);
        assert!(cost.total_packets() > 0.0);
    }

    #[test]
    fn birth_mirrors_death() {
        let (ids, g) = network(150, 3);
        let opts = HierarchyOptions::default();
        let (d, b) = churn_cost(&ids, &g, 7, SelectionRule::Hrw, opts, |_, _| 1.0);
        // The same assignment delta in reverse: total entry movements agree
        // (classification differs: deaths orphan what births re-register).
        assert_eq!(
            d.entries_lost + d.entries_shifted + d.orphaned,
            b.entries_lost + b.entries_shifted
        );
    }

    #[test]
    fn death_cost_grows_with_hosted_load() {
        // A victim hosting more entries should on average cost more than
        // one hosting none (using unit hops to isolate entry counts).
        let (ids, g) = network(250, 4);
        let h = Hierarchy::build(&ids, &g, HierarchyOptions::default());
        let a = LmAssignment::compute(&h, SelectionRule::Hrw);
        let hosted = a.entries_hosted();
        let heavy = (0..250u32).max_by_key(|&v| hosted[v as usize]).unwrap();
        let light = (0..250u32).find(|&v| hosted[v as usize] == 0).unwrap();
        let opts = HierarchyOptions::default();
        let (ch, _) = churn_cost(&ids, &g, heavy, SelectionRule::Hrw, opts, |_, _| 1.0);
        let (cl, _) = churn_cost(&ids, &g, light, SelectionRule::Hrw, opts, |_, _| 1.0);
        assert!(
            ch.entries_lost > cl.entries_lost,
            "heavy {} vs light {}",
            ch.entries_lost,
            cl.entries_lost
        );
    }
}
