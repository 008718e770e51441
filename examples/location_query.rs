//! Anatomy of a location query — the paper's §3.2 worked example, live.
//!
//! Builds a static network, prints its clustered hierarchy (the Fig.-1
//! picture in text form), walks one node's LM server chain level by level,
//! resolves a query through the lowest common cluster, and then routes the
//! session packet with strict hierarchical forwarding.
//!
//! Run with:
//! ```text
//! cargo run --release --example location_query
//! ```

use chlm::cluster::metrics::{format_stats_table, level_stats};
use chlm::geom::{Disk, SimRng};
use chlm::graph::traversal::bfs_distances;
use chlm::lm::query::resolve_route;
use chlm::prelude::*;
use chlm::routing::hierarchical_path;

fn main() {
    let n = 200;
    let density = 1.25;
    let rtx = chlm::geom::rtx_for_degree(9.0, density);
    let region = Disk::centered(chlm::geom::disk_radius_for_density(n, density));
    let mut rng = SimRng::seed_from(63);
    let positions = chlm::geom::region::deploy_uniform(&region, n, &mut rng);
    let graph = build_unit_disk(&positions, rtx);
    let ids = rng.permutation(n);
    let hierarchy = Hierarchy::build(&ids, &graph, HierarchyOptions::default());
    let assignment = LmAssignment::compute(&hierarchy, SelectionRule::Hrw);

    println!("== clustered hierarchy (cf. paper Fig. 1) ==");
    let stats = level_stats(&hierarchy, 4, &mut rng);
    print!("{}", format_stats_table(&stats));
    println!("\n{}", chlm::cluster::render::render_levels(&hierarchy));

    // Pick a subject node and display its address + server chain, like the
    // paper's node-63 walkthrough.
    let subject: u32 = 63 % n as u32;
    let addr: Vec<u32> = hierarchy.address(subject).collect();
    println!("\n== node {subject} (id {}) ==", ids[subject as usize]);
    for (k, &head) in addr.iter().enumerate() {
        println!(
            "level-{k} cluster head: node {head} (id {})",
            ids[head as usize]
        );
    }
    for k in 2..hierarchy.depth() {
        if let Some(server) = assignment.host(subject, k) {
            println!(
                "level-{k} LM server  : node {server} (id {}), hosted inside cluster {}",
                ids[server as usize], addr[k]
            );
        }
    }

    // Resolve a location query from the far side of the network.
    let requester = (0..n as u32)
        .max_by_key(|&v| (positions[v as usize].dist(positions[subject as usize]) * 1000.0) as u64)
        .expect("network is non-empty");
    println!("\n== query: node {requester} looks up node {subject} ==");
    match resolve_route(&hierarchy, &assignment, requester, subject) {
        None => println!("requester and subject are disconnected"),
        Some(route) => {
            println!("lowest common cluster level : {}", route.level);
            // The request travels to the server and the reply comes back.
            let (server, packets) = match route.server {
                Some(server) => (
                    server,
                    2 * bfs_distances(&graph, requester)[server as usize],
                ),
                None => (subject, 0),
            };
            println!("answering LM server         : node {server}");
            println!("query cost                  : {packets} packet transmissions");
            // Now route the session hierarchically.
            if let Some(path) = hierarchical_path(&hierarchy, requester, subject) {
                println!(
                    "session route               : {} hops (shortest {}, stretch {:.2}, {} cluster legs)",
                    path.hops, path.shortest, path.stretch, path.legs
                );
            }
        }
    }
}
