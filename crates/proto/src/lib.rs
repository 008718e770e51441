//! # chlm-proto
//!
//! Packet-level execution of location-management protocol traffic.
//!
//! The analytical pipeline (`chlm-sim` + `chlm-lm`) *prices* handoff as
//! entries × hops. This crate closes the loop by actually **sending the
//! messages**: each protocol packet is delivered hop by hop over the
//! unit-disk topology, counting real transmissions and measuring delivery
//! latency. A packet is its two endpoints: which `(src, dst)` pairs a
//! scheme sends is decided in `chlm-sim` (`Scheme::messages` /
//! `Scheme::resolve`), and its packet transport feeds them to
//! [`network::PacketNetwork`]. Experiment E18 and
//! `chlm-sim`'s parity tests check that the executed transmission counts
//! match the analytical ones exactly under the BFS hop oracle, which
//! validates the accounting behind every φ/γ result.
//!
//! Components:
//!
//! * [`dalca`] — the asynchronous LCA as a real message-passing protocol
//!   (convergence to the centralized fixpoint is asserted, validating the
//!   simulator's tick-diff emulation), run on a crate-private
//!   deterministic discrete-event queue,
//! * [`network::PacketNetwork`] — a reusable hop-by-hop executor with
//!   per-hop delay, optional loss + ARQ, and per-packet transmission counts.

//!
//! ## Example
//!
//! ```
//! use chlm_graph::Graph;
//! use chlm_proto::network::PacketNetwork;
//!
//! // A 4-hop path; one packet end to end.
//! let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
//! let mut net = PacketNetwork::new(0.001);
//! net.send(&g, 0, 4);
//! let stats = net.run();
//! assert_eq!(stats.delivered, 1);
//! assert_eq!(stats.transmissions, 4);
//! ```

pub mod dalca;
mod events;
pub mod network;

pub use dalca::Dalca;
pub use network::PacketNetwork;
