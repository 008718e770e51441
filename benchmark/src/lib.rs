//! Shared pieces of the two benchmark binaries. See README.md.

pub mod alloc;
pub mod compare;
pub mod contract;
pub mod json;
pub mod layers;
pub mod measure;
pub mod proc;
pub mod result;
pub mod span;
pub mod stats;
pub mod workload;
