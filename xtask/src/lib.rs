//! Workspace automation (`cargo xtask <command>`): the repo-specific lint
//! engine and the simulation determinism verifier. Library so the
//! integration tests can drive the engines directly; the thin binary in
//! `main.rs` adds argument parsing and exit codes.

pub mod analysis;
pub mod determinism;
pub mod json;
pub mod lint;
