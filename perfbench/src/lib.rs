//! # fg-perfbench — the repository's end-to-end benchmark
//!
//! One command runs one of three seeded workloads against the public
//! FlowGuard pipeline (`Deployment::analyze/train/verify/launch`,
//! `Machine::run`, the engine's `SyscallInterceptor` entry points and
//! `FleetSupervisor`) and prints every metric by name with its unit and
//! currency, then one JSON line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady --seed 1 --seconds 30 --trace 0
//! ```
//!
//! * `--trace 0` — the end-to-end run: protected-vs-unprotected slowdown in
//!   lockstep, requests per second, check latency in host time, and the
//!   cost model's overhead and check p99.
//! * `--trace 1` — the traced run: spans around each layer's public entry
//!   points, taken from outside the layer, with the modeled cycles beside
//!   them, the traced run's own overhead and its host-time coverage.
//!
//! The run checks the program's outputs and exits nonzero on any failure.

pub mod lockstep;
pub mod metrics;
pub mod probe;
pub mod reference;
pub mod stats;
pub mod workloads;

pub use metrics::{Report, END_TO_END, PER_LAYER};
pub use workloads::{run, Opts, Sizes, WORKLOADS};
