//! Baseline systems the paper evaluates Caldera against.
//!
//! * [`silo`] — a Silo-style shared-everything OCC engine (Figures 8, 9),
//! * [`sn_silo`] — one Silo instance per core with a two-phase-commit layer
//!   for multi-site transactions (Figure 9),
//! * [`cpu_olap`] — the MonetDB-like and "DBMS-C"-like profiles of the CPU
//!   columnar engine (Figure 4).
//!
//! The baselines answer the same workloads as Caldera over the same data so
//! that every comparison in the benchmark harness is apples-to-apples.

pub mod cpu_olap;
pub mod silo;
pub mod sn_silo;

pub use cpu_olap::CpuEngineKind;
pub use silo::{SiloDb, SiloGenerator, SiloRuntime, SiloTxn, SiloWindow};
pub use sn_silo::{run_sn_silo_benchmark, SnSilo, SnSiloGenerator, SnSiloWindow};
