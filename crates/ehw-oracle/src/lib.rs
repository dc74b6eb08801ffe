//! # ehw-oracle: the reference implementations the engines are checked against
//!
//! The production evaluation paths are fast because they take shortcuts:
//! compiled plans instead of per-pixel genotype decoding, patched plans,
//! shared window planes, early-exit bounds and memoised cascade prefixes.
//! Each shortcut is pinned byte-identical to a plain, obviously-correct
//! implementation that takes none of them.  Those implementations live here,
//! outside the production crates: only the equivalence suites and the
//! benches depend on this crate.
//!
//! * [`interpreter`] — the original per-pixel interpreter of one processing
//!   array, the oracle of [`ehw_array::CompiledArray`],
//! * [`cascade`] — the naive cascaded evolution that refilters the whole
//!   chain for every candidate, the oracle of the compiled cascade engine
//!   behind `JobSpec::Cascade`.

pub mod cascade;
pub mod interpreter;

pub use cascade::{cascade_spec, evolve_cascade_naive};
pub use interpreter::{interpret_filter_image, interpret_window};
