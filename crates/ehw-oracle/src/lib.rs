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
//! * [`window`] — the AoS [`Window3x3`] view, its clamped and streaming
//!   builders, and the gather of one window out of the production planes,
//! * [`filters`] — the scalar per-window reference-filter kernels, the
//!   oracle of the plane-wise `ReferenceFilter::apply`,
//! * [`interpreter`] — the original per-pixel interpreter of one processing
//!   array, the oracle of [`ehw_array::CompiledArray`],
//! * [`aos`] — the AoS block baseline the plane layout is timed against, and
//!   a plan's response to one window,
//! * [`exhaustive`] — the evaluator wrapper that scores every candidate with
//!   no early-exit bound and no incumbent shortcut,
//! * [`cascade`] — the naive cascaded evolution that refilters the whole
//!   chain for every candidate, the oracle of the compiled cascade engine
//!   behind `JobSpec::Cascade`.

pub mod aos;
pub mod cascade;
pub mod exhaustive;
pub mod filters;
pub mod interpreter;
pub mod window;

pub use aos::{respond, AosBlockPlan};
pub use cascade::{cascade_spec, evolve_cascade_naive};
pub use exhaustive::Exhaustive;
pub use interpreter::{interpret_filter_image, interpret_window};
pub use window::{gather, map_windows, Window3x3};
