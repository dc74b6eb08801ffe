//! Fault models: Single Event Upsets and Local Permanent Damage.
//!
//! §II of the paper distinguishes two fault classes for SRAM FPGAs operating
//! in harsh environments:
//!
//! * **SEU** (Single Event Upset) — a transient bit-flip in a configuration
//!   cell, repaired by rewriting the affected frame (scrubbing),
//! * **LPD** (Local Permanent Damage) — permanent damage from aging or
//!   high-energy particles; rewriting does not help, the logic occupying the
//!   damaged cells must be abandoned or worked around.
//!
//! The experiments in §VI.D additionally use the paper's own **PE-level fault
//! model**: a fault anywhere inside a PE makes its output misbehave, which is
//! emulated by reconfiguring the PE slot with a "dummy PE" that outputs random
//! values.  That PE-level model lives in `ehw-array`; this module provides the
//! configuration-memory-level counterpart plus a fault-injection campaign
//! helper used by the scrubbing tests.

use crate::frame::{ConfigMemory, FrameAddress, FRAME_BYTES};
use rand::Rng;

/// The two configuration-memory fault classes from §II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Single Event Upset: transient bit-flip, repaired by scrubbing.
    Seu,
    /// Local Permanent Damage: stuck bit that survives reconfiguration.
    Lpd,
}

impl FaultKind {
    /// `true` if scrubbing (rewriting the golden frame) repairs this fault.
    pub fn is_recoverable_by_scrubbing(self) -> bool {
        matches!(self, FaultKind::Seu)
    }
}

/// Record of a single injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Frame that was corrupted.
    pub addr: FrameAddress,
    /// Bit index within the frame.
    pub bit: usize,
    /// Fault class.
    pub kind: FaultKind,
}

/// A random fault injector with a configurable SEU/LPD mix, used by fault
/// campaigns.  The injector picks a uniformly random bit of a uniformly
/// random frame among the provided targets.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// Probability that an injected fault is an SEU (the rest are LPDs).
    pub seu_probability: f64,
    targets: Vec<FrameAddress>,
    history: Vec<FaultRecord>,
}

impl FaultInjector {
    /// Creates an injector over the given target frames.
    ///
    /// # Panics
    /// Panics if `targets` is empty or the probability is outside `[0, 1]`.
    pub fn new(targets: Vec<FrameAddress>, seu_probability: f64) -> Self {
        assert!(
            !targets.is_empty(),
            "fault injector needs at least one target frame"
        );
        assert!(
            (0.0..=1.0).contains(&seu_probability),
            "seu_probability must be within [0, 1]"
        );
        Self {
            seu_probability,
            targets,
            history: Vec::new(),
        }
    }

    /// Injects one random fault into `mem` and records it.
    pub fn inject_random<R: Rng + ?Sized>(
        &mut self,
        mem: &mut ConfigMemory,
        rng: &mut R,
    ) -> FaultRecord {
        let addr = self.targets[rng.gen_range(0..self.targets.len())];
        let bit = rng.gen_range(0..FRAME_BYTES * 8);
        let kind = if rng.gen_bool(self.seu_probability) {
            FaultKind::Seu
        } else {
            FaultKind::Lpd
        };
        let rec = mem.inject_fault(addr, bit, kind);
        self.history.push(rec);
        rec
    }

    /// Injects a specific fault (used for systematic campaigns that sweep
    /// every position, as in §VI.D).
    pub fn inject_at(
        &mut self,
        mem: &mut ConfigMemory,
        addr: FrameAddress,
        bit: usize,
        kind: FaultKind,
    ) -> FaultRecord {
        let rec = mem.inject_fault(addr, bit, kind);
        self.history.push(rec);
        rec
    }

    /// All faults injected so far, in order.
    pub fn history(&self) -> &[FaultRecord] {
        &self.history
    }

    /// Number of injected faults of the given kind.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.history.iter().filter(|r| r.kind == kind).count()
    }

    /// The target frames this injector draws from.
    pub fn targets(&self) -> &[FrameAddress] {
        &self.targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn targets() -> Vec<FrameAddress> {
        (0..4).map(|m| FrameAddress::new(0, 0, m)).collect()
    }

    #[test]
    fn seu_is_scrub_recoverable_lpd_is_not() {
        assert!(FaultKind::Seu.is_recoverable_by_scrubbing());
        assert!(!FaultKind::Lpd.is_recoverable_by_scrubbing());
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn empty_targets_panics() {
        let _ = FaultInjector::new(vec![], 0.5);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn bad_probability_panics() {
        let _ = FaultInjector::new(targets(), 1.5);
    }

    #[test]
    fn random_injection_hits_targets_only() {
        let mut mem = ConfigMemory::new();
        for t in targets() {
            mem.write_frame(t, Frame::from_bytes(&[0xFF; 16]));
        }
        let mut inj = FaultInjector::new(targets(), 0.5);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let rec = inj.inject_random(&mut mem, &mut rng);
            assert!(targets().contains(&rec.addr));
            assert!(rec.bit < FRAME_BYTES * 8);
        }
        assert_eq!(inj.history().len(), 50);
        assert_eq!(inj.count(FaultKind::Seu) + inj.count(FaultKind::Lpd), 50);
    }

    #[test]
    fn probability_one_gives_only_seus() {
        let mut mem = ConfigMemory::new();
        let mut inj = FaultInjector::new(targets(), 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            inj.inject_random(&mut mem, &mut rng);
        }
        assert_eq!(inj.count(FaultKind::Seu), 20);
        assert_eq!(inj.count(FaultKind::Lpd), 0);
    }

    #[test]
    fn probability_zero_gives_only_lpds() {
        let mut mem = ConfigMemory::new();
        let mut inj = FaultInjector::new(targets(), 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            inj.inject_random(&mut mem, &mut rng);
        }
        assert_eq!(inj.count(FaultKind::Lpd), 20);
    }

    #[test]
    fn systematic_injection_records_exact_location() {
        let mut mem = ConfigMemory::new();
        let mut inj = FaultInjector::new(targets(), 0.5);
        let a = FrameAddress::new(0, 0, 2);
        let rec = inj.inject_at(&mut mem, a, 33, FaultKind::Lpd);
        assert_eq!(rec.addr, a);
        assert_eq!(rec.bit, 33);
        assert!(mem.has_permanent_damage(a));
    }
}
