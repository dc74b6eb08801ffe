//! Aggregation helpers for multi-run experiments.
//!
//! The paper reports *average* results over **50 independent runs** (e.g.
//! "average evolution time of 50 runs of 100,000 generations each", Figs.
//! 12–15) as well as best-of-run values (Fig. 17).  [`Summary`] captures the
//! statistics the experiment binaries print for each sweep point.

/// Basic descriptive statistics of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises a slice of samples.
    ///
    /// # Panics
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarise an empty sample set");
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let variance = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
        }
        Summary {
            count,
            mean,
            std_dev: variance.sqrt(),
            min,
            max,
        }
    }

    /// Summarises integer samples (fitness values, reconfiguration counts).
    pub fn of_u64(samples: &[u64]) -> Self {
        let as_f64: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        Self::of(&as_f64)
    }
}

/// Accumulates best-fitness-per-generation curves across runs and produces
/// the averaged convergence curve (the kind of data behind Fig. 20).
#[derive(Debug, Clone, Default)]
pub struct ConvergenceAccumulator {
    sums: Vec<f64>,
    runs: usize,
}

impl ConvergenceAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one run's history (best fitness after each generation).  Histories
    /// of different lengths are allowed: shorter ones are padded with their
    /// final value, matching how an early-terminated run would keep reporting
    /// its converged fitness.
    pub fn add_run(&mut self, history: &[u64]) {
        if history.is_empty() {
            return;
        }
        if history.len() > self.sums.len() {
            // Previous runs were shorter: extend the accumulated sums by
            // carrying their final cumulative value forward, which is the sum
            // of each prior run's converged fitness.
            let pad_value = self.sums.last().copied().unwrap_or(0.0);
            self.sums.resize(history.len(), pad_value);
        }
        let last = *history.last().expect("non-empty") as f64;
        for (i, slot) in self.sums.iter_mut().enumerate() {
            let value = history.get(i).map(|&v| v as f64).unwrap_or(last);
            *slot += value;
        }
        self.runs += 1;
    }

    /// Number of runs accumulated.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// The averaged convergence curve.
    pub fn mean_curve(&self) -> Vec<f64> {
        if self.runs == 0 {
            return Vec::new();
        }
        self.sums.iter().map(|s| s / self.runs as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_samples() {
        let s = Summary::of(&[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_of_u64_matches_f64() {
        let a = Summary::of_u64(&[1, 2, 3, 4]);
        let b = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_summary_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn convergence_accumulator_averages_runs() {
        let mut acc = ConvergenceAccumulator::new();
        acc.add_run(&[10, 8, 6]);
        acc.add_run(&[20, 10, 4]);
        assert_eq!(acc.runs(), 2);
        let curve = acc.mean_curve();
        assert_eq!(curve, vec![15.0, 9.0, 5.0]);
    }

    #[test]
    fn convergence_accumulator_pads_short_runs_with_final_value() {
        let mut acc = ConvergenceAccumulator::new();
        acc.add_run(&[10, 5]); // converged early, keeps reporting 5
        acc.add_run(&[8, 6, 4, 2]);
        let curve = acc.mean_curve();
        assert_eq!(curve.len(), 4);
        assert_eq!(curve[0], 9.0);
        assert_eq!(curve[1], 5.5);
        assert_eq!(curve[2], (5.0 + 4.0) / 2.0);
        assert_eq!(curve[3], (5.0 + 2.0) / 2.0);
    }

    #[test]
    fn empty_accumulator_gives_empty_curve() {
        let acc = ConvergenceAccumulator::new();
        assert!(acc.mean_curve().is_empty());
        assert_eq!(acc.runs(), 0);
    }
}
