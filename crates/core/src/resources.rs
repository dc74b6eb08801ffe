//! Resource-utilisation model of the scalable platform (§VI.A, Fig. 10).
//!
//! The footprint of the platform grows proportionally with the number of
//! Array Control Blocks, following the design principles of run-time scalable
//! systolic coprocessors (the paper's ref. \[15\]): the static control logic is
//! paid once, and every additional ACB adds its own controller, FIFOs,
//! fitness unit and a 160-CLB reconfigurable array.  The `resources`
//! experiment binary prints this model next to the values published in the
//! paper.

use ehw_fabric::device::{DeviceGeometry, ARRAY_CLBS};
use ehw_fabric::resources::ResourceUsage;
use ehw_reconfig::timing::PE_RECONFIG_TIME_US;

/// Resource breakdown of a platform with a given number of arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformResources {
    /// Number of Array Control Blocks.
    pub arrays: usize,
    /// Static control logic (paid once, independent of the number of ACBs).
    pub static_control: ResourceUsage,
    /// One Array Control Block's logic (controller, FIFOs, fitness unit).
    pub per_acb: ResourceUsage,
    /// Reconfigurable fabric occupied by the arrays, in CLBs.
    pub array_clbs: usize,
    /// Reconfiguration time per PE in microseconds.
    pub pe_reconfig_us: f64,
    /// Fraction of the device CLBs used by the arrays.
    pub device_occupancy: f64,
}

impl PlatformResources {
    /// Builds the model for `arrays` ACBs on the paper's Virtex-5 LX110T.
    pub fn for_arrays(arrays: usize) -> Self {
        let geometry = DeviceGeometry::virtex5_lx110t();
        Self {
            arrays,
            static_control: ResourceUsage::paper_static_control(),
            per_acb: ResourceUsage::paper_acb(),
            array_clbs: arrays * ARRAY_CLBS,
            pe_reconfig_us: PE_RECONFIG_TIME_US,
            device_occupancy: geometry.array_occupancy(arrays),
        }
    }

    /// The paper's three-stage demonstrator (Fig. 10).
    pub fn paper_three_stage() -> Self {
        Self::for_arrays(3)
    }

    /// Total ACB logic over all arrays.
    pub fn total_acb_logic(&self) -> ResourceUsage {
        self.per_acb.scaled(self.arrays as u32)
    }

    /// Total static-region logic (static control plus all ACBs), i.e.
    /// everything that is not reconfigurable fabric.
    pub fn total_static_logic(&self) -> ResourceUsage {
        self.static_control + self.total_acb_logic()
    }

    /// Time to fully configure all arrays from scratch (every PE written
    /// once), in seconds.
    pub fn full_configuration_time_s(&self) -> f64 {
        self.arrays as f64 * 16.0 * self.pe_reconfig_us * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_three_stage_matches_published_numbers() {
        let r = PlatformResources::paper_three_stage();
        assert_eq!(r.arrays, 3);
        assert_eq!(r.static_control, ResourceUsage::new(733, 1365, 1817));
        assert_eq!(r.per_acb, ResourceUsage::new(754, 1642, 1528));
        assert_eq!(r.array_clbs, 3 * 160);
        assert!((r.pe_reconfig_us - 67.53).abs() < 1e-9);
    }

    #[test]
    fn static_logic_scales_linearly_with_acbs() {
        let one = PlatformResources::for_arrays(1);
        let three = PlatformResources::for_arrays(3);
        assert_eq!(one.static_control, three.static_control);
        assert_eq!(
            three.total_acb_logic().slices,
            3 * one.total_acb_logic().slices
        );
        let growth = three.total_static_logic().slices - one.total_static_logic().slices;
        assert_eq!(growth, 2 * 754);
    }

    #[test]
    fn occupancy_stays_below_device_capacity() {
        for arrays in 1..=6 {
            let r = PlatformResources::for_arrays(arrays);
            assert!(r.device_occupancy > 0.0 && r.device_occupancy < 1.0);
        }
    }

    #[test]
    fn full_configuration_time_is_per_pe_cost_times_pes() {
        let r = PlatformResources::paper_three_stage();
        // 3 arrays × 16 PEs × 67.53 µs ≈ 3.24 ms.
        assert!((r.full_configuration_time_s() - 48.0 * 67.53e-6).abs() < 1e-9);
    }
}
