//! The scalar per-window reference-filter kernels.
//!
//! `ReferenceFilter::apply` runs every built-in filter as plane-wise passes
//! over `SharedWindows`.  The kernels here compute the same filters one
//! [`Window3x3`] at a time, straight from their definitions; the test below
//! pins the two byte for byte, and `bench_summary` times the plane path
//! against [`map_windows`](crate::window::map_windows) over these kernels.

use ehw_image::filters::ReferenceFilter;

use crate::window::Window3x3;

/// Applies `filter` to a single window (the per-pixel kernel).
pub fn kernel(filter: ReferenceFilter, w: &Window3x3) -> u8 {
    match filter {
        ReferenceFilter::Median => w.median(),
        ReferenceFilter::Mean => w.mean(),
        ReferenceFilter::Gaussian => gaussian_kernel(w),
        ReferenceFilter::SobelEdge => sobel_kernel(w),
        ReferenceFilter::Laplacian => laplacian_kernel(w),
        ReferenceFilter::Erode => w.min(),
        ReferenceFilter::Dilate => w.max(),
        ReferenceFilter::Sharpen => sharpen_kernel(w),
        ReferenceFilter::Identity => w.center(),
    }
}

fn gaussian_kernel(w: &Window3x3) -> u8 {
    // 1 2 1 / 2 4 2 / 1 2 1, normalised by 16.
    const K: [u32; 9] = [1, 2, 1, 2, 4, 2, 1, 2, 1];
    let sum: u32 = w.0.iter().zip(K.iter()).map(|(&p, &k)| p as u32 * k).sum();
    ((sum + 8) / 16) as u8
}

fn sobel_kernel(w: &Window3x3) -> u8 {
    let p = |i: usize| w.0[i] as i32;
    // Horizontal and vertical Sobel gradients on the 3×3 window.
    let gx = (p(2) + 2 * p(5) + p(8)) - (p(0) + 2 * p(3) + p(6));
    let gy = (p(6) + 2 * p(7) + p(8)) - (p(0) + 2 * p(1) + p(2));
    let mag = gx.abs() + gy.abs();
    mag.min(255) as u8
}

fn laplacian_kernel(w: &Window3x3) -> u8 {
    let p = |i: usize| w.0[i] as i32;
    let lap = 4 * p(4) - p(1) - p(3) - p(5) - p(7);
    lap.unsigned_abs().min(255) as u8
}

fn sharpen_kernel(w: &Window3x3) -> u8 {
    let c = w.center() as i32;
    let g = gaussian_kernel(w) as i32;
    (c + (c - g)).clamp(0, 255) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::map_windows;
    use ehw_image::synth;
    use ehw_image::window::SharedWindows;

    #[test]
    fn kernel_and_apply_agree_for_all_filters() {
        // The plane-routed `apply` must be byte-identical to the scalar
        // per-window kernel, including at borders and degenerate shapes
        // (where every pixel is a border pixel).
        let shapes = [
            synth::shapes(32, 32, 3),
            synth::shapes(1, 1, 1),
            synth::shapes(1, 7, 1),
            synth::shapes(2, 2, 1),
            synth::shapes(5, 2, 1),
        ];
        for img in &shapes {
            let planes = SharedWindows::new(img);
            for f in ReferenceFilter::ALL {
                let full = f.apply(img);
                let via_kernel = map_windows(img, |w| kernel(f, w));
                assert_eq!(
                    full,
                    via_kernel,
                    "filter {f:?} disagrees at {}x{}",
                    img.width(),
                    img.height()
                );
                assert_eq!(f.apply_planes(&planes), via_kernel, "planes {f:?}");
            }
        }
    }
}
