//! 3×3 sliding-window extraction.
//!
//! The evolvable array computes each output pixel from the 3×3 neighbourhood
//! of the corresponding input pixel.  In hardware the neighbourhood is built
//! by three image-line FIFOs in front of the array (§III.A and §IV.A of the
//! paper); at the borders the line buffers replicate the nearest valid pixel.
//! Each of the array's eight data inputs then picks *one* pixel of that
//! window through a 9-to-1 mux.
//!
//! [`SharedWindows`] is the software form of that front end, and the only
//! window layout the production crates use.  It stores nine per-selector
//! planes: `plane(sel)[i]` is pixel `sel` of the window centred on pixel `i`,
//! exactly the stream one mux input reads.  The window pixels are numbered
//! row-major:
//!
//! ```text
//! sel 0 1 2      NW N NE
//! sel 3 4 5  =   W  C  E
//! sel 6 7 8      SW S SE
//! ```
//!
//! Every plane is a copy of the image shifted by at most one row and one
//! column, with the edges replicated, so extraction is three row slices per
//! image row and one `memcpy` per plane row: no per-pixel gather and no
//! special case for narrow images.

use crate::image::GrayImage;

/// Selector of the centre pixel (`C` above).  The hardware decodes mux
/// selector values above 8 to this pixel.
pub const CENTER: usize = 4;

/// Every 3×3 window of one image, extracted once and shared.
///
/// A λ-batch of candidate circuits all filter the *same* training image, so
/// extracting the windows per candidate would multiply the extraction cost by
/// λ.  `SharedWindows` extracts once and hands every consumer the same nine
/// planes; the array's block evaluator then fills each lane buffer with one
/// contiguous `memcpy` from the plane its input mux selects.
#[derive(Debug, Clone)]
pub struct SharedWindows {
    width: usize,
    height: usize,
    planes: [Vec<u8>; 9],
}

impl SharedWindows {
    /// Extracts every window of `img`.  Plane `sel` is the image shifted by
    /// `sel / 3 - 1` rows and `sel % 3 - 1` columns, with the nearest valid
    /// pixel replicated past each border, built row by row from three row
    /// slices (above, centre, below).
    pub fn new(img: &GrayImage) -> Self {
        let (w, h) = (img.width(), img.height());
        let planes = std::array::from_fn(|sel| {
            let mut plane = Vec::with_capacity(img.len());
            for y in 0..h {
                let src = img.row(match sel / 3 {
                    0 => y.saturating_sub(1),
                    1 => y,
                    _ => (y + 1).min(h - 1),
                });
                match sel % 3 {
                    0 => {
                        plane.push(src[0]);
                        plane.extend_from_slice(&src[..w - 1]);
                    }
                    1 => plane.extend_from_slice(src),
                    _ => {
                        plane.extend_from_slice(&src[1..]);
                        plane.push(src[w - 1]);
                    }
                }
            }
            plane
        });
        Self {
            width: w,
            height: h,
            planes,
        }
    }

    /// Width of the source image.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height of the source image.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of windows (= pixels of the source image).
    pub fn len(&self) -> usize {
        self.planes[0].len()
    }

    /// `true` if the buffer holds no windows (never the case for a
    /// constructed image; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.planes[0].is_empty()
    }

    /// The contiguous plane of window pixel `sel` (0–8, row-major within the
    /// window), indexed by raster position.
    #[inline]
    pub fn plane(&self, sel: usize) -> &[u8] {
        &self.planes[sel]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image() -> GrayImage {
        // 0  1  2  3
        // 4  5  6  7
        // 8  9 10 11
        GrayImage::from_fn(4, 3, |x, y| (y * 4 + x) as u8)
    }

    fn window_at(windows: &SharedWindows, i: usize) -> [u8; 9] {
        std::array::from_fn(|sel| windows.plane(sel)[i])
    }

    #[test]
    fn planes_hold_the_neighbourhood_with_replicated_borders() {
        let windows = SharedWindows::new(&test_image());
        assert_eq!((windows.width(), windows.height()), (4, 3));
        assert_eq!(windows.len(), 12);
        assert!(!windows.is_empty());
        // Interior pixel (1, 1).
        assert_eq!(window_at(&windows, 5), [0, 1, 2, 4, 5, 6, 8, 9, 10]);
        // Top-left and bottom-right corners.
        assert_eq!(window_at(&windows, 0), [0, 0, 1, 0, 0, 1, 4, 4, 5]);
        assert_eq!(window_at(&windows, 11), [6, 7, 7, 10, 11, 11, 10, 11, 11]);
        // The centre plane is the image itself.
        assert_eq!(windows.plane(CENTER), test_image().as_slice());
    }
}
