//! The array-of-structures window view.
//!
//! [`Window3x3`] holds one pixel's 3×3 neighbourhood as nine bytes, the
//! shape the per-pixel interpreter and the scalar reference kernels read.
//! Production code never builds it: `ehw_image::window::SharedWindows`
//! stores every window as nine per-selector planes.  The builders here are
//! the plain clamped-read definition of a window ([`Window3x3::from_image`]),
//! the three-row streaming extraction ([`for_each_window_in_rows`]) the AoS
//! baselines time, and a gather of one window back out of the planes
//! ([`gather`]); the tests below pin the planes to all of them.

use ehw_image::image::GrayImage;
use ehw_image::window::{SharedWindows, CENTER};

/// The 3×3 neighbourhood of a pixel, in row-major order:
///
/// ```text
/// w[0] w[1] w[2]      NW N NE
/// w[3] w[4] w[5]  =   W  C  E
/// w[6] w[7] w[8]      SW S SE
/// ```
///
/// Index 4 is the centre pixel.  The paper's array has eight data inputs (four
/// on the north side, four on the west side), each preceded by a 9-to-1
/// multiplexer that selects one of these nine window pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window3x3(pub [u8; 9]);

impl Window3x3 {
    /// Index of the centre pixel within the window.
    pub const CENTER: usize = CENTER;

    /// Builds the window centred on `(x, y)` with replicated borders.
    pub fn from_image(img: &GrayImage, x: usize, y: usize) -> Self {
        let xi = x as isize;
        let yi = y as isize;
        let mut w = [0u8; 9];
        let mut k = 0;
        for dy in -1..=1 {
            for dx in -1..=1 {
                w[k] = img.pixel_clamped(xi + dx, yi + dy);
                k += 1;
            }
        }
        Window3x3(w)
    }

    /// The centre pixel of the window.
    #[inline]
    pub fn center(&self) -> u8 {
        self.0[Self::CENTER]
    }

    /// Selects one pixel of the window; `sel` is the 9-to-1 mux selector used
    /// by the array inputs (0–8, row-major).  Selector values above 8 are
    /// clamped to the centre pixel, mirroring the hardware's "safe" decode of
    /// out-of-range register values.
    #[inline]
    pub fn select(&self, sel: u8) -> u8 {
        if (sel as usize) < 9 {
            self.0[sel as usize]
        } else {
            self.center()
        }
    }

    /// Returns the window pixels sorted ascending (used by the median
    /// reference filter).
    pub fn sorted(&self) -> [u8; 9] {
        let mut s = self.0;
        s.sort_unstable();
        s
    }

    /// Median of the nine window pixels.
    #[inline]
    pub fn median(&self) -> u8 {
        self.sorted()[4]
    }

    /// Integer mean of the nine window pixels (rounded towards zero, as a
    /// hardware divider by 9 would after truncation).
    #[inline]
    pub fn mean(&self) -> u8 {
        (self.0.iter().map(|&p| p as u32).sum::<u32>() / 9) as u8
    }

    /// Minimum of the nine window pixels.
    #[inline]
    pub fn min(&self) -> u8 {
        *self.0.iter().min().expect("window is non-empty")
    }

    /// Maximum of the nine window pixels.
    #[inline]
    pub fn max(&self) -> u8 {
        *self.0.iter().max().expect("window is non-empty")
    }
}

/// Gathers window `i` (raster order) back out of the planes.
pub fn gather(windows: &SharedWindows, i: usize) -> Window3x3 {
    Window3x3(std::array::from_fn(|sel| windows.plane(sel)[i]))
}

/// Iterates the 3×3 window for every pixel of `img` in raster order,
/// yielding `(x, y, window)` from the clamped per-pixel builder.
pub fn windows(img: &GrayImage) -> impl Iterator<Item = (usize, usize, Window3x3)> + '_ {
    let (w, h) = (img.width(), img.height());
    (0..h).flat_map(move |y| (0..w).map(move |x| (x, y, Window3x3::from_image(img, x, y))))
}

/// Streams the 3×3 window of every pixel in rows `y0..y1` (raster order) to
/// `f(x, y, window)`.
///
/// Each output row is assembled from three row slices (the row above, the
/// row itself and the row below, clamped at the top/bottom borders), and
/// only the first and last pixel of a row pay for horizontal clamping.
/// Windows produced here are bit-identical to [`Window3x3::from_image`].
pub fn for_each_window_in_rows(
    img: &GrayImage,
    y0: usize,
    y1: usize,
    mut f: impl FnMut(usize, usize, &Window3x3),
) {
    let w = img.width();
    let h = img.height();
    debug_assert!(y0 <= y1 && y1 <= h, "row range out of bounds");
    for y in y0..y1 {
        let above = img.row(y.saturating_sub(1));
        let center = img.row(y);
        let below = img.row(if y + 1 < h { y + 1 } else { h - 1 });
        if w < 3 {
            // Degenerate widths: every pixel is a border pixel; fall back to
            // the clamped builder.
            for x in 0..w {
                f(x, y, &Window3x3::from_image(img, x, y));
            }
            continue;
        }
        // Left border: the column to the west replicates column 0.
        let win = Window3x3([
            above[0], above[0], above[1], center[0], center[0], center[1], below[0], below[0],
            below[1],
        ]);
        f(0, y, &win);
        // Interior fast path: unclamped reads from the three row buffers.
        for x in 1..w - 1 {
            let win = Window3x3([
                above[x - 1],
                above[x],
                above[x + 1],
                center[x - 1],
                center[x],
                center[x + 1],
                below[x - 1],
                below[x],
                below[x + 1],
            ]);
            f(x, y, &win);
        }
        // Right border: the column to the east replicates the last column.
        let l = w - 1;
        let win = Window3x3([
            above[l - 1],
            above[l],
            above[l],
            center[l - 1],
            center[l],
            center[l],
            below[l - 1],
            below[l],
            below[l],
        ]);
        f(l, y, &win);
    }
}

/// Streams the 3×3 window of every pixel of the image in raster order —
/// the whole-image form of [`for_each_window_in_rows`].
pub fn for_each_window(img: &GrayImage, f: impl FnMut(usize, usize, &Window3x3)) {
    for_each_window_in_rows(img, 0, img.height(), f);
}

/// Applies a per-window function over the whole image through the streaming
/// extraction, producing a new image of the same dimensions.
pub fn map_windows(img: &GrayImage, mut f: impl FnMut(&Window3x3) -> u8) -> GrayImage {
    let mut data = Vec::with_capacity(img.len());
    for_each_window(img, |_, _, w| data.push(f(w)));
    GrayImage::from_vec(img.width(), img.height(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehw_image::synth;

    fn test_image() -> GrayImage {
        // 0  1  2  3
        // 4  5  6  7
        // 8  9 10 11
        GrayImage::from_fn(4, 3, |x, y| (y * 4 + x) as u8)
    }

    #[test]
    fn interior_window_is_neighbourhood() {
        let img = test_image();
        let w = Window3x3::from_image(&img, 1, 1);
        assert_eq!(w.0, [0, 1, 2, 4, 5, 6, 8, 9, 10]);
        assert_eq!(w.center(), 5);
    }

    #[test]
    fn corner_window_replicates_border() {
        let img = test_image();
        let w = Window3x3::from_image(&img, 0, 0);
        assert_eq!(w.0, [0, 0, 1, 0, 0, 1, 4, 4, 5]);
        let w = Window3x3::from_image(&img, 3, 2);
        assert_eq!(w.0, [6, 7, 7, 10, 11, 11, 10, 11, 11]);
    }

    #[test]
    fn select_mux_behaviour() {
        let img = test_image();
        let w = Window3x3::from_image(&img, 1, 1);
        for sel in 0..9u8 {
            assert_eq!(w.select(sel), w.0[sel as usize]);
        }
        // Out-of-range selectors decode to the centre pixel.
        assert_eq!(w.select(9), w.center());
        assert_eq!(w.select(255), w.center());
    }

    #[test]
    fn window_statistics() {
        let w = Window3x3([9, 1, 8, 2, 7, 3, 6, 4, 5]);
        assert_eq!(w.sorted(), [1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(w.median(), 5);
        assert_eq!(w.min(), 1);
        assert_eq!(w.max(), 9);
        assert_eq!(w.mean(), 5);
    }

    #[test]
    fn windows_iterator_covers_every_pixel() {
        let img = test_image();
        let collected: Vec<_> = windows(&img).collect();
        assert_eq!(collected.len(), 12);
        assert_eq!(collected[0].0, 0);
        assert_eq!(collected[0].1, 0);
        assert_eq!(collected[11].0, 3);
        assert_eq!(collected[11].1, 2);
    }

    #[test]
    fn map_windows_identity_on_center() {
        let img = test_image();
        let out = map_windows(&img, |w| w.center());
        assert_eq!(out, img);
    }

    #[test]
    fn map_windows_constant() {
        let img = test_image();
        let out = map_windows(&img, |_| 42);
        assert!(out.pixels().all(|p| p == 42));
        assert_eq!(out.width(), img.width());
        assert_eq!(out.height(), img.height());
    }

    #[test]
    fn streaming_windows_match_clamped_builder() {
        // The streaming extraction (interior fast path + border clamping)
        // must agree with the per-pixel clamped builder everywhere, for all
        // degenerate shapes.
        for (w, h) in [
            (1, 1),
            (1, 5),
            (2, 2),
            (2, 7),
            (3, 3),
            (4, 3),
            (7, 5),
            (16, 9),
        ] {
            let img = GrayImage::from_fn(w, h, |x, y| (x * 31 + y * 7) as u8);
            let mut count = 0;
            for_each_window(&img, |x, y, win| {
                assert_eq!(
                    *win,
                    Window3x3::from_image(&img, x, y),
                    "({x},{y}) of {w}x{h}"
                );
                count += 1;
            });
            assert_eq!(count, w * h);
        }
    }

    #[test]
    fn streaming_row_range_covers_requested_rows_only() {
        let img = test_image();
        let mut visited = Vec::new();
        for_each_window_in_rows(&img, 1, 3, |x, y, _| visited.push((x, y)));
        assert_eq!(visited.len(), 8);
        assert!(visited.iter().all(|&(_, y)| y == 1 || y == 2));
        assert_eq!(visited[0], (0, 1));
        assert_eq!(visited[7], (3, 2));
    }

    #[test]
    fn shared_windows_match_iterator_and_map() {
        let img = test_image();
        let shared = SharedWindows::new(&img);
        assert_eq!(shared.len(), img.len());
        assert_eq!(shared.width(), img.width());
        assert_eq!(shared.height(), img.height());
        assert!(!shared.is_empty());
        for (i, (x, y, w)) in windows(&img).enumerate() {
            assert_eq!(gather(&shared, i), w, "window ({x},{y})");
        }
        // Mapping the gathered windows equals mapping the image directly.
        let gathered: Vec<u8> = (0..shared.len())
            .map(|i| gather(&shared, i).median())
            .collect();
        assert_eq!(
            GrayImage::from_vec(img.width(), img.height(), gathered),
            map_windows(&img, |w| w.median())
        );
    }

    #[test]
    fn window_planes_are_the_transpose_of_the_window_stream() {
        // Plane `sel` at raster index `i` must hold pixel `sel` of window `i`
        // for every shape, including degenerate ones.
        for (w, h) in [(1, 1), (1, 5), (2, 2), (3, 3), (4, 3), (7, 5), (16, 9)] {
            let img = GrayImage::from_fn(w, h, |x, y| (x * 13 + y * 5) as u8);
            let planes = SharedWindows::new(&img);
            assert_eq!(planes.len(), w * h);
            assert_eq!(planes.width(), w);
            assert_eq!(planes.height(), h);
            assert!(!planes.is_empty());
            let mut i = 0;
            for_each_window(&img, |x, y, win| {
                for sel in 0..9 {
                    assert_eq!(
                        planes.plane(sel)[i],
                        win.0[sel],
                        "plane {sel} at ({x},{y}) of {w}x{h}"
                    );
                }
                i += 1;
            });
        }
    }

    #[test]
    fn row_copy_extraction_matches_the_clamped_builder() {
        // `SharedWindows::new` builds each plane from shifted row copies with
        // no special case for narrow images, so the one- and two-pixel edges
        // need their own cases next to a realistic scene.
        let shapes = [
            synth::shapes(1, 1, 1),
            synth::shapes(1, 7, 1),
            synth::shapes(7, 1, 1),
            synth::shapes(2, 2, 1),
            synth::shapes(5, 2, 1),
            synth::shapes(32, 32, 3),
        ];
        for img in &shapes {
            let (w, h) = (img.width(), img.height());
            let shared = SharedWindows::new(img);
            assert_eq!(
                (shared.width(), shared.height(), shared.len()),
                (w, h, w * h)
            );
            for (i, (x, y, win)) in windows(img).enumerate() {
                assert_eq!(gather(&shared, i), win, "({x},{y}) of {w}x{h}");
            }
        }
    }
}
