#![allow(unsafe_code)] // raw-pointer views of disjoint windows; see the SAFETY notes.

//! Disjoint strided windows of one buffer.
//!
//! Attention heads interleave within a `(B*T, C)` row, so the block a
//! `(batch, head)` unit owns is not a sub-slice: it is `T` runs of `hs`
//! floats, `C` apart. [`Window`] is exclusive access to exactly such a block,
//! so sibling units can be written from different pool tasks, and a strided
//! GEMM ([`crate::backend::Backend::gemm`]) can store its result there
//! directly.

use std::marker::PhantomData;
use std::ops::Range;

/// Exclusive access to a `(rows, cols)` window of a row-major buffer whose
/// rows start `ld` floats apart: the strided analogue of `&mut [f32]`.
///
/// Windows are only made by [`Window::new`] (one window over a buffer) and
/// by cutting an existing window into parts that share no element
/// ([`Window::grid`], [`Window::split_rows`], [`Window::split_cols`],
/// [`Window::row_block`]), so two live windows never overlap.
#[derive(Debug)]
pub struct Window<'a> {
    ptr: *mut f32,
    rows: usize,
    cols: usize,
    ld: usize,
    _buf: PhantomData<&'a mut [f32]>,
}

// SAFETY: a window is unique access to its elements for `'a`, exactly like
// the `&mut [f32]` it was cut from; `f32` is `Send`.
unsafe impl Send for Window<'_> {}

impl<'a> Window<'a> {
    /// The `(rows, cols)` window at the start of `buf`, rows `ld` apart.
    ///
    /// # Panics
    /// Panics if `ld < cols` or `buf` does not hold the last row.
    pub fn new(buf: &'a mut [f32], rows: usize, cols: usize, ld: usize) -> Self {
        Self::named("window", buf, rows, cols, ld)
    }

    /// [`Window::new`] whose panics call the buffer `what`.
    pub(crate) fn named(
        what: &str,
        buf: &'a mut [f32],
        rows: usize,
        cols: usize,
        ld: usize,
    ) -> Self {
        check_extent(what, buf.len(), rows, cols, ld);
        Window {
            ptr: buf.as_mut_ptr(),
            rows,
            cols,
            ld,
            _buf: PhantomData,
        }
    }

    /// Cuts the window into a grid of `block_rows x block_cols` windows,
    /// returned row block by row block and, within one, left to right. Two
    /// windows of the grid differ in their row range or in their column
    /// range, so they share no element.
    ///
    /// # Panics
    /// Panics unless the blocks tile the window exactly.
    pub fn grid(self, block_rows: usize, block_cols: usize) -> Vec<Window<'a>> {
        assert!(block_rows > 0 && block_cols > 0, "window grid: empty block");
        assert_eq!(self.rows % block_rows, 0, "window grid: rows do not tile");
        assert_eq!(
            self.cols % block_cols,
            0,
            "window grid: columns do not tile"
        );
        let mut windows = Vec::with_capacity((self.rows / block_rows) * (self.cols / block_cols));
        for r0 in (0..self.rows).step_by(block_rows) {
            for c0 in (0..self.cols).step_by(block_cols) {
                windows.push(Window {
                    // SAFETY: `(r0, c0)` is an element of this window.
                    ptr: unsafe { self.ptr.add(r0 * self.ld + c0) },
                    rows: block_rows,
                    cols: block_cols,
                    ..self
                });
            }
        }
        windows
    }

    /// Rows in the window.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns in the window.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Distance in floats between the starts of consecutive rows.
    pub(crate) fn ld(&self) -> usize {
        self.ld
    }

    /// Splits into the first `at` rows and the rest.
    ///
    /// # Panics
    /// Panics if `at > rows`.
    pub fn split_rows(self, at: usize) -> (Window<'a>, Window<'a>) {
        assert!(at <= self.rows, "window split past the last row");
        let head = Window { rows: at, ..self };
        let tail = Window {
            // `wrapping_add`: with `at == rows` the tail is empty and its
            // start may lie past the buffer; it is never dereferenced.
            ptr: self.ptr.wrapping_add(at * self.ld),
            rows: self.rows - at,
            ..self
        };
        (head, tail)
    }

    /// Splits into the first `at` columns and the rest.
    ///
    /// # Panics
    /// Panics if `at > cols`.
    pub fn split_cols(self, at: usize) -> (Window<'a>, Window<'a>) {
        assert!(at <= self.cols, "window split past the last column");
        let left = Window { cols: at, ..self };
        let right = Window {
            // As in `split_rows`: an empty right half is never dereferenced.
            ptr: self.ptr.wrapping_add(at),
            cols: self.cols - at,
            ..self
        };
        (left, right)
    }

    /// Reborrows rows `range` as a window of their own.
    ///
    /// # Panics
    /// Panics if the range is decreasing or ends past the last row.
    pub fn row_block(&mut self, range: Range<usize>) -> Window<'_> {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "window row block out of range"
        );
        Window {
            ptr: self.ptr.wrapping_add(range.start * self.ld),
            rows: range.len(),
            cols: self.cols,
            ld: self.ld,
            _buf: PhantomData,
        }
    }

    /// Row `i` of the window, mutably.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "window row out of range");
        // SAFETY: row `i` lies inside the window, which this borrow holds
        // mutably.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.ld), self.cols) }
    }

    /// Start of the window, for the GEMM driver. Valid for reads and writes
    /// of `cols` floats at each `i * ld`, `i < rows`, while `self` is
    /// borrowed.
    pub(crate) fn as_mut_ptr(&mut self) -> *mut f32 {
        self.ptr
    }
}

/// Panics unless a row-major `(rows, cols)` matrix with rows `ld` apart fits
/// in `len` floats. An empty matrix fits anywhere.
pub(crate) fn check_extent(what: &str, len: usize, rows: usize, cols: usize, ld: usize) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(
        ld >= cols,
        "{what}: leading dimension {ld} < {cols} columns"
    );
    assert!((rows - 1) * ld + cols <= len, "{what} too short");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_windows_cover_the_buffer_once() {
        let (rows, ld, br, bc) = (6, 8, 3, 2);
        let mut buf = vec![0.0f32; rows * ld];
        let mut grid = Window::new(&mut buf, rows, ld, ld).grid(br, bc);
        assert_eq!(grid.len(), (rows / br) * (ld / bc));
        for (id, w) in grid.iter_mut().enumerate() {
            assert_eq!((w.rows(), w.cols(), w.ld()), (br, bc, ld));
            for i in 0..br {
                w.row_mut(i).iter_mut().for_each(|v| *v += 1.0 + id as f32);
            }
        }
        for (i, v) in buf.iter().enumerate() {
            let id = (i / ld / br) * (ld / bc) + (i % ld) / bc;
            assert_eq!(*v, 1.0 + id as f32, "element {i}");
        }
    }

    #[test]
    fn split_and_row_block_stay_inside_the_window() {
        let mut buf: Vec<f32> = (0..20).map(|i| i as f32).collect();
        // 3 rows of 2 columns, 7 apart: the window ends at element 16.
        let w = Window::new(&mut buf[1..17], 3, 2, 7);
        let (mut head, mut tail) = w.split_rows(1);
        assert_eq!(head.row_mut(0), &[1.0, 2.0]);
        assert_eq!(tail.row_mut(1), &[15.0, 16.0]);
        let mut last = tail.row_block(1..2);
        last.row_mut(0)[1] = -1.0;
        let (all, none) = tail.split_rows(2);
        assert_eq!((all.rows(), none.rows()), (2, 0));
        let (mut left, mut right) = all.split_cols(1);
        assert_eq!((left.row_mut(1)[0], right.row_mut(1)[0]), (15.0, -1.0));
        assert_eq!(buf[16], -1.0);
    }

    #[test]
    #[should_panic(expected = "leading dimension 3 < 4 columns")]
    fn window_rejects_a_short_leading_dimension() {
        Window::new(&mut [0.0; 16], 2, 4, 3);
    }

    #[test]
    #[should_panic(expected = "window too short")]
    fn window_rejects_a_short_buffer() {
        Window::new(&mut [0.0; 9], 2, 4, 6);
    }

    #[test]
    #[should_panic(expected = "columns do not tile")]
    fn grid_rejects_ragged_columns() {
        Window::new(&mut [0.0; 12], 2, 6, 6).grid(1, 4);
    }

    #[test]
    #[should_panic(expected = "rows do not tile")]
    fn grid_rejects_ragged_rows() {
        Window::new(&mut [0.0; 18], 3, 6, 6).grid(2, 3);
    }

    #[test]
    #[should_panic(expected = "row block out of range")]
    fn row_block_rejects_rows_past_the_end() {
        Window::new(&mut [0.0; 8], 2, 4, 4).row_block(1..3);
    }
}
