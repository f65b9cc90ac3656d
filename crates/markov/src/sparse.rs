//! Compressed sparse row matrices.
//!
//! Just enough linear algebra for the Markov solvers: construction from
//! (row, col, value) triplets or row by row, with duplicate summing, row
//! iteration, `y = xᵀA` and `y = Ax` products, and transposition.
//! Construction and transposition are counting sorts, linear in the entry
//! count apart from the column sort inside each row, and keep the
//! summation order of duplicates fixed (input order), so a matrix is
//! bit-for-bit a function of its triplet list, however it is handed in.

use std::fmt;

/// Error constructing a sparse matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// A triplet referenced a row or column outside the matrix shape.
    IndexOutOfBounds {
        /// Offending row.
        row: usize,
        /// Offending column.
        col: usize,
    },
    /// A value was NaN or infinite.
    NonFiniteValue,
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds { row, col } => {
                write!(f, "triplet ({row}, {col}) out of bounds")
            }
            SparseError::NonFiniteValue => write!(f, "matrix entries must be finite"),
        }
    }
}

impl std::error::Error for SparseError {}

/// A compressed sparse row (CSR) matrix of `f64`.
///
/// # Example
///
/// ```
/// use itua_markov::sparse::CsrMatrix;
///
/// let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap();
/// assert_eq!(m.get(0, 2), 2.0);
/// assert_eq!(m.get(1, 0), 0.0);
/// let y = m.mul_vec(&[1.0, 1.0, 1.0]);
/// assert_eq!(y, vec![3.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a matrix from (row, col, value) triplets.
    ///
    /// Duplicate coordinates are summed in input order (the first value
    /// plus the second, plus the third, …); entries that are zero after
    /// summing, explicit or cancelled, are dropped.
    ///
    /// Assembly is a counting sort on rows, which keeps input order within
    /// each row, followed by a stable sort on columns inside each row; no
    /// sorted or merged copy of the triplets is made.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] for out-of-bounds indices or non-finite
    /// values.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, SparseError> {
        for &(r, c, v) in triplets {
            if r >= rows || c >= cols {
                return Err(SparseError::IndexOutOfBounds { row: r, col: c });
            }
            if !v.is_finite() {
                return Err(SparseError::NonFiniteValue);
            }
        }
        let mut row_ptr = row_starts(rows, triplets.iter().map(|&(r, _, _)| r));
        let mut fill = row_ptr[..rows].to_vec();
        let mut entries = vec![(0usize, 0.0f64); triplets.len()];
        for &(r, c, v) in triplets {
            entries[fill[r]] = (c, v);
            fill[r] += 1;
        }

        // Compact row by row; `row_ptr[r]` is read before it is
        // overwritten with the row's compacted start.
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(entries.len());
        for r in 0..rows {
            let row = &mut entries[row_ptr[r]..row_ptr[r + 1]];
            row_ptr[r] = col_idx.len();
            compact_row(row, &mut col_idx, &mut values);
        }
        row_ptr[rows] = col_idx.len();
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a matrix row by row: `row(r, entries)` appends row `r`'s
    /// `(col, value)` entries, in input order, to the emptied `entries`.
    /// The result is bit for bit [`CsrMatrix::from_triplets`] on every
    /// row's entries in row order, with no triplet list held. `capacity`
    /// bounds the total entry count from above, so the arrays are
    /// allocated once.
    ///
    /// # Errors
    ///
    /// The first error `row` returns, or [`SparseError`] for the first
    /// out-of-bounds column or non-finite value, in row order.
    pub fn from_rows<E: From<SparseError>>(
        rows: usize,
        cols: usize,
        capacity: usize,
        mut row: impl FnMut(usize, &mut Vec<(usize, f64)>) -> Result<(), E>,
    ) -> Result<Self, E> {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(capacity);
        let mut values = Vec::with_capacity(capacity);
        let mut entries = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            entries.clear();
            row(r, &mut entries)?;
            for &(c, v) in &entries {
                if c >= cols {
                    return Err(SparseError::IndexOutOfBounds { row: r, col: c }.into());
                }
                if !v.is_finite() {
                    return Err(SparseError::NonFiniteValue.into());
                }
            }
            compact_row(&mut entries, &mut col_idx, &mut values);
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// This matrix with the rows flagged in `cleared` emptied: bit for
    /// bit what [`CsrMatrix::from_triplets`] builds from the triplets of
    /// the other rows, since each kept row is compacted from the same
    /// entries in the same order.
    ///
    /// # Panics
    ///
    /// Panics unless `cleared` has one flag per row.
    pub fn with_rows_cleared(&self, cleared: &[bool]) -> CsrMatrix {
        assert_eq!(cleared.len(), self.rows, "one flag per row");
        let kept = |r: usize| (!cleared[r]).then(|| self.row_ptr[r]..self.row_ptr[r + 1]);
        let nnz = (0..self.rows).filter_map(kept).map(|span| span.len()).sum();
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for span in (0..self.rows).map(kept) {
            if let Some(span) = span {
                col_idx.extend_from_slice(&self.col_idx[span.clone()]);
                values.extend_from_slice(&self.values[span]);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Value at `(row, col)` (0.0 if not stored).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        for k in self.row_ptr[row]..self.row_ptr[row + 1] {
            if self.col_idx[k] == col {
                return self.values[k];
            }
        }
        0.0
    }

    /// Iterates over `(col, value)` pairs of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(row < self.rows);
        (self.row_ptr[row]..self.row_ptr[row + 1]).map(move |k| (self.col_idx[k], self.values[k]))
    }

    /// The CSR arrays `(row_ptr, col_idx, values)`: row `r` stores its
    /// entries at positions `row_ptr[r]..row_ptr[r + 1]`, in ascending
    /// column order.
    pub(crate) fn parts(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Dense `y = A·x` (column vector product).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yr = acc;
        }
        y
    }

    /// Dense `y = xᵀ·A` (row vector product), the natural operation for
    /// probability-vector propagation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn vec_mul(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                y[self.col_idx[k]] += xr * self.values[k];
            }
        }
        y
    }

    /// Returns the transpose, by a counting sort on columns in O(nnz):
    /// walking the rows in order fills every column of the result in
    /// increasing row order, so no entry moves after it is placed.
    pub fn transpose(&self) -> CsrMatrix {
        let row_ptr = row_starts(self.cols, self.col_idx.iter().copied());
        let mut fill = row_ptr[..self.cols].to_vec();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let slot = &mut fill[self.col_idx[k]];
                col_idx[*slot] = r;
                values[*slot] = self.values[k];
                *slot += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Sum of the entries in `row`.
    pub fn row_sum(&self, row: usize) -> f64 {
        self.row(row).map(|(_, v)| v).sum()
    }
}

/// Appends one row's entries to `col_idx` / `values` in ascending column
/// order: a stable sort on columns, then each run of equal columns summed
/// in input order, and the sums that are zero dropped.
fn compact_row(row: &mut [(usize, f64)], col_idx: &mut Vec<usize>, values: &mut Vec<f64>) {
    row.sort_by_key(|&(c, _)| c);
    let mut k = 0;
    while k < row.len() {
        let (c, mut v) = row[k];
        k += 1;
        while k < row.len() && row[k].0 == c {
            v += row[k].1;
            k += 1;
        }
        if v != 0.0 {
            col_idx.push(c);
            values.push(v);
        }
    }
}

/// Row starts for entries whose row indices are `rows_of`: row `r`'s
/// entries go to `starts[r]..starts[r + 1]`, and `starts[rows]` is their
/// count.
fn row_starts(rows: usize, rows_of: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut starts = vec![0usize; rows + 1];
    for r in rows_of {
        starts[r + 1] += 1;
    }
    for r in 0..rows {
        starts[r + 1] += starts[r];
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_get() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (2, 0, -1.0), (1, 1, 4.0)]).unwrap();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(2, 0), -1.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]).unwrap();
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn cancelling_duplicates_are_pruned() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, -1.0)]).unwrap();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(matches!(
            CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            CsrMatrix::from_triplets(2, 2, &[(0, 0, f64::NAN)]),
            Err(SparseError::NonFiniteValue)
        ));
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = CsrMatrix::from_triplets(4, 4, &[(3, 3, 1.0)]).unwrap();
        assert_eq!(m.row(0).count(), 0);
        assert_eq!(m.row(3).count(), 1);
        assert_eq!(m.get(3, 3), 1.0);
    }

    #[test]
    fn mul_vec_and_vec_mul() {
        // [1 2]   [1]   [5]
        // [3 4] · [2] = [11]
        let m =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)])
                .unwrap();
        assert_eq!(m.mul_vec(&[1.0, 2.0]), vec![5.0, 11.0]);
        // [1 2]ᵀ-product: xᵀA with x = [1, 2] → [1+6, 2+8] = [7, 10]
        assert_eq!(m.vec_mul(&[1.0, 2.0]), vec![7.0, 10.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 5.0), (1, 0, 1.0)]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 0), 5.0);
        assert_eq!(t.get(0, 1), 1.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn row_sum() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0)]).unwrap();
        assert_eq!(m.row_sum(0), 3.0);
        assert_eq!(m.row_sum(1), 0.0);
    }

    #[test]
    fn rows_build_the_triplet_matrix_bit_for_bit() {
        // Unsorted columns, duplicates that sum inexactly (0.1 + 0.2),
        // a cancelling pair and an empty row.
        let triplets = [
            (0, 2, 0.1),
            (0, 1, 5.0),
            (0, 2, 0.2),
            (2, 0, 1.0),
            (2, 0, -1.0),
            (2, 1, 3.0),
        ];
        let rows = CsrMatrix::from_rows(3, 3, triplets.len(), |r, out| {
            out.extend(
                triplets
                    .iter()
                    .filter(|t| t.0 == r)
                    .map(|&(_, c, v)| (c, v)),
            );
            Ok::<(), SparseError>(())
        })
        .unwrap();
        assert_eq!(rows, CsrMatrix::from_triplets(3, 3, &triplets).unwrap());
        assert_eq!(rows.get(0, 2).to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(rows.nnz(), 3);
        assert_eq!(
            CsrMatrix::from_rows(2, 2, 1, |_, out| {
                out.push((2, 1.0));
                Ok::<(), SparseError>(())
            }),
            Err(SparseError::IndexOutOfBounds { row: 0, col: 2 })
        );
    }

    #[test]
    fn clearing_rows_matches_building_without_them() {
        let triplets = [
            (0, 1, 1.5),
            (1, 0, 2.0),
            (1, 2, 0.5),
            (2, 1, 4.0),
            (2, 1, 0.25),
        ];
        let m = CsrMatrix::from_triplets(3, 3, &triplets).unwrap();
        let cleared = [false, true, false];
        let kept: Vec<_> = triplets.iter().copied().filter(|t| !cleared[t.0]).collect();
        assert_eq!(
            m.with_rows_cleared(&cleared),
            CsrMatrix::from_triplets(3, 3, &kept).unwrap()
        );
    }

    #[test]
    fn many_rows_interleaved_duplicates() {
        let mut triplets = vec![];
        for r in 0..10 {
            for c in 0..10 {
                triplets.push((r, c, 1.0));
                triplets.push((r, c, 1.0));
            }
        }
        let m = CsrMatrix::from_triplets(10, 10, &triplets).unwrap();
        assert_eq!(m.nnz(), 100);
        for r in 0..10 {
            assert_eq!(m.row_sum(r), 20.0);
        }
    }
}
