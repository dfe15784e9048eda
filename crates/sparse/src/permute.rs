//! Row/column permutations and fill-reducing orderings.
//!
//! GUST's load balancer is itself a row permutation (paper §3.5), and its
//! color count depends on how non-zeros cluster into windows and column
//! segments. This module provides a validated [`Permutation`] type, matrix
//! reordering, and two classic orderings to experiment with as alternative
//! preprocessing: degree sort (the paper's step 1) and reverse Cuthill–McKee
//! (bandwidth reduction, which concentrates column segments).

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// A permutation of `0..n`: `perm.apply(i)` is where element `i` moves.
///
/// # Example
///
/// ```
/// use gust_sparse::permute::Permutation;
///
/// let p = Permutation::from_vec(vec![2, 0, 1])?;
/// assert_eq!(p.apply(0), 2);
/// assert_eq!(p.inverse().apply(2), 0);
/// # Ok::<(), gust_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<u32>,
}

impl Permutation {
    /// The identity permutation on `n` elements.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self {
            forward: (0..n as u32).collect(),
        }
    }

    /// Builds from a mapping vector (`forward[i]` = destination of `i`),
    /// validating that it is a bijection.
    ///
    /// # Errors
    ///
    /// [`SparseError::InvalidStructure`] if any destination repeats or is
    /// out of range.
    pub fn from_vec(forward: Vec<u32>) -> Result<Self, SparseError> {
        let n = forward.len();
        let mut seen = vec![false; n];
        for &dest in &forward {
            let d = dest as usize;
            if d >= n {
                return Err(SparseError::InvalidStructure(format!(
                    "destination {d} out of range for permutation of {n}"
                )));
            }
            if seen[d] {
                return Err(SparseError::InvalidStructure(format!(
                    "destination {d} repeated"
                )));
            }
            seen[d] = true;
        }
        Ok(Self { forward })
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the permutation is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Where element `i` moves.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn apply(&self, i: usize) -> usize {
        self.forward[i] as usize
    }

    /// The inverse permutation.
    #[must_use]
    pub fn inverse(&self) -> Self {
        let mut inv = vec![0u32; self.forward.len()];
        for (i, &dest) in self.forward.iter().enumerate() {
            inv[dest as usize] = i as u32;
        }
        Self { forward: inv }
    }

    /// Composition: `(self.then(other)).apply(i) == other.apply(self.apply(i))`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[must_use]
    pub fn then(&self, other: &Self) -> Self {
        assert_eq!(self.len(), other.len(), "permutation sizes must match");
        Self {
            forward: self
                .forward
                .iter()
                .map(|&mid| other.forward[mid as usize])
                .collect(),
        }
    }

    /// Applies to a vector: `result[apply(i)] = v[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.len()`.
    #[must_use]
    pub fn permute_vector<T: Copy + Default>(&self, v: &[T]) -> Vec<T> {
        assert_eq!(v.len(), self.len(), "vector length must match");
        let mut out = vec![T::default(); v.len()];
        for (i, &val) in v.iter().enumerate() {
            out[self.apply(i)] = val;
        }
        out
    }

    /// The raw forward mapping.
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        &self.forward
    }
}

/// Reorders a matrix: entry `(r, c)` moves to
/// `(row_perm.apply(r), col_perm.apply(c))`.
///
/// # Panics
///
/// Panics if the permutation sizes do not match the matrix shape.
#[must_use]
pub fn permute_matrix(
    matrix: &CsrMatrix,
    row_perm: &Permutation,
    col_perm: &Permutation,
) -> CsrMatrix {
    assert_eq!(row_perm.len(), matrix.rows(), "row permutation size");
    assert_eq!(col_perm.len(), matrix.cols(), "column permutation size");
    let mut coo = CooMatrix::new(matrix.rows(), matrix.cols());
    for (r, c, v) in matrix.iter() {
        coo.push(row_perm.apply(r), col_perm.apply(c), v)
            .expect("permutation stays in bounds");
    }
    CsrMatrix::from(&coo)
}

/// Degree-sort ordering: rows sorted by non-zero count, descending —
/// exactly step 1 of the paper's §3.5 load balancer, exposed standalone.
#[must_use]
pub fn degree_sort(matrix: &CsrMatrix) -> Permutation {
    let mut order: Vec<u32> = (0..matrix.rows() as u32).collect();
    order.sort_by_key(|&r| std::cmp::Reverse(matrix.row_nnz(r as usize)));
    // order[pos] = original row at scheduled position pos; we need
    // forward[orig] = pos.
    let mut forward = vec![0u32; matrix.rows()];
    for (pos, &orig) in order.iter().enumerate() {
        forward[orig as usize] = pos as u32;
    }
    Permutation { forward }
}

/// Reverse Cuthill–McKee ordering of a square matrix's symmetrized
/// adjacency: BFS from a minimum-degree vertex, neighbours visited in
/// degree order, result reversed. Reduces bandwidth, which concentrates
/// GUST's column segments.
///
/// # Panics
///
/// Panics if the matrix is not square.
#[must_use]
pub fn reverse_cuthill_mckee(matrix: &CsrMatrix) -> Permutation {
    assert_eq!(matrix.rows(), matrix.cols(), "RCM needs a square matrix");
    let n = matrix.rows();
    // Symmetrized adjacency.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (r, c, _) in matrix.iter() {
        if r != c {
            adj[r].push(c as u32);
            adj[c].push(r as u32);
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    let degree = |v: usize| adj[v].len();

    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    // Process every connected component, starting from min-degree vertices.
    let mut by_degree: Vec<u32> = (0..n as u32).collect();
    by_degree.sort_by_key(|&v| degree(v as usize));
    for &start in &by_degree {
        if visited[start as usize] {
            continue;
        }
        visited[start as usize] = true;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut neighbours: Vec<u32> = adj[v as usize]
                .iter()
                .copied()
                .filter(|&u| !visited[u as usize])
                .collect();
            neighbours.sort_by_key(|&u| degree(u as usize));
            for u in neighbours {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    let mut forward = vec![0u32; n];
    for (pos, &orig) in order.iter().enumerate() {
        forward[orig as usize] = pos as u32;
    }
    Permutation { forward }
}

/// Half-bandwidth of a square matrix: `max |i − j|` over stored entries.
#[must_use]
pub fn bandwidth(matrix: &CsrMatrix) -> usize {
    matrix
        .iter()
        .map(|(r, c, _)| r.abs_diff(c))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::ops::{assert_vectors_close, reference_spmv};

    #[test]
    fn from_vec_validates_bijection() {
        assert!(Permutation::from_vec(vec![0, 1, 2]).is_ok());
        assert!(Permutation::from_vec(vec![0, 0, 2]).is_err());
        assert!(Permutation::from_vec(vec![0, 5, 1]).is_err());
    }

    #[test]
    fn inverse_round_trips() {
        let p = Permutation::from_vec(vec![3, 1, 0, 2]).unwrap();
        let id = p.then(&p.inverse());
        assert_eq!(id, Permutation::identity(4));
    }

    #[test]
    fn composition_order() {
        let p = Permutation::from_vec(vec![1, 2, 0]).unwrap();
        let q = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        let pq = p.then(&q);
        for i in 0..3 {
            assert_eq!(pq.apply(i), q.apply(p.apply(i)));
        }
    }

    #[test]
    fn permute_vector_moves_elements() {
        let p = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        assert_eq!(p.permute_vector(&[10, 20, 30]), vec![20, 30, 10]);
    }

    #[test]
    fn permuted_spmv_commutes() {
        // P_r A P_c^T · (P_c x) = P_r (A x).
        let m = CsrMatrix::from(&gen::uniform(30, 30, 200, 1));
        let x: Vec<f32> = (0..30).map(|i| i as f32 * 0.1).collect();
        let rp = degree_sort(&m);
        let cp = Permutation::identity(30).inverse(); // identity
        let pm = permute_matrix(&m, &rp, &cp);
        let y = reference_spmv(&m, &x);
        let py = pm.spmv(&x);
        assert_vectors_close(&py, &rp.permute_vector(&y), 1e-4);
    }

    #[test]
    fn degree_sort_orders_descending() {
        let m = CsrMatrix::from(&gen::power_law(50, 50, 400, 1.8, 2));
        let p = degree_sort(&m);
        let inv = p.inverse();
        let mut last = usize::MAX;
        for pos in 0..50 {
            let orig = inv.apply(pos);
            let deg = m.row_nnz(orig);
            assert!(deg <= last, "degrees must not increase");
            last = deg;
        }
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_banded_matrix() {
        // A banded matrix with shuffled labels has huge bandwidth; RCM
        // recovers a narrow band.
        let banded = CsrMatrix::from(&gen::banded(200, 200, 3, 1200, 3));
        let shuffle = Permutation::from_vec(gen_shuffle(200, 17)).expect("valid shuffle");
        let shuffled = permute_matrix(&banded, &shuffle, &shuffle);
        assert!(bandwidth(&shuffled) > 50, "shuffle should destroy the band");
        let rcm = reverse_cuthill_mckee(&shuffled);
        let restored = permute_matrix(&shuffled, &rcm, &rcm);
        assert!(
            bandwidth(&restored) < bandwidth(&shuffled) / 4,
            "RCM bandwidth {} vs shuffled {}",
            bandwidth(&restored),
            bandwidth(&shuffled)
        );
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        let m = CsrMatrix::from(&gen::block_diagonal(40, 40, 10, 120, 4));
        let p = reverse_cuthill_mckee(&m);
        assert_eq!(p.len(), 40);
        // Must still be a bijection (validated by inverse round trip).
        assert_eq!(p.then(&p.inverse()), Permutation::identity(40));
    }

    fn gen_shuffle(n: usize, seed: u64) -> Vec<u32> {
        // Simple LCG-based Fisher-Yates for the test.
        let mut v: Vec<u32> = (0..n as u32).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            v.swap(i, j);
        }
        v
    }

    #[test]
    fn bandwidth_of_diagonal_is_zero() {
        assert_eq!(bandwidth(&CsrMatrix::identity(10)), 0);
    }
}
