// Bandwidth-reducing node ordering.
//
// Reverse Cuthill-McKee on the matrix's adjacency pattern: BFS from a
// low-degree peripheral node, visiting neighbours in increasing-degree
// order, then reverse.  Shrinks the envelope the skyline Cholesky stores.
#pragma once

#include <vector>

#include "la/sparse.h"

namespace vstack::la {

/// perm[new_index] = old_index.  Works per connected component.
std::vector<std::size_t> reverse_cuthill_mckee(const CsrMatrix& a);

/// Apply a symmetric permutation: B = P A P^T with
/// B(i, j) = A(perm[i], perm[j]).  O(nnz) row gather; every entry is
/// copied, none summed, so B holds exactly A's values.
CsrMatrix permute_symmetric(const CsrMatrix& a,
                            const std::vector<std::size_t>& perm);

/// Half-bandwidth of a matrix: max |i - j| over stored entries.
std::size_t half_bandwidth(const CsrMatrix& a);

}  // namespace vstack::la
