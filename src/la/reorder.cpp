#include "la/reorder.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/error.h"

namespace vstack::la {

std::vector<std::size_t> reverse_cuthill_mckee(const CsrMatrix& a) {
  const std::size_t n = a.size();
  std::vector<std::size_t> degree(n);
  for (std::size_t i = 0; i < n; ++i) {
    degree[i] = a.row_ptr()[i + 1] - a.row_ptr()[i];
  }

  std::vector<bool> visited(n, false);
  std::vector<std::size_t> order;
  order.reserve(n);

  for (;;) {
    // Lowest-degree unvisited node seeds the next component.
    std::size_t seed = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!visited[i] && (seed == n || degree[i] < degree[seed])) seed = i;
    }
    if (seed == n) break;

    std::queue<std::size_t> frontier;
    frontier.push(seed);
    visited[seed] = true;
    std::vector<std::size_t> neighbours;
    while (!frontier.empty()) {
      const std::size_t u = frontier.front();
      frontier.pop();
      order.push_back(u);
      neighbours.clear();
      for (std::size_t k = a.row_ptr()[u]; k < a.row_ptr()[u + 1]; ++k) {
        const std::size_t v = a.col_idx()[k];
        if (v != u && !visited[v]) {
          visited[v] = true;
          neighbours.push_back(v);
        }
      }
      std::sort(neighbours.begin(), neighbours.end(),
                [&](std::size_t x, std::size_t y) {
                  return degree[x] < degree[y];
                });
      for (const std::size_t v : neighbours) frontier.push(v);
    }
  }

  std::reverse(order.begin(), order.end());
  return order;
}

CsrMatrix permute_symmetric(const CsrMatrix& a,
                            const std::vector<std::size_t>& perm) {
  const std::size_t n = a.size();
  VS_REQUIRE(perm.size() == n, "permutation size mismatch");
  std::vector<std::size_t> inverse(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    VS_REQUIRE(perm[i] < n && inverse[perm[i]] == n,
               "perm must be a permutation");
    inverse[perm[i]] = i;
  }

  // Row gather: new row i is old row perm[i] with its columns renumbered
  // and re-sorted.  The input has one entry per (row, col), so nothing is
  // summed and the result is exact.
  std::vector<std::size_t> row_ptr(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    row_ptr[i + 1] =
        row_ptr[i] + (a.row_ptr()[perm[i] + 1] - a.row_ptr()[perm[i]]);
  }
  std::vector<std::size_t> col_idx(a.nnz());
  std::vector<double> values(a.nnz());
  std::vector<std::pair<std::size_t, double>> row;
  for (std::size_t i = 0; i < n; ++i) {
    row.clear();
    for (std::size_t k = a.row_ptr()[perm[i]]; k < a.row_ptr()[perm[i] + 1];
         ++k) {
      row.emplace_back(inverse[a.col_idx()[k]], a.values()[k]);
    }
    std::sort(row.begin(), row.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (std::size_t k = 0; k < row.size(); ++k) {
      col_idx[row_ptr[i] + k] = row[k].first;
      values[row_ptr[i] + k] = row[k].second;
    }
  }
  return CsrMatrix(n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

std::size_t half_bandwidth(const CsrMatrix& a) {
  std::size_t bw = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      const std::size_t j = a.col_idx()[k];
      bw = std::max(bw, i > j ? i - j : j - i);
    }
  }
  return bw;
}

}  // namespace vstack::la
