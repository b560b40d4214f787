#include "hicond/la/sparse_cholesky.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <queue>

#include "hicond/obs/trace.hpp"

namespace hicond {

namespace {

/// Reverse Cuthill-McKee: BFS from a pseudo-peripheral vertex, neighbours
/// visited in increasing-degree order, final order reversed.
std::vector<vidx> rcm(const CsrMatrix& a) {
  const vidx n = a.rows;
  auto degree = [&a](vidx v) {
    return static_cast<vidx>(a.offsets[static_cast<std::size_t>(v) + 1] -
                             a.offsets[static_cast<std::size_t>(v)]);
  };
  std::vector<vidx> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<vidx> nbrs;
  for (vidx seed = 0; seed < n; ++seed) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    // Pseudo-peripheral start: two BFS hops from the component's first
    // vertex, keeping the farthest minimum-degree vertex.
    vidx start = seed;
    for (int hop = 0; hop < 2; ++hop) {
      std::vector<vidx> dist(static_cast<std::size_t>(n), -1);
      std::deque<vidx> q{start};
      dist[static_cast<std::size_t>(start)] = 0;
      vidx far = start;
      while (!q.empty()) {
        const vidx v = q.front();
        q.pop_front();
        if (dist[static_cast<std::size_t>(v)] >
                dist[static_cast<std::size_t>(far)] ||
            (dist[static_cast<std::size_t>(v)] ==
                 dist[static_cast<std::size_t>(far)] &&
             degree(v) < degree(far))) {
          far = v;
        }
        for (eidx k = a.offsets[static_cast<std::size_t>(v)];
             k < a.offsets[static_cast<std::size_t>(v) + 1]; ++k) {
          const vidx u = a.col_idx[static_cast<std::size_t>(k)];
          if (u != v && dist[static_cast<std::size_t>(u)] == -1 &&
              !visited[static_cast<std::size_t>(u)]) {
            dist[static_cast<std::size_t>(u)] =
                dist[static_cast<std::size_t>(v)] + 1;
            q.push_back(u);
          }
        }
      }
      start = far;
    }
    std::deque<vidx> q{start};
    visited[static_cast<std::size_t>(start)] = 1;
    while (!q.empty()) {
      const vidx v = q.front();
      q.pop_front();
      order.push_back(v);
      nbrs.clear();
      for (eidx k = a.offsets[static_cast<std::size_t>(v)];
           k < a.offsets[static_cast<std::size_t>(v) + 1]; ++k) {
        const vidx u = a.col_idx[static_cast<std::size_t>(k)];
        if (u != v && !visited[static_cast<std::size_t>(u)]) {
          visited[static_cast<std::size_t>(u)] = 1;
          nbrs.push_back(u);
        }
      }
      std::sort(nbrs.begin(), nbrs.end(),
                [&](vidx x, vidx y) { return degree(x) < degree(y); });
      for (vidx u : nbrs) q.push_back(u);
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

/// Greedy minimum degree on an explicit elimination graph, with a lazy
/// min-heap for vertex selection (stale entries are skipped on pop). The
/// clique insertions still dominate asymptotically on fill-heavy inputs,
/// but selection is O(log n) per step instead of O(n).
std::vector<vidx> min_degree(const CsrMatrix& a) {
  const vidx n = a.rows;
  std::vector<std::vector<vidx>> adj(static_cast<std::size_t>(n));
  std::vector<vidx> degree(static_cast<std::size_t>(n), 0);
  for (vidx v = 0; v < n; ++v) {
    for (eidx k = a.offsets[static_cast<std::size_t>(v)];
         k < a.offsets[static_cast<std::size_t>(v) + 1]; ++k) {
      const vidx u = a.col_idx[static_cast<std::size_t>(k)];
      if (u != v) adj[static_cast<std::size_t>(v)].push_back(u);
    }
    auto& row = adj[static_cast<std::size_t>(v)];
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    degree[static_cast<std::size_t>(v)] = static_cast<vidx>(row.size());
  }
  // Lazy heap of (degree, vertex); entries go stale when degrees change.
  using Entry = std::pair<vidx, vidx>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (vidx v = 0; v < n; ++v) {
    heap.emplace(degree[static_cast<std::size_t>(v)], v);
  }
  std::vector<char> eliminated(static_cast<std::size_t>(n), 0);
  std::vector<vidx> order;
  order.reserve(static_cast<std::size_t>(n));
  auto compact = [&](vidx u) {
    auto& row = adj[static_cast<std::size_t>(u)];
    row.erase(std::remove_if(row.begin(), row.end(),
                             [&](vidx w) {
                               return eliminated[static_cast<std::size_t>(w)];
                             }),
              row.end());
  };
  while (order.size() < static_cast<std::size_t>(n)) {
    const auto [d, best] = heap.top();
    heap.pop();
    if (eliminated[static_cast<std::size_t>(best)] ||
        d != degree[static_cast<std::size_t>(best)]) {
      continue;  // stale entry
    }
    eliminated[static_cast<std::size_t>(best)] = 1;
    order.push_back(best);
    // Clique the live neighbours.
    compact(best);
    const std::vector<vidx>& live = adj[static_cast<std::size_t>(best)];
    for (vidx u : live) {
      compact(u);  // rows stay sorted: remove_if preserves relative order
      auto& row = adj[static_cast<std::size_t>(u)];
      for (vidx w : live) {
        if (w == u) continue;
        if (!std::binary_search(row.begin(), row.end(), w)) {
          row.insert(std::upper_bound(row.begin(), row.end(), w), w);
        }
      }
      degree[static_cast<std::size_t>(u)] = static_cast<vidx>(row.size());
      heap.emplace(degree[static_cast<std::size_t>(u)], u);
    }
  }
  return order;
}

/// Approximate minimum degree on the quotient (element) graph, in the style
/// of Amestoy-Davis-Duff but without supervariable detection: eliminated
/// pivots become *elements* whose member lists represent their cliques
/// implicitly, so no clique edges are ever materialized. The degree of a
/// variable is approximated by |A_i| + sum over adjacent elements of
/// |L_e \ {i}| (an upper bound on the true external degree).
std::vector<vidx> amd_order(const CsrMatrix& a) {
  const vidx n = a.rows;
  std::vector<std::vector<vidx>> vars(static_cast<std::size_t>(n));  // A_i
  std::vector<std::vector<vidx>> elems(static_cast<std::size_t>(n));  // E_i
  std::vector<std::vector<vidx>> members(static_cast<std::size_t>(n));  // L_e
  std::vector<vidx> degree(static_cast<std::size_t>(n), 0);
  std::vector<char> eliminated(static_cast<std::size_t>(n), 0);
  for (vidx v = 0; v < n; ++v) {
    for (eidx k = a.offsets[static_cast<std::size_t>(v)];
         k < a.offsets[static_cast<std::size_t>(v) + 1]; ++k) {
      const vidx u = a.col_idx[static_cast<std::size_t>(k)];
      if (u != v) vars[static_cast<std::size_t>(v)].push_back(u);
    }
    auto& row = vars[static_cast<std::size_t>(v)];
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    degree[static_cast<std::size_t>(v)] = static_cast<vidx>(row.size());
  }
  using Entry = std::pair<vidx, vidx>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (vidx v = 0; v < n; ++v) {
    heap.emplace(degree[static_cast<std::size_t>(v)], v);
  }
  auto compact_element = [&](vidx e) {
    auto& l = members[static_cast<std::size_t>(e)];
    l.erase(std::remove_if(l.begin(), l.end(),
                           [&](vidx w) {
                             return eliminated[static_cast<std::size_t>(w)];
                           }),
            l.end());
  };
  std::vector<char> mark(static_cast<std::size_t>(n), 0);
  std::vector<vidx> order;
  order.reserve(static_cast<std::size_t>(n));
  while (order.size() < static_cast<std::size_t>(n)) {
    const auto [d, p] = heap.top();
    heap.pop();
    if (eliminated[static_cast<std::size_t>(p)] ||
        d != degree[static_cast<std::size_t>(p)]) {
      continue;  // stale
    }
    eliminated[static_cast<std::size_t>(p)] = 1;
    order.push_back(p);
    // L_p = A_p union of member lists of adjacent elements, minus dead.
    std::vector<vidx>& lp = members[static_cast<std::size_t>(p)];
    lp.clear();
    for (vidx u : vars[static_cast<std::size_t>(p)]) {
      if (!eliminated[static_cast<std::size_t>(u)] &&
          !mark[static_cast<std::size_t>(u)]) {
        mark[static_cast<std::size_t>(u)] = 1;
        lp.push_back(u);
      }
    }
    for (vidx e : elems[static_cast<std::size_t>(p)]) {
      for (vidx u : members[static_cast<std::size_t>(e)]) {
        if (!eliminated[static_cast<std::size_t>(u)] &&
            !mark[static_cast<std::size_t>(u)]) {
          mark[static_cast<std::size_t>(u)] = 1;
          lp.push_back(u);
        }
      }
      members[static_cast<std::size_t>(e)].clear();  // absorbed by p
      members[static_cast<std::size_t>(e)].shrink_to_fit();
    }
    std::sort(lp.begin(), lp.end());
    elems[static_cast<std::size_t>(p)].clear();
    // Update every variable in L_p.
    for (vidx i : lp) {
      // A_i loses the members now represented through element p (and p).
      auto& ai = vars[static_cast<std::size_t>(i)];
      ai.erase(std::remove_if(ai.begin(), ai.end(),
                              [&](vidx w) {
                                return w == p ||
                                       eliminated[static_cast<std::size_t>(w)] ||
                                       std::binary_search(lp.begin(), lp.end(),
                                                          w);
                              }),
               ai.end());
      // E_i drops absorbed elements, gains p.
      auto& ei = elems[static_cast<std::size_t>(i)];
      ei.erase(std::remove_if(ei.begin(), ei.end(),
                              [&](vidx e) {
                                return members[static_cast<std::size_t>(e)]
                                    .empty();
                              }),
               ei.end());
      ei.push_back(p);
      // Approximate degree.
      vidx deg = static_cast<vidx>(ai.size());
      for (vidx e : ei) {
        compact_element(e);
        const auto& l = members[static_cast<std::size_t>(e)];
        deg += static_cast<vidx>(l.size());
        if (std::binary_search(l.begin(), l.end(), i)) --deg;
      }
      degree[static_cast<std::size_t>(i)] = deg;
      heap.emplace(deg, i);
    }
    for (vidx i : lp) mark[static_cast<std::size_t>(i)] = 0;
  }
  return order;
}

}  // namespace

std::vector<vidx> compute_ordering(const CsrMatrix& a, Ordering kind) {
  HICOND_CHECK(a.rows == a.cols, "ordering of non-square matrix");
  switch (kind) {
    case Ordering::natural: {
      std::vector<vidx> id(static_cast<std::size_t>(a.rows));
      std::iota(id.begin(), id.end(), 0);
      return id;
    }
    case Ordering::rcm:
      return rcm(a);
    case Ordering::min_degree:
      return min_degree(a);
    case Ordering::amd:
      return amd_order(a);
  }
  return {};
}

SparseLDL SparseLDL::factor(const CsrMatrix& a, Ordering ordering) {
  HICOND_CHECK(a.rows == a.cols, "factorization of non-square matrix");
  const vidx n = a.rows;
  SparseLDL f;
  f.n_ = n;
  f.perm_ = compute_ordering(a, ordering);
  f.perm_inv_.assign(static_cast<std::size_t>(n), 0);
  for (vidx i = 0; i < n; ++i) {
    f.perm_inv_[static_cast<std::size_t>(f.perm_[static_cast<std::size_t>(i)])] =
        i;
  }
  // Permuted access: row k of PAP' is row perm_[k] of A with columns mapped
  // through perm_inv_. We gather each permuted row's lower part on the fly.
  std::vector<vidx> parent(static_cast<std::size_t>(n), -1);
  std::vector<vidx> flag(static_cast<std::size_t>(n), -1);
  std::vector<eidx> l_nnz(static_cast<std::size_t>(n), 0);

  auto for_each_lower = [&](vidx k, auto&& body) {
    const vidx orig = f.perm_[static_cast<std::size_t>(k)];
    for (eidx p = a.offsets[static_cast<std::size_t>(orig)];
         p < a.offsets[static_cast<std::size_t>(orig) + 1]; ++p) {
      const vidx j =
          f.perm_inv_[static_cast<std::size_t>(
              a.col_idx[static_cast<std::size_t>(p)])];
      if (j <= k) body(j, a.values[static_cast<std::size_t>(p)]);
    }
  };

  // Symbolic pass: elimination tree and column counts.
  for (vidx k = 0; k < n; ++k) {
    parent[static_cast<std::size_t>(k)] = -1;
    flag[static_cast<std::size_t>(k)] = k;
    for_each_lower(k, [&](vidx j, double) {
      while (j != k && flag[static_cast<std::size_t>(j)] != k) {
        if (parent[static_cast<std::size_t>(j)] == -1) {
          parent[static_cast<std::size_t>(j)] = k;
        }
        ++l_nnz[static_cast<std::size_t>(j)];
        flag[static_cast<std::size_t>(j)] = k;
        j = parent[static_cast<std::size_t>(j)];
      }
    });
  }
  f.l_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (vidx j = 0; j < n; ++j) {
    f.l_offsets_[static_cast<std::size_t>(j) + 1] =
        f.l_offsets_[static_cast<std::size_t>(j)] +
        l_nnz[static_cast<std::size_t>(j)];
  }
  f.l_idx_.resize(static_cast<std::size_t>(f.l_offsets_.back()));
  f.l_val_.resize(static_cast<std::size_t>(f.l_offsets_.back()));
  f.d_.assign(static_cast<std::size_t>(n), 0.0);

  // Numeric pass (up-looking).
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  std::vector<vidx> pattern(static_cast<std::size_t>(n));
  std::vector<eidx> l_next(f.l_offsets_.begin(), f.l_offsets_.end() - 1);
  std::fill(flag.begin(), flag.end(), -1);
  for (vidx k = 0; k < n; ++k) {
    vidx top = n;
    flag[static_cast<std::size_t>(k)] = k;
    double dk = 0.0;
    for_each_lower(k, [&](vidx j, double v) {
      if (j == k) {
        dk += v;
        return;
      }
      y[static_cast<std::size_t>(j)] += v;
      vidx len = 0;
      while (flag[static_cast<std::size_t>(j)] != k) {
        pattern[static_cast<std::size_t>(len++)] = j;
        flag[static_cast<std::size_t>(j)] = k;
        j = parent[static_cast<std::size_t>(j)];
      }
      while (len > 0) pattern[static_cast<std::size_t>(--top)] =
          pattern[static_cast<std::size_t>(--len)];
    });
    f.d_[static_cast<std::size_t>(k)] = dk;
    for (vidx s = top; s < n; ++s) {
      const vidx j = pattern[static_cast<std::size_t>(s)];
      const double yj = y[static_cast<std::size_t>(j)];
      y[static_cast<std::size_t>(j)] = 0.0;
      for (eidx p = f.l_offsets_[static_cast<std::size_t>(j)];
           p < l_next[static_cast<std::size_t>(j)]; ++p) {
        y[static_cast<std::size_t>(f.l_idx_[static_cast<std::size_t>(p)])] -=
            f.l_val_[static_cast<std::size_t>(p)] * yj;
      }
      const double l_kj = yj / f.d_[static_cast<std::size_t>(j)];
      f.d_[static_cast<std::size_t>(k)] -= l_kj * yj;
      f.l_idx_[static_cast<std::size_t>(l_next[static_cast<std::size_t>(j)])] =
          k;
      f.l_val_[static_cast<std::size_t>(l_next[static_cast<std::size_t>(j)])] =
          l_kj;
      ++l_next[static_cast<std::size_t>(j)];
    }
    if (!(f.d_[static_cast<std::size_t>(k)] > 0.0)) {
      throw numeric_error("SparseLDL: non-positive pivot at step " +
                          std::to_string(k));
    }
  }
  return f;
}

std::vector<double> SparseLDL::solve(std::span<const double> b) const {
  std::vector<double> x(static_cast<std::size_t>(n_));
  std::vector<double> work(static_cast<std::size_t>(n_));
  solve(b, x, work);
  return x;
}

void SparseLDL::solve(std::span<const double> b, std::span<double> x,
                      std::span<double> work) const {
  const auto n = static_cast<std::size_t>(n_);
  HICOND_CHECK(b.size() == n, "rhs size mismatch");
  HICOND_CHECK(x.size() == n && work.size() == n,
               "solution or work size mismatch");
  for (std::size_t k = 0; k < n; ++k) {
    work[k] = b[static_cast<std::size_t>(perm_[k])];
  }
  // L z = b (unit lower triangular, CSC columns).
  for (std::size_t j = 0; j < n; ++j) {
    const double wj = work[j];
    for (eidx p = l_offsets_[j]; p < l_offsets_[j + 1]; ++p) {
      work[static_cast<std::size_t>(l_idx_[static_cast<std::size_t>(p)])] -=
          l_val_[static_cast<std::size_t>(p)] * wj;
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    work[j] /= d_[j];
  }
  // L' x = z.
  for (std::size_t j = n; j-- > 0;) {
    double acc = work[j];
    for (eidx p = l_offsets_[j]; p < l_offsets_[j + 1]; ++p) {
      acc -= l_val_[static_cast<std::size_t>(p)] *
             work[static_cast<std::size_t>(l_idx_[static_cast<std::size_t>(p)])];
    }
    work[j] = acc;
  }
  for (std::size_t k = 0; k < n; ++k) {
    x[static_cast<std::size_t>(perm_[k])] = work[k];
  }
}

namespace {

/// Laplacian of g restricted to all vertices except `ground`.
CsrMatrix grounded_laplacian(const Graph& g, vidx ground) {
  const vidx n = g.num_vertices();
  std::vector<std::tuple<vidx, vidx, double>> triplets;
  triplets.reserve(static_cast<std::size_t>(g.num_arcs() + n));
  auto reduced = [ground](vidx v) { return v < ground ? v : v - 1; };
  for (vidx v = 0; v < n; ++v) {
    if (v == ground) continue;
    triplets.emplace_back(reduced(v), reduced(v), g.vol(v));
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == ground) continue;
      triplets.emplace_back(reduced(v), reduced(nbrs[i]), -ws[i]);
    }
  }
  return csr_from_triplets(n - 1, n - 1, triplets);
}

}  // namespace

LaplacianDirectSolver::LaplacianDirectSolver(const Graph& g, Ordering ordering)
    : n_(g.num_vertices()) {
  HICOND_CHECK(n_ >= 1, "empty graph");
  HICOND_SPAN("cholesky.factor");
  if (n_ == 1) return;
  // Ground the maximum-volume vertex (a numerically safe choice).
  grounded_ = 0;
  for (vidx v = 1; v < n_; ++v) {
    if (g.vol(v) > g.vol(grounded_)) grounded_ = v;
  }
  // The greedy min-degree implementation has a quadratic vertex-selection
  // loop; beyond a few thousand vertices RCM is the better trade.
  if (ordering == Ordering::min_degree && n_ > 4000) ordering = Ordering::rcm;
  ldl_ = SparseLDL::factor(grounded_laplacian(g, grounded_), ordering);
}

std::vector<double> LaplacianDirectSolver::solve(
    std::span<const double> b) const {
  std::vector<double> x(static_cast<std::size_t>(n_), 0.0);
  apply(b, x);
  return x;
}

void LaplacianDirectSolver::apply(std::span<const double> b,
                                  std::span<double> x) const {
  std::vector<double> scratch(scratch_size());
  apply(b, x, scratch);
}

void LaplacianDirectSolver::apply(std::span<const double> b,
                                  std::span<double> x,
                                  std::span<double> scratch) const {
  HICOND_CHECK(b.size() == static_cast<std::size_t>(n_), "rhs size mismatch");
  HICOND_CHECK(x.size() == static_cast<std::size_t>(n_), "x size mismatch");
  if (n_ == 1) {
    x[0] = 0.0;
    return;
  }
  const auto m = static_cast<std::size_t>(n_) - 1;
  HICOND_CHECK(scratch.size() >= scratch_size(), "scratch too small");
  const std::span<double> rb = scratch.first(m);
  const std::span<double> rx = scratch.subspan(m, m);
  const std::span<double> work = scratch.subspan(2 * m, m);
  // Project the rhs onto range(L) = {mean-free vectors} first: this makes
  // the grounded solve a true symmetric pseudo-inverse even for
  // inconsistent right-hand sides.
  double b_mean = 0.0;
  for (vidx v = 0; v < n_; ++v) b_mean += b[static_cast<std::size_t>(v)];
  b_mean /= static_cast<double>(n_);
  std::size_t k = 0;
  for (vidx v = 0; v < n_; ++v) {
    if (v != grounded_) rb[k++] = b[static_cast<std::size_t>(v)] - b_mean;
  }
  ldl_.solve(rb, rx, work);
  double mean = 0.0;
  k = 0;
  for (vidx v = 0; v < n_; ++v) {
    if (v == grounded_) {
      x[static_cast<std::size_t>(v)] = 0.0;
    } else {
      x[static_cast<std::size_t>(v)] = rx[k++];
    }
    mean += x[static_cast<std::size_t>(v)];
  }
  mean /= static_cast<double>(n_);
  for (vidx v = 0; v < n_; ++v) x[static_cast<std::size_t>(v)] -= mean;
}

}  // namespace hicond
