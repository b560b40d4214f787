#include "hicond/precond/multilevel.hpp"

#include <algorithm>

#include "hicond/la/vector_ops.hpp"
#include "hicond/obs/metrics.hpp"
#include "hicond/obs/trace.hpp"
#include "hicond/util/interleave.hpp"
#include "hicond/util/parallel.hpp"
#include "hicond/util/timer.hpp"

namespace hicond {
namespace {

constexpr double kJacobiWeight = 0.7;  ///< damped-Jacobi relaxation weight

}  // namespace

MultilevelSteinerSolver MultilevelSteinerSolver::build(
    LaminarHierarchy hierarchy, const MultilevelOptions& options) {
  return build_impl(std::move(hierarchy), options, nullptr);
}

MultilevelSteinerSolver MultilevelSteinerSolver::build(
    LaminarHierarchy hierarchy, const MultilevelOptions& options,
    const MultilevelSteinerSolver& reuse) {
  return build_impl(std::move(hierarchy), options, reuse.state_.get());
}

MultilevelSteinerSolver MultilevelSteinerSolver::build_impl(
    LaminarHierarchy hierarchy, const MultilevelOptions& options,
    const State* reuse) {
  HICOND_CHECK(!hierarchy.levels.empty() ||
                   hierarchy.coarsest.num_vertices() > 0,
               "empty hierarchy");
  HICOND_SPAN("multilevel.build");
  MultilevelSteinerSolver s;
  s.state_ = std::make_shared<State>();
  s.state_->hierarchy = std::move(hierarchy);
  for (const auto& level : s.state_->hierarchy.levels) {
    std::vector<double> inv(static_cast<std::size_t>(level.graph.num_vertices()));
    parallel_for(inv.size(), [&](std::size_t v) {
      const double vol = level.graph.vol(static_cast<vidx>(v));
      inv[v] = vol > 0.0 ? 1.0 / vol : 0.0;
    });
    s.state_->inv_diag.push_back(std::move(inv));
    s.state_->restriction.push_back(ClusterIndex::build(
        level.decomposition.assignment, level.decomposition.num_clusters));
    if (options.smoother == SmootherKind::chebyshev) {
      s.state_->chebyshev.push_back(std::make_unique<ChebyshevSmoother>(
          level.graph, options.chebyshev_degree));
    } else {
      s.state_->chebyshev.push_back(nullptr);
    }
  }
  if (s.state_->hierarchy.coarsest.num_vertices() > 1) {
    // The factorization is a pure function of the coarsest graph, so when an
    // earlier solver factored the identical graph, alias it: same bits, no
    // refactorization. This is what makes repaired-hierarchy rebuilds cheap
    // when the quotient chain survived an update.
    if (reuse != nullptr && reuse->coarsest_solver != nullptr &&
        s.state_->hierarchy.coarsest.identical_to(reuse->hierarchy.coarsest)) {
      s.state_->coarsest_solver = reuse->coarsest_solver;
      obs::MetricsRegistry::global().counter_add("multilevel.coarsest_reuses");
    } else {
      s.state_->coarsest_solver = std::make_shared<LaplacianDirectSolver>(
          s.state_->hierarchy.coarsest);
    }
  }
  s.state_->cycle_stats.assign(
      static_cast<std::size_t>(s.state_->hierarchy.num_levels()) + 1, {});
  obs::MetricsRegistry::global().counter_add("multilevel.builds");
  return s;
}

MultilevelSteinerSolver::Workspace::Workspace(
    const MultilevelSteinerSolver& solver, std::size_t width)
    : owner_(solver.state_.get()), width_(width) {
  HICOND_CHECK(width >= 1 && width <= kMaxLanes,
               "workspace width must be in [1, 8]");
  const State& st = *solver.state_;
  levels_.resize(st.hierarchy.levels.size());
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const HierarchyLevel& lv = st.hierarchy.levels[l];
    const auto n = static_cast<std::size_t>(lv.graph.num_vertices()) * width;
    const auto m =
        static_cast<std::size_t>(lv.decomposition.num_clusters) * width;
    Level& w = levels_[l];
    w.work.resize(n);
    w.coarse_r.resize(m);
    w.coarse_z.resize(m);
  }
}

template <std::size_t W>
void MultilevelSteinerSolver::coarsest_solve(std::span<const double> r,
                                             std::span<double> z) const {
  const State& st = *state_;
  if (st.coarsest_solver == nullptr) {
    la::fill(z, 0.0);
  } else {
    // The LDL' solve is per vector: gather each lane, solve, scatter back.
    const std::size_t nc = r.size() / W;
    std::vector<double> in(nc);
    std::vector<double> out(nc);
    for (std::size_t j = 0; j < W; ++j) {
      for (std::size_t v = 0; v < nc; ++v) in[v] = r[v * W + j];
      st.coarsest_solver->apply(in, out);
      for (std::size_t v = 0; v < nc; ++v) z[v * W + j] = out[v];
    }
  }
}

template <std::size_t W>
void MultilevelSteinerSolver::cycle(int level, std::span<const double> r,
                                    std::span<double> z,
                                    Workspace& ws) const {
  State& st = *state_;
  // Inclusive per-level attribution; apply() is single-caller, so plain
  // accumulation into the shared state is race-free.
  LevelCycleStats& attribution =
      st.cycle_stats[static_cast<std::size_t>(level)];
  const Timer level_timer;
  struct Accumulate {
    const Timer& timer;
    LevelCycleStats& stats;
    ~Accumulate() {
      ++stats.calls;
      stats.seconds += timer.seconds();
    }
  } accumulate{level_timer, attribution};

  if (level == st.hierarchy.num_levels()) {
    coarsest_solve<W>(r, z);
    return;
  }
  const auto l = static_cast<std::size_t>(level);
  const HierarchyLevel& lv = st.hierarchy.levels[l];
  const Graph& a = lv.graph;
  const auto n = static_cast<std::size_t>(a.num_vertices());
  const auto m = static_cast<std::size_t>(lv.decomposition.num_clusters);
  const double* inv_diag = st.inv_diag[l].data();
  const vidx* assignment = lv.decomposition.assignment.data();
  Workspace::Level& scratch = ws.levels_[l];
  const std::span<double> work(scratch.work.data(), n * W);
  const std::span<double> rc(scratch.coarse_r.data(), m * W);
  const std::span<double> zc(scratch.coarse_z.data(), m * W);
  // fn(i, i / W) for every slot i = v*W + j, as one flat loop (which the
  // compiler vectorises far better than a vertex-by-lane nest).
  auto each_slot = [n](auto&& fn) {
    parallel_for(n * W, [&](std::size_t i) { fn(i, i / W); });
  };

  const ChebyshevSmoother* cheb = st.chebyshev[l].get();

  // Pre-smoothing sweep from z = 0.
  if (cheb != nullptr) {
    la::fill(z, 0.0);
    cheb->smooth<W>(r, z);
  } else {
    // A*0 is +0.0 in every slot, so the Jacobi pre-sweep skips its SpMV:
    // this is the post-sweep update below, bit for bit, with z = 0.0 and
    // work = 0.0 written as literals.
    each_slot([&](std::size_t i, std::size_t v) {
      z[i] = 0.0 + kJacobiWeight * inv_diag[v] * (r[i] - 0.0);
    });
  }
  // Coarse correction on the residual r - A z. Each row of it is formed
  // inside the restriction, parallel over clusters (owner-computes; see
  // ClusterIndex) -- the same values, summed in the same order, as storing
  // the residual first.
  st.restriction[l].restrict_rows<W>(
      [&](std::size_t v, double* acc) {
        double az[W];
        a.laplacian_row<W>(v, z.data(), az);
        for (std::size_t j = 0; j < W; ++j) acc[j] += r[v * W + j] - az[j];
      },
      rc);
  cycle<W>(level + 1, rc, zc, ws);
  each_slot([&](std::size_t i, std::size_t v) {
    z[i] += zc[static_cast<std::size_t>(assignment[v]) * W + i % W];
  });
  // Post-smoothing sweep (symmetric to the pre-smoothing).
  if (cheb != nullptr) {
    cheb->smooth<W>(r, z);
  } else {
    a.laplacian_apply<W>(z, work);
    each_slot([&](std::size_t i, std::size_t v) {
      z[i] += kJacobiWeight * inv_diag[v] * (r[i] - work[i]);
    });
  }
}

template <std::size_t W>
void MultilevelSteinerSolver::apply(std::span<const double> r,
                                    std::span<double> z,
                                    Workspace& ws) const {
  HICOND_SPAN("multilevel.apply");
  const State& st = *state_;
  HICOND_CHECK(ws.owner_ == &st, "workspace built for another solver");
  HICOND_CHECK(W <= ws.width_, "workspace narrower than the block");
  const Graph& finest = st.hierarchy.num_levels() == 0
                            ? st.hierarchy.coarsest
                            : st.hierarchy.levels.front().graph;
  const auto slots = static_cast<std::size_t>(finest.num_vertices()) * W;
  HICOND_CHECK(r.size() == slots, "residual size mismatch");
  HICOND_CHECK(z.size() == slots, "correction size mismatch");
  if (st.hierarchy.num_levels() == 0) {
    coarsest_solve<W>(r, z);
    return;
  }
  cycle<W>(0, r, z, ws);
  la::remove_mean<W>(z);
}

#define HICOND_INSTANTIATE(W)                                    \
  template void MultilevelSteinerSolver::apply<W>(                \
      std::span<const double>, std::span<double>, Workspace&) const;
HICOND_FOR_EACH_LANE_WIDTH(HICOND_INSTANTIATE)
#undef HICOND_INSTANTIATE

void MultilevelSteinerSolver::apply(std::span<const double> r,
                                    std::span<double> z) const {
  Workspace ws(*this, 1);
  apply<1>(r, z, ws);
}

void MultilevelSteinerSolver::apply_block(std::span<const double> r,
                                          std::span<double> z, int k) const {
  HICOND_CHECK(k >= 1, "block width must be positive");
  HICOND_CHECK(r.size() % static_cast<std::size_t>(k) == 0,
               "block size not a multiple of k");
  Workspace ws(*this, std::min(kMaxLanes, static_cast<std::size_t>(k)));
  apply_column_major(r, z, r.size() / static_cast<std::size_t>(k), k,
                     [&](auto width, std::span<const double> in,
                         std::span<double> out) {
                       apply<decltype(width)::value>(in, out, ws);
                     });
}

LinearOperator MultilevelSteinerSolver::as_operator() const {
  auto self = *this;  // shares state_
  return [self](std::span<const double> r, std::span<double> z) {
    self.apply(r, z);
  };
}

double MultilevelSteinerSolver::operator_complexity() const {
  const State& st = *state_;
  if (st.hierarchy.levels.empty()) return 1.0;
  double total = 0.0;
  for (const auto& lv : st.hierarchy.levels) {
    total += static_cast<double>(lv.graph.num_vertices());
  }
  total += static_cast<double>(st.hierarchy.coarsest.num_vertices());
  return total /
         static_cast<double>(st.hierarchy.levels.front().graph.num_vertices());
}

}  // namespace hicond
