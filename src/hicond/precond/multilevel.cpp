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
    LaminarHierarchy hierarchy, const MultilevelOptions& options,
    const MultilevelSteinerSolver* reuse) {
  HICOND_CHECK(!hierarchy.levels.empty() ||
                   hierarchy.coarsest.num_vertices() > 0,
               "empty hierarchy");
  HICOND_SPAN("multilevel.build");
  auto st = std::make_shared<State>(std::move(hierarchy));
  for (const auto& level : st->hierarchy.levels) {
    st->inv_diag.push_back(inverse_volumes(level.graph));
    st->restriction.push_back(ClusterIndex::build(
        level.decomposition.assignment, level.decomposition.num_clusters));
    if (options.smoother == SmootherKind::chebyshev) {
      st->chebyshev.push_back(std::make_unique<ChebyshevSmoother>(
          level.graph, options.chebyshev_degree));
    } else {
      st->chebyshev.push_back(nullptr);
    }
  }
  if (st->hierarchy.coarsest.num_vertices() > 1) {
    // The factorization is a pure function of the coarsest graph, so when an
    // earlier solver factored the identical graph, alias it: same bits, no
    // refactorization. This is what makes repaired-hierarchy rebuilds cheap
    // when the quotient chain survived an update.
    const State* old = reuse != nullptr ? reuse->state_.get() : nullptr;
    if (old != nullptr && old->coarsest_solver != nullptr &&
        st->hierarchy.coarsest.identical_to(old->hierarchy.coarsest)) {
      st->coarsest_solver = old->coarsest_solver;
      obs::MetricsRegistry::global().counter_add("multilevel.coarsest_reuses");
    } else {
      st->coarsest_solver =
          std::make_shared<LaplacianDirectSolver>(st->hierarchy.coarsest);
    }
  }
  obs::MetricsRegistry::global().counter_add("multilevel.builds");
  MultilevelSteinerSolver s;
  s.state_ = std::move(st);
  return s;
}

MultilevelSteinerSolver::Workspace::Workspace(
    const MultilevelSteinerSolver& solver, std::size_t width)
    : state_(solver.state_), width_(width) {
  HICOND_CHECK(width >= 1 && width <= kMaxLanes,
               "workspace width must be in [1, 8]");
  const State& st = *state_;
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
    if (st.chebyshev[l] != nullptr) {
      w.residual.resize(n);
      w.d.resize(n);
    }
  }
  const auto nc = static_cast<std::size_t>(st.hierarchy.coarsest.num_vertices());
  coarsest_in_.resize(nc);
  coarsest_out_.resize(nc);
  if (st.coarsest_solver != nullptr) {
    coarsest_scratch_.resize(st.coarsest_solver->scratch_size());
  }
  stats_.assign(levels_.size() + 1, {});
}

MultilevelSteinerSolver::Workspace::~Workspace() {
  const State& st = *state_;
  const MutexLock lock(st.stats_mu);
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    st.cycle_totals[i].calls += stats_[i].calls;
    st.cycle_totals[i].seconds += stats_[i].seconds;
  }
}

std::vector<LevelCycleStats> MultilevelSteinerSolver::cycle_stats() const {
  const State& st = *state_;
  const MutexLock lock(st.stats_mu);
  return st.cycle_totals;
}

template <std::size_t W>
void MultilevelSteinerSolver::coarsest_solve(std::span<const double> r,
                                             std::span<double> z,
                                             Workspace& ws) const {
  const State& st = *state_;
  if (st.coarsest_solver == nullptr) {
    la::fill(z, 0.0);
  } else {
    // The LDL' solve is per vector: gather each lane, solve, scatter back.
    std::vector<double>& in = ws.coarsest_in_;
    std::vector<double>& out = ws.coarsest_out_;
    const std::size_t nc = in.size();
    for (std::size_t j = 0; j < W; ++j) {
      for (std::size_t v = 0; v < nc; ++v) in[v] = r[v * W + j];
      st.coarsest_solver->apply(in, out, ws.coarsest_scratch_);
      for (std::size_t v = 0; v < nc; ++v) z[v * W + j] = out[v];
    }
  }
}

template <std::size_t W>
void MultilevelSteinerSolver::cycle(int level, std::span<const double> r,
                                    std::span<double> z,
                                    Workspace& ws) const {
  const State& st = *state_;
  // Inclusive per-level attribution, into the caller's workspace.
  struct Accumulate {
    LevelCycleStats& stats;
    const Timer timer;
    ~Accumulate() {
      ++stats.calls;
      stats.seconds += timer.seconds();
    }
  } accumulate{ws.stats_[static_cast<std::size_t>(level)], Timer()};

  if (level == st.hierarchy.num_levels()) {
    coarsest_solve<W>(r, z, ws);
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

  // One Chebyshev sweep (cheb != nullptr only); its recurrence runs in this
  // level's workspace vectors, A d in `work`.
  const auto chebyshev_sweep = [&] {
    cheb->smooth<W>(r, z, {scratch.residual.data(), n * W},
                    {scratch.d.data(), n * W}, work);
  };

  // Pre-smoothing sweep from z = 0.
  if (cheb != nullptr) {
    la::fill(z, 0.0);
    chebyshev_sweep();
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
    chebyshev_sweep();
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
  HICOND_CHECK(ws.state_ == state_, "workspace built for another solver");
  HICOND_CHECK(W <= ws.width_, "workspace narrower than the block");
  const Graph& finest = st.hierarchy.num_levels() == 0
                            ? st.hierarchy.coarsest
                            : st.hierarchy.levels.front().graph;
  const auto slots = static_cast<std::size_t>(finest.num_vertices()) * W;
  HICOND_CHECK(r.size() == slots, "residual size mismatch");
  HICOND_CHECK(z.size() == slots, "correction size mismatch");
  if (st.hierarchy.num_levels() == 0) {
    coarsest_solve<W>(r, z, ws);
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
  // A copy shares state_.
  return [self = *this](std::span<const double> r, std::span<double> z) {
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
