#include "hicond/la/cg.hpp"

#include <algorithm>
#include <cmath>

#include "hicond/la/vector_ops.hpp"
#include "hicond/obs/metrics.hpp"
#include "hicond/obs/trace.hpp"
#include "hicond/util/interleave.hpp"
#include "hicond/util/parallel.hpp"

namespace hicond {

namespace {

/// Phase-boundary bookkeeping, once per solved system.
void record_solve_metrics(const SolveStats& stats) {
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter_add("cg.solves");
  metrics.counter_add("cg.iterations", stats.iterations);
  if (stats.iterations > 0) {
    metrics.histogram_record("cg.iterations_per_solve",
                             static_cast<double>(stats.iterations));
  }
}

}  // namespace

template <std::size_t W>
std::array<SolveStats, W> pcg_interleaved(const LinearOperator& a,
                                          const LinearOperator* m_inv,
                                          std::span<const double> b,
                                          std::span<double> x,
                                          const CgOptions& opt,
                                          bool flexible) {
  HICOND_SPAN("cg.solve");
  const std::size_t len = b.size();
  HICOND_CHECK(len % W == 0, "rhs block size not a multiple of W");
  HICOND_CHECK(x.size() == len, "solution size mismatch");
  using Lanes = std::array<double, W>;
  std::array<SolveStats, W> stats;
  // live[j]: lane j still iterates. A stopped lane keeps riding through the
  // block operators and projections, but its x, r and p updates are masked
  // and its scalars frozen, so the other lanes and its result never see it.
  std::array<bool, W> live{};

  std::vector<double> r(len);
  std::vector<double> z(len);
  std::vector<double> p(len);
  std::vector<double> ap(len);
  std::vector<double> z_prev(flexible ? len : 0);  // Polak-Ribiere memory

  auto project = [&](std::span<double> v) {
    if (opt.project_constant) la::remove_mean<W>(v);
  };
  auto norms = [](std::span<const double> v) {
    Lanes out = la::dot_lanes<W>(v, v);
    for (double& o : out) o = std::sqrt(o);
    return out;
  };
  auto any_live = [&] {
    return std::any_of(live.begin(), live.end(), [](bool l) { return l; });
  };
  // fn(i, i % W) over the slots of the live lanes. One flat loop (not a
  // loop over vertices and lanes) is what the compiler vectorises well;
  // the all-live case also drops the mask.
  auto each_live_slot = [&](auto&& fn) {
    if (std::all_of(live.begin(), live.end(), [](bool l) { return l; })) {
      parallel_for(len, [&](std::size_t i) { fn(i, i % W); });
    } else {
      parallel_for(len, [&](std::size_t i) {
        if (live[i % W]) fn(i, i % W);
      });
    }
  };

  // r = b - A x.
  a(x, r);
  parallel_for(len, [&](std::size_t i) { r[i] = b[i] - r[i]; });
  project(r);

  std::vector<double> b_proj(b.begin(), b.end());
  project(b_proj);
  const Lanes b_norm = norms(b_proj);
  Lanes stop{};
  Lanes r_norm = norms(r);
  for (std::size_t j = 0; j < W; ++j) {
    stop[j] = opt.rel_tolerance * (b_norm[j] > 0.0 ? b_norm[j] : 1.0);
    if (opt.record_history) stats[j].residual_history.push_back(r_norm[j]);
    stats[j].converged = r_norm[j] <= stop[j];
    live[j] = !stats[j].converged;
  }

  auto apply_precond = [&]() {
    if (m_inv != nullptr) {
      (*m_inv)(r, z);
      project(z);
    } else {
      la::copy(r, z);
    }
  };

  if (any_live()) {
    apply_precond();
    la::copy(z, p);
    Lanes rz = la::dot_lanes<W>(r, z);
    if (flexible) la::copy(z, z_prev);

    for (int it = 1; it <= opt.max_iterations; ++it) {
      a(p, ap);
      project(ap);
      const Lanes p_ap = la::dot_lanes<W>(p, ap);
      Lanes alpha{};
      for (std::size_t j = 0; j < W; ++j) {
        // Indefinite or null direction: stop the lane, no convergence.
        if (live[j] && !(p_ap[j] > 0.0)) live[j] = false;
        if (live[j]) alpha[j] = rz[j] / p_ap[j];
      }
      if (!any_live()) break;
      each_live_slot([&](std::size_t i, std::size_t j) {
        x[i] += alpha[j] * p[i];
        r[i] += -alpha[j] * ap[i];
      });
      project(r);
      const Lanes r_norm_new = norms(r);
      for (std::size_t j = 0; j < W; ++j) {
        if (!live[j]) continue;
        r_norm[j] = r_norm_new[j];
        if (opt.record_history) stats[j].residual_history.push_back(r_norm[j]);
        stats[j].iterations = it;
        if (r_norm[j] <= stop[j]) {
          stats[j].converged = true;
          live[j] = false;
        }
      }
      if (!any_live()) break;
      apply_precond();
      const Lanes rz_new = la::dot_lanes<W>(r, z);
      // Polak-Ribiere: beta = r'(z - z_prev) / rz, with the same
      // fixed-block reduction (same rounding at every thread count).
      const Lanes rz_prev_dot =
          flexible ? la::dot_lanes<W>(r, z_prev) : Lanes{};
      Lanes beta{};
      for (std::size_t j = 0; j < W; ++j) {
        if (!live[j]) continue;
        beta[j] = flexible ? (rz_new[j] - rz_prev_dot[j]) / rz[j]
                           : rz_new[j] / rz[j];
        rz[j] = rz_new[j];
        if (!(std::abs(rz[j]) > 0.0)) live[j] = false;
      }
      if (!any_live()) break;
      each_live_slot([&](std::size_t i, std::size_t j) {
        if (flexible) z_prev[i] = z[i];
        p[i] = z[i] + beta[j] * p[i];
      });
    }
  }
  for (std::size_t j = 0; j < W; ++j) {
    stats[j].final_relative_residual =
        b_norm[j] > 0.0 ? r_norm[j] / b_norm[j] : r_norm[j];
    record_solve_metrics(stats[j]);
  }
  return stats;
}

#define HICOND_INSTANTIATE(W)                                               \
  template std::array<SolveStats, W> pcg_interleaved<W>(                    \
      const LinearOperator&, const LinearOperator*, std::span<const double>, \
      std::span<double>, const CgOptions&, bool);
HICOND_FOR_EACH_LANE_WIDTH(HICOND_INSTANTIATE)
#undef HICOND_INSTANTIATE

SolveStats cg_solve(const LinearOperator& a, std::span<const double> b,
                    std::span<double> x, const CgOptions& options) {
  return pcg_interleaved<1>(a, nullptr, b, x, options, /*flexible=*/false)[0];
}

SolveStats pcg_solve(const LinearOperator& a, const LinearOperator& m_inv,
                     std::span<const double> b, std::span<double> x,
                     const CgOptions& options) {
  return pcg_interleaved<1>(a, &m_inv, b, x, options, /*flexible=*/false)[0];
}

SolveStats flexible_pcg_solve(const LinearOperator& a,
                              const LinearOperator& m_inv,
                              std::span<const double> b, std::span<double> x,
                              const CgOptions& options) {
  return pcg_interleaved<1>(a, &m_inv, b, x, options, /*flexible=*/true)[0];
}

}  // namespace hicond
