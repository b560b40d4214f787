#include "hicond/la/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "hicond/util/interleave.hpp"
#include "hicond/util/parallel.hpp"

namespace hicond::la {

double dot(std::span<const double> x, std::span<const double> y) {
  return dot_lanes<1>(x, y)[0];
}

template <std::size_t W>
std::array<double, W> dot_lanes(std::span<const double> x,
                                std::span<const double> y) {
  HICOND_CHECK(x.size() == y.size() && x.size() % W == 0,
               "dot size mismatch");
  return parallel_sum_lanes<W>(x.size() / W, [&](std::size_t v,
                                                 std::size_t j) {
    return x[v * W + j] * y[v * W + j];
  });
}

double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  HICOND_CHECK(x.size() == y.size(), "axpy size mismatch");
  parallel_for(x.size(), [&](std::size_t i) { y[i] += alpha * x[i]; });
}

void xpby(std::span<const double> x, double beta, std::span<double> y) {
  HICOND_CHECK(x.size() == y.size(), "xpby size mismatch");
  parallel_for(x.size(), [&](std::size_t i) { y[i] = x[i] + beta * y[i]; });
}

void scale(double alpha, std::span<double> x) {
  parallel_for(x.size(), [&](std::size_t i) { x[i] *= alpha; });
}

void copy(std::span<const double> src, std::span<double> dst) {
  HICOND_CHECK(src.size() == dst.size(), "copy size mismatch");
  parallel_for(src.size(), [&](std::size_t i) { dst[i] = src[i]; });
}

void fill(std::span<double> x, double value) {
  parallel_for(x.size(), [&](std::size_t i) { x[i] = value; });
}

template <std::size_t W>
void remove_mean(std::span<double> x) {
  HICOND_CHECK(x.size() % W == 0, "remove_mean size not a multiple of W");
  if (x.empty()) return;
  const std::size_t n = x.size() / W;
  std::array<double, W> mean = parallel_sum_lanes<W>(
      n, [&](std::size_t v, std::size_t j) { return x[v * W + j]; });
  for (double& m : mean) m /= static_cast<double>(n);
  parallel_for(x.size(), [&](std::size_t i) { x[i] -= mean[i % W]; });
}

#define HICOND_INSTANTIATE(W)                                          \
  template std::array<double, W> dot_lanes<W>(std::span<const double>, \
                                              std::span<const double>); \
  template void remove_mean<W>(std::span<double>);
HICOND_FOR_EACH_LANE_WIDTH(HICOND_INSTANTIATE)
#undef HICOND_INSTANTIATE

void remove_weighted_mean(std::span<double> x, std::span<const double> w) {
  HICOND_CHECK(x.size() == w.size(), "size mismatch");
  if (x.empty()) return;
  const double wx =
      parallel_sum(x.size(), [&](std::size_t i) { return w[i] * x[i]; });
  const double ww =
      parallel_sum(x.size(), [&](std::size_t i) { return w[i]; });
  if (ww <= 0.0) return;
  const double shift = wx / ww;
  parallel_for(x.size(), [&](std::size_t i) { x[i] -= shift; });
}

double max_abs_diff(std::span<const double> x, std::span<const double> y) {
  HICOND_CHECK(x.size() == y.size(), "size mismatch");
  return parallel_max(x.size(), 0.0, [&](std::size_t i) {
    return std::abs(x[i] - y[i]);
  });
}

}  // namespace hicond::la
