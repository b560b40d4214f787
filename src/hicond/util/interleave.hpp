// Vertex-interleaved multi-vector blocks.
//
// The solve kernels (SpMV, restriction, V-cycle, PCG) are templated on a
// compile-time width W in {1, 2, 4, 8} and hold W vectors interleaved: slot
// v*W + j is vector j at vertex v. An arc touches one contiguous W-wide run,
// and the per-lane loops have a constant trip count the compiler unrolls and
// vectorises. At W = 1 this is a plain vector. Column-major entry points
// (column j in [j*n, (j+1)*n)) transpose chunks of 8/4/2/1 columns in and
// out; the transposes are pure copies and cannot perturb a column's bits.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "hicond/util/common.hpp"
#include "hicond/util/parallel.hpp"

namespace hicond {

/// Widest compile-time lane count the kernels are instantiated for.
inline constexpr std::size_t kMaxLanes = 8;

/// Expands X(W) once per instantiated lane width, for the explicit
/// instantiations each W-templated kernel emits in its own .cpp file.
#define HICOND_FOR_EACH_LANE_WIDTH(X) X(1) X(2) X(4) X(8)

/// Visit the columns [j0, k) in chunks of width 8, 4, 2, 1, widest first:
/// calls fn(std::integral_constant<std::size_t, W>{}, j) for each chunk
/// [j, j + W). The widths depend on k only.
template <std::size_t W = kMaxLanes, typename Fn>
void for_each_lane_chunk(int k, Fn&& fn, int j0 = 0) {
  for (; k - j0 >= static_cast<int>(W); j0 += static_cast<int>(W)) {
    fn(std::integral_constant<std::size_t, W>{}, j0);
  }
  if constexpr (W > 1) for_each_lane_chunk<W / 2>(k, fn, j0);
}

/// lanes[v*W + j] = cols[(j0 + j)*n + v] for j in [0, W).
template <std::size_t W>
void interleave(std::span<const double> cols, std::size_t n, int j0,
                std::span<double> lanes) {
  const double* src = cols.data() + static_cast<std::size_t>(j0) * n;
  parallel_for(n, [&](std::size_t v) {
    for (std::size_t j = 0; j < W; ++j) lanes[v * W + j] = src[j * n + v];
  });
}

/// cols[(j0 + j)*n + v] = lanes[v*W + j] for j in [0, W).
template <std::size_t W>
void deinterleave(std::span<const double> lanes, std::size_t n, int j0,
                  std::span<double> cols) {
  double* dst = cols.data() + static_cast<std::size_t>(j0) * n;
  parallel_for(n, [&](std::size_t v) {
    for (std::size_t j = 0; j < W; ++j) dst[j * n + v] = lanes[v * W + j];
  });
}

/// Y = Op(X) for k columns of length n stored column-major, through an
/// interleaved kernel: op(std::integral_constant<std::size_t, W>{}, in, out)
/// maps one W-lane block. Column j of Y is whatever the kernel computes for
/// lane j, which is how each blocked entry point stays a thin adapter.
template <typename Op>
void apply_column_major(std::span<const double> x, std::span<double> y,
                        std::size_t n, int k, Op&& op) {
  HICOND_CHECK(k >= 1, "block width must be positive");
  HICOND_CHECK(x.size() == n * static_cast<std::size_t>(k),
               "x block size mismatch");
  HICOND_CHECK(y.size() == x.size(), "y block size mismatch");
  const std::size_t widest =
      std::min(kMaxLanes, static_cast<std::size_t>(k));
  std::vector<double> in(n * widest);
  std::vector<double> out(n * widest);
  for_each_lane_chunk(k, [&](auto width, int j0) {
    constexpr std::size_t W = decltype(width)::value;
    const std::span<double> lin(in.data(), n * W);
    const std::span<double> lout(out.data(), n * W);
    interleave<W>(x, n, j0, lin);
    op(width, std::span<const double>(lin), lout);
    deinterleave<W>(lout, n, j0, y);
  });
}

}  // namespace hicond
