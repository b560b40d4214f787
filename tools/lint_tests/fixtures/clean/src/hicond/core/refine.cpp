#include "hicond/core/refine.hpp"

#include "hicond/util/parallel.hpp"

#define HICOND_CHECK(x) ((void)(x))

int refine(int x) {
  HICOND_CHECK(x >= 0);
  return x + 1;
}

void zero(double* xs, int n) {
#pragma omp for schedule(static)
  for (int i = 0; i < n; ++i) xs[i] = 0.5 * xs[i];
}
