#pragma once
#include <vector>

#include "hicond/util/thread_annotations.hpp"

class Totals {
 public:
  int add(int x) const {
    auto bump = [x]() mutable { return ++x; };
    return bump();
  }

 private:
  mutable Mutex mu_;
  mutable std::vector<int> totals_
      HICOND_GUARDED_BY(mu_);
};
