#pragma once
#include "hicond/util/thread_annotations.hpp"

class Counter {
 public:
  int next() const;

 private:
  mutable hicond::Mutex mu_;
  mutable int hits_ HICOND_GUARDED_BY(mu_) = 0;
  mutable int misses_ = 0;
  mutable double
      last_seconds_ = 0.0;
};
