// Corpus: GUARDED_BY coverage and mutex naming.
#pragma once

#include <atomic>

namespace cfs {

class Guarded {
 public:
  class Fwd;
  int Size() const { return 1; }
  void Touch();
  int Get() const { return value_; }
  void Reset() {
    value_ = 0;
  }

 private:
  struct Inner {
    int free_;
  };

  mutable Mutex mu_{"corpus.named", 10};
  Mutex unnamed_mu_;
  CondVar cv_;
  std::atomic<int> hits_{0};
  static int instances_;
  const int limit_ = 4;
  Fwd& fwd_;
  int value_ GUARDED_BY(mu_) = 0;
  int* cursor_ PT_GUARDED_BY(mu_) = nullptr;
  // tsa-coverage: allow(written once, before the object is shared)
  int config_;
  int epoch_;  // tsa-coverage: allow(read only by the owning thread)
  static constexpr char kOpen[] = "{";
  int counter_;
  // tsa-coverage: allow
  int bare_;
};

class Unowned {
  int plain_;
};

class Missing {
  Mutex mu_{"corpus.missing", 11};
};

class BlindSpot {
  Mutex mu_{"corpus.named", 10};
  /* see { below */
  int unguarded_;
  /* and } here */
  int guarded_ GUARDED_BY(mu_);
};

}  // namespace cfs
