// Corpus: allowlisted for no-tsa and no-guard-lint, so nothing here is a
// finding.
#pragma once

#define NO_THREAD_SAFETY_ANALYSIS

namespace cfs {

class CondVar {
 public:
  void Wait() NO_THREAD_SAFETY_ANALYSIS;

 private:
  Mutex mu_{"corpus.named", 10};
  int waiters_;
};

}  // namespace cfs
