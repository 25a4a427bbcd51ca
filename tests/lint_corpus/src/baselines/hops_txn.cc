// Corpus: src/baselines/ is outside the critical-section scope rule.
namespace cfs {

void HopsTxn::Commit() {
  MutexLock lock(mu_);
  net_->Call(self_, peer_, [] { return Status::Ok(); });
}

}  // namespace cfs
