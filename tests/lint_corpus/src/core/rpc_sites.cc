// Corpus: SimNet RPC sites under MutexLock-family guards.
namespace cfs {

void Engine::HoldsAcrossCall() {
  MutexLock lock(mu_);
  net_->Call(self_, peer_, [] { return Status::Ok(); });
}

void Engine::DropsTheGuard() {
  MutexLock lock(mu_);
  lock.Unlock();
  net_->Call(self_, peer_, [] { return Status::Ok(); });
  lock.Lock();
}

void Engine::JustifiedAbove() {
  WriterMutexLock lock(mu_);
  // cs-scope: allow(the peers are in-process and never block)
  net_->FanOut(self_, peers_, [](size_t) { return Status::Ok(); });
}

void Engine::JustifiedOnLine() {
  ReaderMutexLock lock(mu_);
  BeginCall(peer_);  // cs-scope: allow(one-way notify, no reply awaited)
}

void Engine::BareEscape() {
  MutexLock lock(mu_);
  // cs-scope: allow()
  LockPhaseCall(peer_);
}

void Engine::BraceInString() {
  MutexLock lock(mu_);
  Log("}");
  net_->Call(self_, peer_, [] { return Status::Ok(); });
}

void Engine::ScopeClosed() {
  {
    MutexLock lock(mu_);
    value_++;
  }
  net_->Call(self_, peer_, [] { return Status::Ok(); });
}

void Engine::NotAnRpc() {
  MutexLock lock(mu_);
  Recall(peer_);
}

void Engine::BlockCommentBrace() {
  if (ready_) {
    MutexLock lock(mu_);
    /* close } early */
    net_->Call(self_, peer_, [] { return Status::Ok(); });
  }
  /* { and reopen */
}

}  // namespace cfs
