// NEGATIVE-COMPILE CASE
// Seeded violation: the result of TryLock() is discarded and guarded state
// is touched anyway — the exact bug the BP-Wrapper TryLock-first commit
// protocol must never contain. TryLock() is BPW_TRY_ACQUIRE(true), so the
// capability is held only on the branch where it returned true; ignoring
// the result leaves the capability unproven. Expected clang diagnostic:
// "writing variable 'pending_' requires holding mutex 'lock_' exclusively"
// [-Wthread-safety-analysis] (plus a leaked-lock report on the success
// interleaving).
#include <cstdint>

#include "sync/contention_lock.h"
#include "util/thread_annotations.h"

namespace bpw {

class Committer {
 public:
  // VIOLATION: unchecked TryLock(), then unguarded write. bpw_check flags
  // this shape too; it is suppressed here because this file exists to
  // seed the violation for the clang harness.
  void CommitSloppy() {
    // bpw-lint-allow(trylock-no-fallback)
    (void)lock_.TryLock();
    pending_ = 0;
  }

  void CommitProperly() {
    if (lock_.TryLock()) {
      ContentionLockAdoptGuard guard(lock_);
      pending_ = 0;
      return;
    }
    ContentionLockGuard guard(lock_);
    pending_ = 0;
  }

 private:
  ContentionLock lock_;
  uint64_t pending_ BPW_GUARDED_BY(lock_) = 0;
};

void Drive() {
  Committer committer;
  committer.CommitSloppy();
  committer.CommitProperly();
}

}  // namespace bpw
