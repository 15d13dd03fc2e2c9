// NEGATIVE-COMPILE CASE
// Seeded violation: the early-release split drawn in the wrong place.
// BpWrapperCoordinator commits in two phases: DrainOwnLocked() replays
// the thread's queue into the policy under the lock, then Unlock(), then
// PostCommitBookkeeping() counts and traces lock-free. The seeded bug
// moves the release above the replay, so DrainOwnLocked — which mutates
// the policy and is BPW_REQUIRES(lock_) for that reason — runs
// unprotected. Under -Wthread-safety this is "calling function
// 'DrainOwnLocked' requires holding mutex 'lock_' exclusively". Without
// the flag it is valid C++: nothing but the annotation knows that only the
// *bookkeeping* may follow the release.
#include <cstdint>

#include "sync/contention_lock.h"
#include "util/thread_annotations.h"

namespace bpw {

class Committer {
 public:
  // VIOLATION: the release comes after the exclusivity check but before
  // the replay. It must come after the whole apply phase.
  void CommitReleasedTooEarly() {
    lock_.Lock();
    AssertExclusiveLocked();
    lock_.Unlock();
    DrainOwnLocked();  // lock no longer held
    PostCommitBookkeeping();
  }

  void CommitAndRelease() {
    lock_.Lock();
    AssertExclusiveLocked();
    DrainOwnLocked();
    lock_.Unlock();
    PostCommitBookkeeping();  // lock-free post-commit bookkeeping: fine here
  }

 private:
  void AssertExclusiveLocked() BPW_REQUIRES(lock_) { checks_ += 1; }
  void DrainOwnLocked() BPW_REQUIRES(lock_) { applied_ += 1; }
  void PostCommitBookkeeping() BPW_EXCLUDES(lock_) { batches_ += 1; }

  ContentionLock lock_;
  uint64_t checks_ BPW_GUARDED_BY(lock_) = 0;
  uint64_t applied_ BPW_GUARDED_BY(lock_) = 0;
  uint64_t batches_ = 0;
};

void Drive() {
  Committer committer;
  committer.CommitReleasedTooEarly();
  committer.CommitAndRelease();
}

}  // namespace bpw
