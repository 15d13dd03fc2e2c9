// Seeded violations: an error Status built in a hold region allocates when
// its message does not fit std::string's 15-char inline buffer — a long
// literal, or any non-literal message. A failed victim search returns such
// a status under the policy lock on every miss that finds all frames
// pinned. No message, or a literal of at most 15 chars, is clean.
//
// Not compiled — analyzed standalone by `bpw_check
// --check-expectations`.

namespace corpus {

struct CorpusStatusHold {
  ContentionLock lock_;

  Status SearchLongLiteral() {
    ContentionLockGuard guard(lock_);
    // bpw-check-expect(hold-alloc)
    return Status::ResourceExhausted("lru: no evictable frame");
  }

  Status SearchBuiltMessage(PageId page) {
    ContentionLockGuard guard(lock_);
    // bpw-check-expect(hold-alloc)
    return Status::Internal("page " + std::to_string(page));
  }

  Status SearchNamedMessage(const std::string& why) {
    ContentionLockGuard guard(lock_);
    // bpw-check-expect(hold-alloc)
    return Status::Corruption(why);
  }

  // Clean controls: an inline-sized literal, and no message at all.
  Status SearchShortLiteral() {
    ContentionLockGuard guard(lock_);
    return Status::ResourceExhausted("no victim");
  }

  Status SearchOk() {
    ContentionLockGuard guard(lock_);
    return Status::OK();
  }
};

}  // namespace corpus
