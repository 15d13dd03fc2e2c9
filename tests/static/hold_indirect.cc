// Seeded violation: an indirect call inside a hold region. A call through
// a function pointer has an unknown target set, so the prover must assume
// it may do anything — allocate, block, loop — and reject the region. The
// sanctioned escape is BPW_HOLD_EFFECT_OK(indirect, "...") on the holding
// function once the callback's contract is audited by hand (the annotated
// control below).
//
// Not compiled — analyzed standalone by `bpw_check
// --check-expectations`.

namespace corpus {

struct CorpusIndirectHold {
  ContentionLock lock_;

  void ForEachEntry(void (*visit)(int)) {
    ContentionLockGuard guard(lock_);
    // bpw-check-expect(hold-indirect-call)
    visit(0);  // targets unknown — may do anything while we hold the lock
  }

  // Annotated control: the audited-callback escape hatch.
  void ForEachAudited(void (*visit)(int))
      BPW_HOLD_EFFECT_OK(indirect,
                         "visit is the pin-check callback: reads frame "
                         "state, never blocks or allocates") {
    ContentionLockGuard guard(lock_);
    visit(0);
  }
};

}  // namespace corpus
