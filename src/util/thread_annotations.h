// Clang Thread Safety Analysis macros (-Wthread-safety).
//
// BP-Wrapper's contribution is a lock *protocol* — private per-thread
// queues, TryLock-first batched commits, prefetch-before-lock — and a
// protocol is exactly the kind of invariant a compiler can check. These
// macros declare, on the locks in src/sync and the structures they protect,
// which capability guards what; a clang build with -Wthread-safety then
// rejects any access path that does not provably hold the right lock
// (tests/negative_compile/ keeps the rejection working).
//
// Under gcc (or any non-clang compiler) every macro expands to nothing, so
// the annotations are free documentation there; CI's static-analysis job is
// the gate that compiles them for real.
//
// Vocabulary (see clang.llvm.org/docs/ThreadSafetyAnalysis.html):
//   BPW_CAPABILITY(x)        the class is a lock ("capability") named x
//   BPW_SCOPED_CAPABILITY    the class is an RAII guard managing a capability
//   BPW_GUARDED_BY(mu)       reads/writes of this member require holding mu
//   BPW_PT_GUARDED_BY(mu)    dereferences of this pointer require holding mu
//   BPW_ACQUIRE(...)         the function acquires the capability
//   BPW_TRY_ACQUIRE(b, ...)  ...acquires it iff the function returns b
//   BPW_RELEASE(...)         the function releases the capability
//   BPW_REQUIRES(...)        caller must hold the capability (exclusive)
//   BPW_REQUIRES_SHARED(...) caller must hold it at least shared
//   BPW_EXCLUDES(...)        caller must NOT hold the capability
//   BPW_ASSERT_CAPABILITY(x) runtime/contract assertion that x is held
//   BPW_RETURN_CAPABILITY(x) the function returns a reference to capability x
//   BPW_NO_THREAD_SAFETY_ANALYSIS  opt this function out (lock internals,
//                                  quiesced-only test surfaces)
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define BPW_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define BPW_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

#define BPW_CAPABILITY(x) BPW_THREAD_ANNOTATION(capability(x))
#define BPW_SCOPED_CAPABILITY BPW_THREAD_ANNOTATION(scoped_lockable)

#define BPW_GUARDED_BY(x) BPW_THREAD_ANNOTATION(guarded_by(x))
#define BPW_PT_GUARDED_BY(x) BPW_THREAD_ANNOTATION(pt_guarded_by(x))

#define BPW_ACQUIRED_BEFORE(...) \
  BPW_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define BPW_ACQUIRED_AFTER(...) \
  BPW_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

#define BPW_REQUIRES(...) \
  BPW_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define BPW_REQUIRES_SHARED(...) \
  BPW_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

#define BPW_ACQUIRE(...) \
  BPW_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define BPW_ACQUIRE_SHARED(...) \
  BPW_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define BPW_RELEASE(...) \
  BPW_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define BPW_RELEASE_SHARED(...) \
  BPW_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

#define BPW_TRY_ACQUIRE(...) \
  BPW_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define BPW_TRY_ACQUIRE_SHARED(...) \
  BPW_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

#define BPW_EXCLUDES(...) BPW_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

#define BPW_ASSERT_CAPABILITY(x) BPW_THREAD_ANNOTATION(assert_capability(x))
#define BPW_ASSERT_SHARED_CAPABILITY(x) \
  BPW_THREAD_ANNOTATION(assert_shared_capability(x))

#define BPW_RETURN_CAPABILITY(x) BPW_THREAD_ANNOTATION(lock_returned(x))

#define BPW_NO_THREAD_SAFETY_ANALYSIS \
  BPW_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Analyzer-only annotations, read by tools/bpw_check (not by clang).
//
// Clang's -Wthread-safety proves lock *coverage*; it says nothing about the
// lock-free paths or about what a critical section costs. These macros
// state what the checker cannot infer. All of them expand to nothing under
// every compiler — they exist for the analyzer and for the reader.
//
//   BPW_RELAXED_OK(reason)   memory_order_relaxed on this field (or, as a
//                            standalone statement, on this line and the
//                            next) is deliberate — say why.
//
// For the interprocedural critical-section prover:
//
//   BPW_BOUNDED_BY(expr)     placed on (or on the line above) a loop that
//                            is not structurally bounded: `expr` names the
//                            quantity that bounds its trip count
//                            (batch_size, num_shards, ...). Under a lock,
//                            every while/for(;;)/do loop must either be a
//                            classic counted loop, a range-for, or carry
//                            this annotation; the same rule proves CAS
//                            retry loops bounded on the lock-free paths.
//   BPW_HOLD_EFFECT_OK(effect, reason)
//                            on a function declaration: the named effect
//                            (alloc | block | io | log | clock | loop |
//                            indirect) is deliberate in this function, so
//                            strike it from the function's transitive
//                            effect summary — callers holding a lock
//                            across it prove clean against the cleansed
//                            summary. The reason string is the on-record
//                            justification; prefer restructuring over
//                            annotating.
// ---------------------------------------------------------------------------
#define BPW_RELAXED_OK(reason)   // analyzer-only
#define BPW_BOUNDED_BY(expr)     // analyzer-only
#define BPW_HOLD_EFFECT_OK(effect, reason)  // analyzer-only
