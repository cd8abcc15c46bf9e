// Clang Thread Safety Analysis annotation macros.
//
// The concurrent components (the UDP host's loop, registry and command
// mailboxes, the buffer pool) each carry a hand-reasoned locking
// discipline; these macros let the compiler check it. Under Clang with
// -Wthread-safety every GUARDED_BY field access and REQUIRES call is
// verified at compile time; under any other compiler (or without the
// attribute) every macro expands to nothing, so annotated code is
// portable by construction.
//
// Conventions (see docs/ANALYSIS.md):
//   - GUARDED_BY(mu) on a field: every read and write holds mu.
//   - REQUIRES(mu) on a function: callers hold mu on entry (the
//     `*_locked()` helper idiom).
//   - ACQUIRE/RELEASE on functions that take or give up a lock.
//   - EXCLUDES(mu) on functions that lock mu themselves and therefore
//     must not be called with mu already held (non-reentrant).
//   - NO_THREAD_SAFETY_ANALYSIS is a last resort, always with a comment
//     saying why the analysis cannot see the invariant.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define NEWTOP_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef NEWTOP_THREAD_ANNOTATION
#define NEWTOP_THREAD_ANNOTATION(x)  // no-op on non-Clang compilers
#endif

#define CAPABILITY(x) NEWTOP_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY NEWTOP_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) NEWTOP_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) NEWTOP_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) \
  NEWTOP_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  NEWTOP_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) \
  NEWTOP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  NEWTOP_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) \
  NEWTOP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  NEWTOP_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  NEWTOP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  NEWTOP_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  NEWTOP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  NEWTOP_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) NEWTOP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) \
  NEWTOP_THREAD_ANNOTATION(assert_capability(x))
#define RETURN_CAPABILITY(x) NEWTOP_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  NEWTOP_THREAD_ANNOTATION(no_thread_safety_analysis)
