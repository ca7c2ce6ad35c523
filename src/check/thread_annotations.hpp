#pragma once

// Clang Thread Safety Analysis annotations + the annotated lock vocabulary
// the concurrency layer uses (ThreadPool, metrics registry, trace sinks,
// Supervisor, campaign journal).
//
// Under clang, GUARDED_BY/REQUIRES/EXCLUDES/... expand to the attributes
// behind -Wthread-safety, turning "which mutex guards this field" from a
// comment into a compile-time property: touching a GUARDED_BY(mu) member
// without holding mu is a build error in the CI thread-safety job
// (-Wthread-safety -Werror). Under every other compiler the macros expand
// to nothing and the wrapper types below degrade to the plain std
// primitives they wrap — zero overhead, zero behavior change.
//
// Layer-neutral on purpose (like io/parse_report.hpp): every subsystem may
// include this without creating a dependency edge; it pulls in nothing but
// the standard library. Declared as an interface header in
// tools/starlint/layers.toml.
//
// Conventions (enforced by review + the thread-safety CI job):
//   * a mutex-guarded field is declared `T field GUARDED_BY(mu);`
//   * mutexes in annotated classes are `check::Mutex`, locked via the
//     scoped `check::MutexLock` (never a bare lock()/unlock() pair);
//   * condition waits go through `check::CondVar::wait(mu)` inside a
//     while-loop re-checking the guarded predicate;
//   * public methods that take an internal lock are annotated
//     EXCLUDES(mu) so re-entrant self-deadlock is a compile error.

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define STARLAB_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef STARLAB_THREAD_ANNOTATION
#define STARLAB_THREAD_ANNOTATION(x)  // no-op off clang
#endif

#ifndef CAPABILITY
#define CAPABILITY(x) STARLAB_THREAD_ANNOTATION(capability(x))
#endif
#ifndef SCOPED_CAPABILITY
#define SCOPED_CAPABILITY STARLAB_THREAD_ANNOTATION(scoped_lockable)
#endif
#ifndef GUARDED_BY
#define GUARDED_BY(x) STARLAB_THREAD_ANNOTATION(guarded_by(x))
#endif
#ifndef PT_GUARDED_BY
#define PT_GUARDED_BY(x) STARLAB_THREAD_ANNOTATION(pt_guarded_by(x))
#endif
#ifndef REQUIRES
#define REQUIRES(...) \
  STARLAB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#endif
#ifndef EXCLUDES
#define EXCLUDES(...) STARLAB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#endif
#ifndef ACQUIRE
#define ACQUIRE(...) \
  STARLAB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#endif
#ifndef RELEASE
#define RELEASE(...) \
  STARLAB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#endif
#ifndef TRY_ACQUIRE
#define TRY_ACQUIRE(...) \
  STARLAB_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#endif
#ifndef ASSERT_CAPABILITY
#define ASSERT_CAPABILITY(x) STARLAB_THREAD_ANNOTATION(assert_capability(x))
#endif
#ifndef RETURN_CAPABILITY
#define RETURN_CAPABILITY(x) STARLAB_THREAD_ANNOTATION(lock_returned(x))
#endif
#ifndef NO_THREAD_SAFETY_ANALYSIS
#define NO_THREAD_SAFETY_ANALYSIS \
  STARLAB_THREAD_ANNOTATION(no_thread_safety_analysis)
#endif

namespace starlab::check {

/// std::mutex with the `capability` attribute the analysis tracks. Lock it
/// through MutexLock; `native()` exists only for CondVar's adopt-lock wait.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }

  /// The wrapped mutex, for interop that stays invisible to the analysis
  /// (CondVar re-acquires through it while the capability is formally held).
  [[nodiscard]] std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// Scoped lock over Mutex — the std::lock_guard of the annotated world.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable for Mutex. wait() requires the capability: the real
/// unlock/relock happens on the native handle via adopt_lock, so to the
/// analysis the caller holds `mu` across the wait — exactly the guarantee
/// the guarded predicate re-check relies on. Standard spurious-wakeup
/// discipline applies: always wait inside `while (!predicate)`.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.native(), std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's MutexLock still owns the capability
  }

  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace starlab::check
