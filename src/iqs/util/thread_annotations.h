// Compile-time race detection support: Clang -Wthread-safety attribute
// macros plus the annotated Mutex / MutexLock / CondVar wrappers every
// lock in this library uses.
//
// Why wrappers instead of std::mutex: the thread-safety analysis needs
// capability attributes ON THE MUTEX TYPE to reason about which fields a
// lock protects, and the standard library types carry none. Mutex is a
// zero-overhead std::mutex with the capability attributes attached;
// MutexLock is the scoped guard (the lock_guard replacement); CondVar is
// a std::condition_variable whose Wait() declares, via IQS_REQUIRES,
// that the caller must hold the mutex it rendezvouses on. Under any
// non-Clang compiler (and under Clang without -Wthread-safety) every
// macro expands to nothing and the wrappers compile to exactly the
// std:: types they hold — same layout, same generated code.
//
// Annotation conventions (full write-up: DESIGN.md "Correctness
// tooling"):
//
//   * Every field protected by a mutex is declared with
//     IQS_GUARDED_BY(mu_) naming the ACTUAL mutex — never a blanket
//     IQS_NO_THREAD_SAFETY_ANALYSIS on the accessor.
//   * Private helpers called with a lock held are annotated
//     IQS_REQUIRES(mu_); helpers that must NOT be called with it held
//     (they take it themselves) are annotated IQS_EXCLUDES(mu_).
//   * Predicate waits are written as explicit `while (!cond) cv.Wait(&mu)`
//     loops at the call site, NOT as lambdas handed to a wait helper: the
//     analysis does not propagate the caller's lock set into lambda
//     bodies, so guarded reads inside a predicate lambda would need
//     suppressions. The explicit loop needs none.
//   * Fields read lock-free by design (atomics, epoch-published
//     pointers) carry no IQS_GUARDED_BY; the comment at the field must
//     say what orders the access instead (see util/epoch.h).
//
// The analyzer runs on every Clang build (-Wthread-safety is added by
// the top-level CMakeLists) and is promoted to an error in CI via
// -DIQS_THREAD_SAFETY_WERROR=ON (.github/workflows/static-analysis.yml).
// iqs-lint enforces that no naked std::mutex / std::lock_guard /
// std::condition_variable appears outside this header.

#ifndef IQS_UTIL_THREAD_ANNOTATIONS_H_
#define IQS_UTIL_THREAD_ANNOTATIONS_H_

// iqs_lint's naked-mutex rule exempts this file: it IS the wrapper.
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define IQS_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define IQS_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op outside Clang
#endif

// On a type: this class is a lockable capability ("mutex").
#define IQS_CAPABILITY(x) IQS_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

// On a type: RAII object that acquires a capability at construction and
// releases it at destruction (MutexLock).
#define IQS_SCOPED_CAPABILITY \
  IQS_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

// On a field: reads and writes require holding mutex x.
#define IQS_GUARDED_BY(x) IQS_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

// On a pointer field: the POINTED-TO data is protected by mutex x (the
// pointer itself may be read freely).
#define IQS_PT_GUARDED_BY(x) IQS_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

// On a function: the caller must hold the listed mutexes on entry (and
// still holds them on return, even if the body unlocks and relocks).
#define IQS_REQUIRES(...) \
  IQS_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))

// On a function: acquires / releases the listed mutexes (no list = the
// object itself, for Mutex::Lock / Mutex::Unlock).
#define IQS_ACQUIRE(...) \
  IQS_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))
#define IQS_RELEASE(...) \
  IQS_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))
#define IQS_TRY_ACQUIRE(...) \
  IQS_THREAD_ANNOTATION_ATTRIBUTE_(try_acquire_capability(__VA_ARGS__))

// On a function: the caller must NOT hold the listed mutexes (the
// function acquires them itself — the deadlock-by-reentry guard).
#define IQS_EXCLUDES(...) \
  IQS_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

// On a function: returns a reference to the listed mutex.
#define IQS_RETURN_CAPABILITY(x) \
  IQS_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

// Escape hatch of last resort. Repository policy (enforced by review,
// documented in DESIGN.md): never used in src/ — annotate the real
// contract instead.
#define IQS_NO_THREAD_SAFETY_ANALYSIS \
  IQS_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

namespace iqs {

// std::mutex with the capability attributes the analysis needs. Same
// size, same code; Lock/Unlock compile to lock/unlock.
class IQS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() IQS_ACQUIRE() { mu_.lock(); }
  void Unlock() IQS_RELEASE() { mu_.unlock(); }
  bool TryLock() IQS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // CondVar rendezvous only — do not lock through this directly.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

// Scoped guard (the std::lock_guard replacement): acquires at
// construction, releases at destruction.
class IQS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) IQS_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() IQS_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// Condition variable over Mutex. Wait declares the lock contract the
// analysis checks (held on entry, released while blocked, re-held on
// return). Write predicate waits as explicit loops at the call site:
//   while (!condition) cv.Wait(&mu);
// (see the header comment for why a predicate-lambda overload is
// deliberately absent).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) IQS_REQUIRES(mu) {
    // Adopt/release shim onto std::condition_variable: the unique_lock
    // borrows the already-held mutex and gives it back untouched.
    std::unique_lock<std::mutex> lock(mu->native(), std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still owns the re-acquired mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace iqs

#endif  // IQS_UTIL_THREAD_ANNOTATIONS_H_
