// ThreadSerialGuard: mechanical enforcement of the core's locking
// discipline.
//
// The Cactis core (Database, ObjectCache and everything below them) is
// single-threaded: the paper's multi-user concurrency is timestamp
// ordering over *interleaved* operations, not parallel ones. The service
// layer (src/server) multiplexes many sessions onto the core by running
// every statement that touches live state behind one mutex; only the
// MVCC snapshot readers, which never enter a guarded entry point, run
// beside it.
//
// That discipline is easy to state and easy to break silently, so the
// core's entry points carry a guard that detects a second thread
// entering and aborts with a diagnostic instead of corrupting state.
// Re-entry by the owning thread is permitted (public operations nest: an
// auto-commit Set runs Begin/Commit internally).
//
// Cost when the discipline holds: one relaxed load and one CAS per
// outermost entry — noise next to the microseconds a database operation
// costs. The guard is active in all build types; a data race that only
// debug builds would catch is still a data race.

#ifndef CACTIS_COMMON_THREAD_GUARD_H_
#define CACTIS_COMMON_THREAD_GUARD_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace cactis {

namespace internal {

[[noreturn]] inline void GuardViolation(const char* site, const char* what) {
  std::fprintf(stderr,
               "cactis: concurrent unsynchronized access detected in "
               "%s()\n  %s; callers must respect the statement lock "
               "discipline (see server::Executor's statement mutex)\n",
               site, what);
  std::abort();
}

}  // namespace internal

class ThreadSerialGuard {
 public:
  ThreadSerialGuard() = default;
  ThreadSerialGuard(const ThreadSerialGuard&) = delete;
  ThreadSerialGuard& operator=(const ThreadSerialGuard&) = delete;

  /// RAII entry token. Construct at the top of every guarded entry point.
  class Scope {
   public:
    Scope(ThreadSerialGuard& guard, const char* site) : guard_(guard) {
      guard_.Enter(site);
    }
    ~Scope() { guard_.Exit(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadSerialGuard& guard_;
  };

 private:
  void Enter(const char* site) {
    const std::thread::id me = std::this_thread::get_id();
    if (owner_.load(std::memory_order_relaxed) == me) {
      ++depth_;  // same-thread re-entry (nested public operation)
      return;
    }
    std::thread::id expected{};  // "no owner"
    if (!owner_.compare_exchange_strong(expected, me,
                                        std::memory_order_acquire)) {
      internal::GuardViolation(
          site, "two threads entered a single-threaded component at once");
    }
    depth_ = 1;
  }

  void Exit() {
    if (--depth_ == 0) {
      owner_.store(std::thread::id{}, std::memory_order_release);
    }
  }

  std::atomic<std::thread::id> owner_{};
  int depth_ = 0;  // touched only by the owning thread
};

/// Guards the enclosing scope against concurrent entry through `guard`.
#define CACTIS_SERIAL_GUARD(guard) \
  ::cactis::ThreadSerialGuard::Scope _cactis_serial_scope_((guard), __func__)

}  // namespace cactis

#endif  // CACTIS_COMMON_THREAD_GUARD_H_
