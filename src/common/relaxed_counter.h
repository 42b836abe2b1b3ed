// RelaxedCounter: a statistics counter with one writer at a time and
// readers on any thread.
//
// The disk and WAL counters are bumped by the group-commit flush leader,
// which runs outside the statement mutex that metrics snapshots take, so a
// snapshot can read a counter while it is being written. Relaxed atomic
// loads and stores make that read well defined (and visible to TSan) and
// compile to plain moves on x86 and ARM.
//
// An increment is a relaxed load and store, not an atomic read-modify-write:
// every writer of a counter already holds a lock or is the one thread that
// owns it, so writes never race each other — only reads race writes. The
// type converts to and from uint64_t, so stats structs built from it keep
// their plain-integer look.

#ifndef CACTIS_COMMON_RELAXED_COUNTER_H_
#define CACTIS_COMMON_RELAXED_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace cactis {

class RelaxedCounter {
 public:
  RelaxedCounter(uint64_t v = 0) : v_(v) {}  // NOLINT(runtime/explicit)
  RelaxedCounter(const RelaxedCounter& other) : v_(other.load()) {}

  RelaxedCounter& operator=(const RelaxedCounter& other) {
    store(other.load());
    return *this;
  }
  RelaxedCounter& operator=(uint64_t v) {
    store(v);
    return *this;
  }
  RelaxedCounter& operator++() {
    store(load() + 1);
    return *this;
  }
  RelaxedCounter& operator+=(uint64_t delta) {
    store(load() + delta);
    return *this;
  }

  operator uint64_t() const { return load(); }  // NOLINT(runtime/explicit)
  uint64_t load() const { return v_.load(std::memory_order_relaxed); }

 private:
  void store(uint64_t v) { v_.store(v, std::memory_order_relaxed); }

  std::atomic<uint64_t> v_;
};

}  // namespace cactis

#endif  // CACTIS_COMMON_RELAXED_COUNTER_H_
