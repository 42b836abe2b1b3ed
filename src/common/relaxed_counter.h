// Relaxed<T>: a statistics field with one writer at a time and readers on
// any thread. RelaxedCounter is the uint64_t counter every stats struct is
// built from.
//
// Every stats field is readable from any thread: a metrics scrape or a
// sampler tick reads them with no lock while the owning subsystem writes
// them. Relaxed atomic loads and stores make that read well defined (and
// visible to TSan) and compile to plain moves on x86 and ARM.
//
// An increment is a relaxed load and store, not an atomic read-modify-write:
// every writer of a field already holds a lock or is the one thread that
// owns it, so writes never race each other — only reads race writes. The
// type converts to and from T, so stats structs built from it keep their
// plain-value look.

#ifndef CACTIS_COMMON_RELAXED_COUNTER_H_
#define CACTIS_COMMON_RELAXED_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace cactis {

template <typename T>
class Relaxed {
 public:
  Relaxed(T v = T{}) : v_(v) {}  // NOLINT(runtime/explicit)
  Relaxed(const Relaxed& other) : v_(other.load()) {}

  Relaxed& operator=(const Relaxed& other) {
    store(other.load());
    return *this;
  }
  Relaxed& operator=(T v) {
    store(v);
    return *this;
  }
  Relaxed& operator++() {
    store(load() + 1);
    return *this;
  }
  Relaxed& operator+=(T delta) {
    store(load() + delta);
    return *this;
  }
  Relaxed& operator-=(T delta) {
    store(load() - delta);
    return *this;
  }

  operator T() const { return load(); }  // NOLINT(runtime/explicit)
  T load() const { return v_.load(std::memory_order_relaxed); }

 private:
  void store(T v) { v_.store(v, std::memory_order_relaxed); }

  std::atomic<T> v_;
};

using RelaxedCounter = Relaxed<uint64_t>;

}  // namespace cactis

#endif  // CACTIS_COMMON_RELAXED_COUNTER_H_
