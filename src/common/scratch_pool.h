// Thread-local free lists of per-query scratch state.
//
// Every search iterator owns a scratch object (dense epoch tables, NTD
// arena blocks, heap storage) whose allocations are expensive to set up but
// trivial to recycle: a finished query's scratch is epoch-invalidated, not
// freed, and the next query on the same thread picks it up warm. Pools are
// thread-local so acquisition is lock-free; the QueryExecutor's persistent
// worker threads (src/exec) therefore amortize scratch setup across every
// query of a batch for free.
//
// Cross-thread release is supported: destroying a handle parks the object
// on the RELEASING thread's free list, with no synchronization needed
// beyond whatever ordered the handle's transfer. Scratch capacity migrates
// with the handle, so pools self-balance across the executor's workers;
// MaxFree bounds each thread's list independently.

#ifndef TGKS_COMMON_SCRATCH_POOL_H_
#define TGKS_COMMON_SCRATCH_POOL_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace tgks::common {

/// A thread-local pool of default-constructed `S` objects.
///
/// Acquire() returns a unique_ptr-like handle; destroying the handle parks
/// the object back on the calling thread's free list (capacity and all)
/// instead of deleting it. The free list is bounded by `MaxFree` to keep a
/// pathological burst of concurrent iterators from pinning memory forever;
/// size it to the expected peak of simultaneously-live scratches (the
/// search engine holds one best-path scratch per keyword; the inverse
/// search runs one label-correcting iterator per match node, which can be
/// thousands).
template <typename S, size_t MaxFree = 64>
class ScratchPool {
 public:
  struct Releaser {
    void operator()(S* s) const { Release(s); }
  };
  using Handle = std::unique_ptr<S, Releaser>;

  static Handle Acquire() {
    auto& list = FreeList();
    if (!list.empty()) {
      Handle h(list.back().release());
      list.pop_back();
      ++ThreadStats().reused;
      return h;
    }
    ++ThreadStats().created;
    return Handle(new S());
  }

  /// Observability for tests: objects newly allocated / recycled on THIS
  /// thread since it started.
  struct Stats {
    size_t created = 0;
    size_t reused = 0;
  };
  static Stats ThreadLocalStats() { return ThreadStats(); }

  /// Drops this thread's free list (used by tests to force cold starts).
  static void TrimThreadCache() { FreeList().clear(); }

 private:
  static void Release(S* s) {
    auto& list = FreeList();
    if (list.size() < MaxFree) {
      list.emplace_back(s);
    } else {
      delete s;
    }
  }

  static std::vector<std::unique_ptr<S>>& FreeList() {
    thread_local std::vector<std::unique_ptr<S>> list;
    return list;
  }

  static Stats& ThreadStats() {
    thread_local Stats stats;
    return stats;
  }
};

}  // namespace tgks::common

#endif  // TGKS_COMMON_SCRATCH_POOL_H_
