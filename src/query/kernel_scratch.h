// KernelScratch — reusable working memory for the iterative kernels.
//
// Every RWR / PHP / PageRank call needs four arrays: the scores, two
// ping-pong sweep vectors (as long as the plan's gather extent: rows,
// pad column, self columns — see src/core/kernel_plan.h) and the
// gathered incoming sum of each row. Allocating them per query is
// measurable at serving scale, so the query engine threads a
// KernelScratch through instead: buffers grow to the largest summary
// they have served and are reused verbatim afterwards — within an
// epoch, steady-state serving does zero internal allocations per
// iterative query.
//
// A KernelScratch is single-query state and must never be shared by two
// concurrent kernels. Executor worker ids are only unique within one
// job (src/util/parallel.h), so per-worker-id scratch would alias
// across concurrently admitted batches; KernelScratchPool instead hands
// out exclusive leases from a mutex-guarded freelist (the lock is taken
// once per query, not per sweep). The pool grows to the high-water mark
// of concurrent iterative queries and holds its buffers until
// ReleaseIdle, which QueryService::Publish calls: idle buffers are sized
// for the retired epoch's plan, and freeing them lets the publish hand
// their pages back to the OS.
//
// Scratch contents are uninitialized between uses; kernels must write
// before they read (they fill every slot they read up front, including
// the pad and self columns). Nothing here affects answer bytes —
// byte-identity is pinned by the golden hashes.

#ifndef PEGASUS_QUERY_KERNEL_SCRATCH_H_
#define PEGASUS_QUERY_KERNEL_SCRATCH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace pegasus {

struct KernelScratch {
  std::vector<double> scores;  // rho / phi, one per row
  std::vector<double> ping;    // rate or total, current sweep
  std::vector<double> pong;    // rate or total, next sweep
  std::vector<double> cross;   // gathered incoming sum per row

  // Grows (never shrinks) the buffers for `rows` rows and sweep vectors
  // of `extent` slots. cross has one spare slot, the target of the
  // empty lanes of a partial slice.
  void Reserve(size_t rows, size_t extent) {
    if (scores.size() < rows) scores.resize(rows);
    if (ping.size() < extent) ping.resize(extent);
    if (pong.size() < extent) pong.resize(extent);
    if (cross.size() < rows + 1) cross.resize(rows + 1);
  }
};

class KernelScratchPool {
 public:
  // Exclusive ownership of one scratch; returns it on destruction.
  class Lease {
   public:
    Lease(KernelScratchPool* pool, std::unique_ptr<KernelScratch> scratch)
        : pool_(pool), scratch_(std::move(scratch)) {}
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), scratch_(std::move(other.scratch_)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (scratch_ != nullptr) pool_->Return(std::move(scratch_));
    }

    KernelScratch* get() const { return scratch_.get(); }

   private:
    KernelScratchPool* pool_;
    std::unique_ptr<KernelScratch> scratch_;
  };

  // Drops every idle scratch; leases in flight return to the pool as
  // usual.
  void ReleaseIdle() {
    std::lock_guard<std::mutex> lock(mu_);
    free_.clear();
  }

  Lease Acquire() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        std::unique_ptr<KernelScratch> scratch = std::move(free_.back());
        free_.pop_back();
        return Lease(this, std::move(scratch));
      }
    }
    return Lease(this, std::make_unique<KernelScratch>());
  }

 private:
  void Return(std::unique_ptr<KernelScratch> scratch) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(scratch));
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<KernelScratch>> free_;
};

}  // namespace pegasus

#endif  // PEGASUS_QUERY_KERNEL_SCRATCH_H_
