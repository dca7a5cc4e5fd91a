// Dense id-keyed slots cleared all at once by advancing an epoch.
//
// The summarizer's hot loops aggregate or look up values per supernode id
// thousands of times per candidate group; clearing an id_bound-sized array
// each time would cost O(|V|), and hashing would cost a probe per access.
// Instead every slot carries the epoch it was last claimed in, and a slot
// counts as live only while that stamp equals the current epoch.
//
// Wrap safety: a uint32_t epoch passes 2^32 after about 4 billion clears,
// which a billion-edge run can reach. Epoch 0 is reserved for "never
// claimed" and is never current, and when the counter wraps every stamp
// is zeroed, so neither an untouched slot nor a stale stamp from an
// earlier lap can ever read as live.

#ifndef PEGASUS_UTIL_STAMPED_SLOTS_H_
#define PEGASUS_UTIL_STAMPED_SLOTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pegasus {

// Slot payload of an id -> index map.
struct IndexSlot {
  uint32_t stamp = 0;
  uint32_t index = 0;
};

// `Slot` is a plain struct with a `uint32_t stamp` member next to its
// payload, so the stamp check and the payload share a cache line.
template <typename Slot>
class StampedSlots {
 public:
  // Resizes to ids [0, n); every slot starts dead.
  void Resize(size_t n) { slots_.assign(n, Slot{}); }

  // Kills every slot in O(1) (O(n) once per 2^32 - 1 calls, on wrap).
  void NextEpoch() {
    if (++epoch_ == 0) {
      for (Slot& slot : slots_) slot.stamp = 0;
      epoch_ = 1;
    }
  }

  bool Live(size_t id) const { return slots_[id].stamp == epoch_; }

  // Marks `id` live; true iff it was dead, in which case its payload is
  // stale and the caller initializes it.
  bool Claim(size_t id) {
    Slot& slot = slots_[id];
    if (slot.stamp == epoch_) return false;
    slot.stamp = epoch_;
    return true;
  }

  Slot& operator[](size_t id) { return slots_[id]; }
  const Slot& operator[](size_t id) const { return slots_[id]; }

  uint32_t epoch() const { return epoch_; }
  // Continues counting from `epoch` (nonzero). Lets tests cross the wrap
  // without 2^32 clears.
  void SetEpochForTesting(uint32_t epoch) { epoch_ = epoch; }

 private:
  std::vector<Slot> slots_;
  uint32_t epoch_ = 1;
};

}  // namespace pegasus

#endif  // PEGASUS_UTIL_STAMPED_SLOTS_H_
