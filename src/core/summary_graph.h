// Summary graph G̅ = (S, P) (Sec. II-A).
//
// Supernodes S form a partition of the input node set V; superedges P join
// unordered supernode pairs and may be self-loops. Each superedge carries a
// weight: the number of input-graph edges it represents, which is what the
// paper's weighted summary graphs store for query answering.
//
// The structure is mutable in exactly the way the summarizers need: two
// supernodes can be merged (members are unioned, the loser id retires) and
// superedges can be inserted/erased. Supernode ids are stable: they are
// never reused, and `alive()` distinguishes active ids; ids are in
// [0, initial |V|).
//
// Size accounting follows Eq. (3): Size(G̅) = 2|P| log2|S| + |V| log2|S|,
// with the weighted variant |P| (2 log2|S| + log2 w_max) + |V| log2|S|
// used when weights are retained (Sec. V-A).
//
// Thread-safety: const accessors may be called concurrently from any
// number of threads as long as no thread mutates the summary. Mutation
// (MergeSupernodes, Set/Erase/ClearSuperedges) is single-threaded by
// contract — the parallel engine (src/core/parallel_engine.h) stages all
// decisions against a frozen summary and funnels every mutation through
// one thread at phase barriers, rather than locking here. The query
// serving path goes one step further: it snapshots an immutable
// SummaryView (src/query/summary_view.h) and never touches this
// structure while answering.
//
// Canonical order: every supernode's superedges are stored in ascending
// neighbor-id order, and that storage order is the only enumeration
// order there is. superedges(a) is a view of the store, so every read
// path — query scores, eval metrics, serialized summaries, and the
// summarizers' own bookkeeping — sees the same order, fixed by the data
// alone and byte-identical across standard libraries, without copying or
// sorting per call.
//
// Superedge store: one row per supernode of 8-byte {neighbor, weight}
// entries in a single allocation, plus a 24-byte row header (~10 B per
// directed entry at Skitter*'s mean degree, against ~45 B for the
// node-based hash maps this replaced). A row shorter than Row::kDirectRow
// entries is one sorted run, mutated in place by shifting. Longer rows
// (hubs) avoid an O(d) shift per mutation: an erase leaves a zero-weight
// tombstone in the sorted head run, an insert goes to a short sorted tail
// run, and the two runs are merged (tombstones dropped) once the tail
// outgrows ~sqrt(head) entries or tombstones fill half the head. Lookups
// binary-search both runs and the view merges them on the fly, so a hub
// mutation costs O(log d + sqrt d) amortized.

#ifndef PEGASUS_CORE_SUMMARY_GRAPH_H_
#define PEGASUS_CORE_SUMMARY_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "src/graph/graph.h"

namespace pegasus {

using SupernodeId = uint32_t;

class SummaryGraph {
 public:
  // An empty summary (no nodes); assign from Identity()/FromPartition().
  SummaryGraph() = default;

  // One superedge as seen from one endpoint: the other endpoint and the
  // weight (count of represented input edges). A self-loop appears as an
  // entry keyed by the supernode's own id.
  struct Superedge {
    SupernodeId neighbor;
    uint32_t weight;
    friend bool operator==(const Superedge&, const Superedge&) = default;
  };

  // The superedges of one supernode in ascending neighbor order: a
  // read-only view into the store (see the header comment). A view stays
  // valid until the summary is next mutated.
  class SuperedgeRange {
   public:
    // Merges the row's head and tail runs, skipping head tombstones.
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Superedge;
      using difference_type = std::ptrdiff_t;
      using pointer = const Superedge*;
      using reference = const Superedge&;

      Iterator() = default;
      reference operator*() const { return *Current(); }
      pointer operator->() const { return Current(); }
      Iterator& operator++() {
        if (FromHead()) {
          ++head_;
          SkipTombstones();
        } else {
          ++tail_;
        }
        return *this;
      }
      Iterator operator++(int) {
        Iterator old = *this;
        ++*this;
        return old;
      }
      friend bool operator==(const Iterator& x, const Iterator& y) {
        return x.head_ == y.head_ && x.tail_ == y.tail_;
      }

     private:
      friend class SuperedgeRange;
      Iterator(const Superedge* head, const Superedge* head_end,
               const Superedge* tail, const Superedge* tail_end)
          : head_(head), head_end_(head_end), tail_(tail), tail_end_(tail_end) {
        SkipTombstones();
      }
      bool FromHead() const {
        return tail_ == tail_end_ ||
               (head_ != head_end_ && head_->neighbor < tail_->neighbor);
      }
      const Superedge* Current() const { return FromHead() ? head_ : tail_; }
      void SkipTombstones() {
        while (head_ != head_end_ && head_->weight == 0) ++head_;
      }

      const Superedge* head_ = nullptr;
      const Superedge* head_end_ = nullptr;
      const Superedge* tail_ = nullptr;
      const Superedge* tail_end_ = nullptr;
    };

    Iterator begin() const {
      return {data_, data_ + head_, data_ + head_, data_ + end_};
    }
    Iterator end() const {
      return {data_ + head_, data_ + head_, data_ + end_, data_ + end_};
    }
    size_t size() const { return live_; }
    bool empty() const { return live_ == 0; }

   private:
    friend class SummaryGraph;
    SuperedgeRange(const Superedge* data, uint32_t head, uint32_t end,
                   uint32_t live)
        : data_(data), head_(head), end_(end), live_(live) {}

    const Superedge* data_;
    uint32_t head_;  // data_[0, head_): sorted head run, may hold tombstones
    uint32_t end_;   // data_[head_, end_): sorted tail run
    uint32_t live_;
  };

  // The identity summary of `graph`: every node is a singleton supernode
  // and every edge a superedge of weight 1. Reconstructs `graph` exactly.
  static SummaryGraph Identity(const Graph& graph);

  // A summary with the given partition (labels need not be dense) and no
  // superedges; used by baselines that choose superedges after clustering.
  static SummaryGraph FromPartition(const Graph& graph,
                                    const std::vector<NodeId>& labels);

  // --- Supernode structure -------------------------------------------------

  NodeId num_nodes() const { return static_cast<NodeId>(supernode_of_.size()); }

  // Number of *active* supernodes |S|.
  uint32_t num_supernodes() const { return num_active_; }

  // Upper bound (exclusive) on supernode ids ever issued.
  SupernodeId id_bound() const { return static_cast<SupernodeId>(members_.size()); }

  bool alive(SupernodeId a) const { return alive_[a]; }

  SupernodeId supernode_of(NodeId u) const { return supernode_of_[u]; }

  const std::vector<NodeId>& members(SupernodeId a) const { return members_[a]; }

  // All active supernode ids (ascending).
  std::vector<SupernodeId> ActiveSupernodes() const;

  // Merges supernodes a and b (both alive, a != b). Members are unioned
  // into the larger of the two ("winner"); the other id retires. All
  // superedges incident to either id are erased — callers re-add the
  // superedges of the merged supernode (Alg. 2 line 9). Returns the winner.
  SupernodeId MergeSupernodes(SupernodeId a, SupernodeId b);

  // --- Superedges ----------------------------------------------------------

  // a's superedges in ascending neighbor order — the one canonical
  // enumeration order (see the header comment). O(1): a view, not a copy.
  SuperedgeRange superedges(SupernodeId a) const { return rows_[a].view(); }

  // Number of superedges |P| (each unordered pair counted once; a
  // self-loop counts once).
  uint64_t num_superedges() const { return num_superedges_; }

  bool HasSuperedge(SupernodeId a, SupernodeId b) const;

  // Weight of superedge {a, b}; 0 if absent.
  uint32_t SuperedgeWeight(SupernodeId a, SupernodeId b) const;

  // Inserts or updates superedge {a, b} (a may equal b) with `weight` >= 1.
  void SetSuperedge(SupernodeId a, SupernodeId b, uint32_t weight);

  // Removes superedge {a, b} if present. Returns true if removed.
  bool EraseSuperedge(SupernodeId a, SupernodeId b);

  // Removes every superedge incident to `a` (including its self-loop).
  // Returns the number removed. Used by superedge reselection.
  uint64_t ClearSuperedgesOf(SupernodeId a);

  // Largest superedge weight (1 if there are no superedges).
  uint32_t MaxSuperedgeWeight() const;

  // Heap bytes held by the superedge store: row headers plus every row's
  // allocated entry capacity.
  size_t SuperedgeStoreBytes() const;

  // --- Size & reconstruction ------------------------------------------------

  // Eq. (3): 2 |P| log2 |S| + |V| log2 |S|.
  double SizeInBits() const;

  // Weighted-output encoding (Sec. V-A):
  // |P| (2 log2|S| + log2 w_max) + |V| log2 |S|.
  double SizeInBitsWeighted() const;

  // The reconstructed graph Ĝ (Sec. II-A). Intended for small graphs and
  // tests; Ĝ can be dense.
  Graph Reconstruct() const;

 private:
  // One supernode's superedges: slots_[0, head_) is the sorted head run
  // (tombstones have weight 0), slots_[head_, size_) the sorted tail run.
  // A neighbor id occupies at most one slot. Rows with head_ < kDirectRow
  // have neither tombstones nor a tail.
  class Row {
   public:
    static constexpr uint32_t kDirectRow = 64;

    Row() = default;
    Row(const Row& other);
    Row& operator=(const Row& other);
    Row(Row&&) noexcept = default;
    Row& operator=(Row&&) noexcept = default;

    uint32_t size() const { return size_ - dead_; }
    SuperedgeRange view() const {
      return {slots_.get(), head_, size_, size_ - dead_};
    }
    size_t capacity_bytes() const { return capacity_ * sizeof(Superedge); }

    // Weight of the superedge to b, 0 if absent.
    uint32_t Weight(SupernodeId b) const;
    // Inserts or updates; returns true iff b was absent.
    bool Set(SupernodeId b, uint32_t weight);
    // Returns true iff b was present.
    bool Erase(SupernodeId b);
    // Empties the row, keeping its allocation for refills.
    void Clear() { size_ = head_ = dead_ = 0; }
    // Empties the row and frees its allocation.
    void Release();
    // Fills an empty row with weight-1 superedges to ascending `neighbors`.
    void AssignUnitWeights(std::span<const NodeId> neighbors);

   private:
    // The slot holding b (live or tombstone), or nullptr.
    Superedge* Slot(SupernodeId b);
    const Superedge* Slot(SupernodeId b) const;
    // Opens a slot at index `pos` (shifting [pos, size_) right by one).
    Superedge* OpenSlot(uint32_t pos);
    // Folds the tail into the head and drops tombstones.
    void Normalize();
    void Grow();

    std::unique_ptr<Superedge[]> slots_;
    uint32_t size_ = 0;
    uint32_t capacity_ = 0;
    uint32_t head_ = 0;
    uint32_t dead_ = 0;
  };

  std::vector<SupernodeId> supernode_of_;     // node -> supernode
  std::vector<std::vector<NodeId>> members_;  // supernode -> member nodes
  std::vector<uint8_t> alive_;
  std::vector<Row> rows_;                     // supernode -> superedges
  uint32_t num_active_ = 0;
  uint64_t num_superedges_ = 0;
};

}  // namespace pegasus

#endif  // PEGASUS_CORE_SUMMARY_GRAPH_H_
