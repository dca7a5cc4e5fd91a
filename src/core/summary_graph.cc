#include "src/core/summary_graph.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "src/graph/graph_builder.h"
#include "src/util/bits.h"

namespace pegasus {

SummaryGraph SummaryGraph::Identity(const Graph& graph) {
  const NodeId n = graph.num_nodes();
  SummaryGraph s;
  s.supernode_of_.resize(n);
  s.members_.resize(n);
  s.alive_.assign(n, 1);
  s.rows_.resize(n);
  s.num_active_ = n;
  for (NodeId u = 0; u < n; ++u) {
    s.supernode_of_[u] = u;
    s.members_[u] = {u};
    s.rows_[u].AssignUnitWeights(graph.neighbors(u));
  }
  s.num_superedges_ = graph.num_edges();
  return s;
}

SummaryGraph SummaryGraph::FromPartition(const Graph& graph,
                                         const std::vector<NodeId>& labels) {
  assert(labels.size() == graph.num_nodes());
  const NodeId n = graph.num_nodes();
  // Densify labels.
  std::vector<NodeId> sorted(labels);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  auto dense = [&](NodeId label) {
    return static_cast<SupernodeId>(
        std::lower_bound(sorted.begin(), sorted.end(), label) -
        sorted.begin());
  };
  SummaryGraph s;
  s.supernode_of_.resize(n);
  s.members_.resize(sorted.size());
  s.alive_.assign(sorted.size(), 1);
  s.rows_.resize(sorted.size());
  s.num_active_ = static_cast<uint32_t>(sorted.size());
  for (NodeId u = 0; u < n; ++u) {
    SupernodeId a = dense(labels[u]);
    s.supernode_of_[u] = a;
    s.members_[a].push_back(u);
  }
  return s;
}

std::vector<SupernodeId> SummaryGraph::ActiveSupernodes() const {
  std::vector<SupernodeId> out;
  out.reserve(num_active_);
  for (SupernodeId a = 0; a < alive_.size(); ++a) {
    if (alive_[a]) out.push_back(a);
  }
  return out;
}

SupernodeId SummaryGraph::MergeSupernodes(SupernodeId a, SupernodeId b) {
  assert(a != b && alive_[a] && alive_[b]);
  SupernodeId winner = members_[a].size() >= members_[b].size() ? a : b;
  SupernodeId loser = winner == a ? b : a;

  // Erase all superedges incident to either id (Alg. 2 line 8). Clearing
  // the winner first also removes the {winner, loser} back-pointer from the
  // loser's row, so that pair is counted exactly once.
  ClearSuperedgesOf(winner);
  ClearSuperedgesOf(loser);
  rows_[loser].Release();

  for (NodeId u : members_[loser]) supernode_of_[u] = winner;
  members_[winner].insert(members_[winner].end(), members_[loser].begin(),
                          members_[loser].end());
  members_[loser].clear();
  members_[loser].shrink_to_fit();
  alive_[loser] = 0;
  --num_active_;
  return winner;
}

bool SummaryGraph::HasSuperedge(SupernodeId a, SupernodeId b) const {
  return rows_[a].Weight(b) != 0;
}

uint32_t SummaryGraph::SuperedgeWeight(SupernodeId a, SupernodeId b) const {
  return rows_[a].Weight(b);
}

void SummaryGraph::SetSuperedge(SupernodeId a, SupernodeId b,
                                uint32_t weight) {
  assert(alive_[a] && alive_[b] && weight >= 1);
  const bool inserted = rows_[a].Set(b, weight);
  if (a != b) rows_[b].Set(a, weight);
  if (inserted) ++num_superedges_;
}

uint64_t SummaryGraph::ClearSuperedgesOf(SupernodeId a) {
  const uint64_t removed = rows_[a].size();
  for (const Superedge& e : rows_[a].view()) {
    if (e.neighbor != a) rows_[e.neighbor].Erase(a);
  }
  rows_[a].Clear();
  num_superedges_ -= removed;
  return removed;
}

bool SummaryGraph::EraseSuperedge(SupernodeId a, SupernodeId b) {
  if (!rows_[a].Erase(b)) return false;
  if (a != b) rows_[b].Erase(a);
  --num_superedges_;
  return true;
}

uint32_t SummaryGraph::MaxSuperedgeWeight() const {
  uint32_t best = 1;
  for (const Row& row : rows_) {
    for (const Superedge& e : row.view()) best = std::max(best, e.weight);
  }
  return best;
}

size_t SummaryGraph::SuperedgeStoreBytes() const {
  size_t bytes = rows_.capacity() * sizeof(Row);
  for (const Row& row : rows_) bytes += row.capacity_bytes();
  return bytes;
}

double SummaryGraph::SizeInBits() const {
  const double bits = Log2Bits(num_active_);
  return 2.0 * static_cast<double>(num_superedges_) * bits +
         static_cast<double>(num_nodes()) * bits;
}

double SummaryGraph::SizeInBitsWeighted() const {
  const double bits = Log2Bits(num_active_);
  return static_cast<double>(num_superedges_) *
             (2.0 * bits + Log2Bits(MaxSuperedgeWeight())) +
         static_cast<double>(num_nodes()) * bits;
}

Graph SummaryGraph::Reconstruct() const {
  GraphBuilder builder(num_nodes());
  for (SupernodeId a = 0; a < rows_.size(); ++a) {
    if (!alive_[a]) continue;
    for (const auto& [b, w] : rows_[a].view()) {
      (void)w;
      if (b < a) continue;  // each unordered pair once
      if (a == b) {
        const auto& m = members_[a];
        for (size_t i = 0; i < m.size(); ++i) {
          for (size_t j = i + 1; j < m.size(); ++j) {
            builder.AddEdge(m[i], m[j]);
          }
        }
      } else {
        for (NodeId u : members_[a]) {
          for (NodeId v : members_[b]) builder.AddEdge(u, v);
        }
      }
    }
  }
  return std::move(builder).Build();
}

// ---------------------------------------------------------------------------
// SummaryGraph::Row

namespace {

using Superedge = SummaryGraph::Superedge;

// Orders row entries, and entries against neighbor ids, by neighbor id.
struct ByNeighbor {
  bool operator()(const Superedge& e, SupernodeId b) const {
    return e.neighbor < b;
  }
  bool operator()(const Superedge& x, const Superedge& y) const {
    return x.neighbor < y.neighbor;
  }
};

// Tail-run length that triggers Normalize(): about sqrt(head), so the
// tail insert shift and the amortized merge cost are both O(sqrt d).
uint32_t TailLimit(uint32_t head) {
  return uint32_t{1} << (std::bit_width(head) / 2);
}

const Superedge* FindIn(const Superedge* begin, const Superedge* end,
                        SupernodeId b) {
  const Superedge* it = std::lower_bound(begin, end, b, ByNeighbor{});
  return it != end && it->neighbor == b ? it : nullptr;
}

}  // namespace

SummaryGraph::Row::Row(const Row& other) { *this = other; }

SummaryGraph::Row& SummaryGraph::Row::operator=(const Row& other) {
  if (this == &other) return *this;
  // The copy is written as one clean run of exactly the live entries.
  const uint32_t live = other.size();
  slots_ = live == 0 ? nullptr
                     : std::make_unique_for_overwrite<Superedge[]>(live);
  std::copy(other.view().begin(), other.view().end(), slots_.get());
  size_ = capacity_ = head_ = live;
  dead_ = 0;
  return *this;
}

void SummaryGraph::Row::Release() {
  slots_.reset();
  size_ = capacity_ = head_ = dead_ = 0;
}

void SummaryGraph::Row::AssignUnitWeights(std::span<const NodeId> neighbors) {
  assert(capacity_ == 0);
  const auto n = static_cast<uint32_t>(neighbors.size());
  if (n == 0) return;
  slots_ = std::make_unique_for_overwrite<Superedge[]>(n);
  for (uint32_t i = 0; i < n; ++i) slots_[i] = {neighbors[i], 1};
  assert(std::is_sorted(slots_.get(), slots_.get() + n, ByNeighbor{}));
  size_ = capacity_ = head_ = n;
}

const SummaryGraph::Superedge* SummaryGraph::Row::Slot(SupernodeId b) const {
  const Superedge* data = slots_.get();
  const Superedge* hit = FindIn(data, data + head_, b);
  return hit != nullptr ? hit : FindIn(data + head_, data + size_, b);
}

SummaryGraph::Superedge* SummaryGraph::Row::Slot(SupernodeId b) {
  return const_cast<Superedge*>(std::as_const(*this).Slot(b));
}

uint32_t SummaryGraph::Row::Weight(SupernodeId b) const {
  const Superedge* slot = Slot(b);
  return slot == nullptr ? 0 : slot->weight;
}

void SummaryGraph::Row::Grow() {
  const uint32_t capacity = std::max<uint32_t>(4, capacity_ * 2);
  auto slots = std::make_unique_for_overwrite<Superedge[]>(capacity);
  std::copy(slots_.get(), slots_.get() + size_, slots.get());
  slots_ = std::move(slots);
  capacity_ = capacity;
}

SummaryGraph::Superedge* SummaryGraph::Row::OpenSlot(uint32_t pos) {
  if (size_ == capacity_) Grow();
  Superedge* data = slots_.get();
  std::copy_backward(data + pos, data + size_, data + size_ + 1);
  ++size_;
  return data + pos;
}

bool SummaryGraph::Row::Set(SupernodeId b, uint32_t weight) {
  if (Superedge* slot = Slot(b)) {
    const bool revived = slot->weight == 0;
    if (revived) --dead_;
    slot->weight = weight;
    return revived;
  }
  // Short rows take a sorted insert into the head; hubs into the tail.
  const uint32_t begin = head_ < kDirectRow ? 0 : head_;
  const Superedge* data = slots_.get();
  const auto pos = static_cast<uint32_t>(
      std::lower_bound(data + begin, data + size_, b, ByNeighbor{}) - data);
  *OpenSlot(pos) = {b, weight};
  if (begin == 0) {
    ++head_;
  } else if (size_ - head_ > TailLimit(head_)) {
    Normalize();
  }
  return true;
}

bool SummaryGraph::Row::Erase(SupernodeId b) {
  Superedge* slot = Slot(b);
  if (slot == nullptr || slot->weight == 0) return false;
  Superedge* data = slots_.get();
  const auto pos = static_cast<uint32_t>(slot - data);
  if (pos >= head_ || head_ < kDirectRow) {
    // Tail entries and short-row entries are removed by shifting.
    std::copy(data + pos + 1, data + size_, data + pos);
    --size_;
    if (pos < head_) --head_;
    return true;
  }
  slot->weight = 0;  // hub head: leave a tombstone
  if (++dead_ * 2 > head_) Normalize();
  return true;
}

void SummaryGraph::Row::Normalize() {
  Superedge* data = slots_.get();
  uint32_t live = 0;
  for (uint32_t i = 0; i < head_; ++i) {
    if (data[i].weight != 0) data[live++] = data[i];
  }
  Superedge* tail_end = std::copy(data + head_, data + size_, data + live);
  std::inplace_merge(data, data + live, tail_end, ByNeighbor{});
  size_ = head_ = static_cast<uint32_t>(tail_end - data);
  dead_ = 0;
}

}  // namespace pegasus
