#include "src/core/binary_summary_io.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <utility>

#include "src/graph/graph.h"

namespace pegasus {

namespace {

using psb::ElementType;
using psb::SectionEncoding;
using psb::SectionEntry;
using psb::SectionId;

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::DataLoss(path + ": " + what);
}

std::string SectionLabel(uint32_t id) {
  return "section " + std::to_string(id) + " (" + psb::SectionName(id) + ")";
}

// Element i of section `id` as its raw u64 bit pattern (f64 sections are
// bit_cast; integer sections zero-extend).
uint64_t ElementBits(const SummaryLayout& l, uint32_t id, uint64_t i) {
  switch (static_cast<SectionId>(id)) {
    case SectionId::kNodeToSuper: return l.node_to_super[i];
    case SectionId::kMemberBegin: return l.member_begin[i];
    case SectionId::kMembers: return l.members[i];
    case SectionId::kEdgeBegin: return l.edge_begin[i];
    case SectionId::kEdgeDst: return l.edge_dst[i];
    case SectionId::kEdgeWeight: return l.edge_weight[i];
    case SectionId::kEdgeDensityW:
      return std::bit_cast<uint64_t>(l.edge_density_w[i]);
    case SectionId::kEdgeDensityUw:
      return std::bit_cast<uint64_t>(l.edge_density_uw[i]);
    case SectionId::kMemberCount:
      return std::bit_cast<uint64_t>(l.member_count[i]);
    case SectionId::kMemberDegW:
      return std::bit_cast<uint64_t>(l.member_deg_w[i]);
    case SectionId::kMemberDegUw:
      return std::bit_cast<uint64_t>(l.member_deg_uw[i]);
    case SectionId::kSelfDensityW:
      return std::bit_cast<uint64_t>(l.self_density_w[i]);
    case SectionId::kSelfDensityUw:
      return std::bit_cast<uint64_t>(l.self_density_uw[i]);
  }
  return 0;
}

// Finds superedge {a, b} in b's CSR row; returns the slot or -1. Rows
// ascend (CheckLayoutBounds), so this is a binary search.
int64_t FindSlot(const SummaryLayout& l, uint32_t row, uint32_t dst) {
  const uint32_t* begin = l.edge_dst + l.edge_begin[row];
  const uint32_t* end = l.edge_dst + l.edge_begin[row + 1];
  const uint32_t* it = std::lower_bound(begin, end, dst);
  if (it == end || *it != dst) return -1;
  return it - l.edge_dst;
}

}  // namespace

Status SaveSummaryBinary(const SummaryLayout& layout, const std::string& path,
                         const PsbWriteOptions& opts) {
  psb::PsbHeader header;
  header.num_nodes = layout.num_nodes;
  header.num_supernodes = layout.num_supernodes;
  header.num_superedges = layout.num_superedges;
  header.num_edge_slots = layout.num_edge_slots;

  std::vector<std::string> payloads(psb::kSectionCount);
  uint64_t cursor = psb::kTablePrefixBytes;
  for (uint32_t id = 1; id <= psb::kSectionCount; ++id) {
    const ElementType type = psb::SectionElementType(id);
    const uint64_t count = psb::SectionElementCount(
        id, layout.num_nodes, layout.num_supernodes, layout.num_edge_slots);
    const bool integer = type != ElementType::kF64;
    const bool compact = opts.compact && integer;
    std::string& payload = payloads[id - 1];

    if (compact) {
      int64_t prev = 0;
      for (uint64_t i = 0; i < count; ++i) {
        const int64_t v = static_cast<int64_t>(ElementBits(layout, id, i));
        psb::PutVarint(&payload, psb::ZigZagEncode(v - prev));
        prev = v;
      }
    } else {
      payload.reserve(count * psb::ElementWidth(type));
      for (uint64_t i = 0; i < count; ++i) {
        const uint64_t bits = ElementBits(layout, id, i);
        if (psb::ElementWidth(type) == 4) {
          psb::PutU32(&payload, static_cast<uint32_t>(bits));
        } else {
          psb::PutU64(&payload, bits);
        }
      }
    }

    SectionEntry entry;
    entry.id = id;
    entry.encoding = static_cast<uint32_t>(compact ? SectionEncoding::kVarintDelta
                                                   : SectionEncoding::kRaw);
    if (!compact) {
      cursor = (cursor + psb::kSectionAlignment - 1) &
               ~static_cast<uint64_t>(psb::kSectionAlignment - 1);
    }
    entry.offset = cursor;
    entry.length = payload.size();
    entry.decoded_length = count * psb::ElementWidth(type);
    entry.checksum =
        psb::Fnv1a(reinterpret_cast<const uint8_t*>(payload.data()),
                   payload.size());
    cursor += payload.size();
    header.sections.push_back(entry);
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::DataLoss("cannot open for write: " + path);
  const std::string prefix = psb::SerializeHeader(header);
  out.write(prefix.data(), static_cast<std::streamsize>(prefix.size()));
  uint64_t written = prefix.size();
  for (uint32_t id = 1; id <= psb::kSectionCount; ++id) {
    const SectionEntry& entry = header.sections[id - 1];
    for (; written < entry.offset; ++written) out.put('\0');
    out.write(payloads[id - 1].data(),
              static_cast<std::streamsize>(payloads[id - 1].size()));
    written += payloads[id - 1].size();
  }
  if (!out) return Status::DataLoss("write failed: " + path);
  return Status::Ok();
}

bool SniffPsbMagic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint8_t head[4] = {0, 0, 0, 0};
  if (!in.read(reinterpret_cast<char*>(head), 4)) return false;
  return std::memcmp(head, psb::kMagic, 4) == 0;
}

StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open: " + path);
  const std::streamsize size = in.tellg();
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  in.seekg(0);
  if (size > 0 && !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return Status::DataLoss("read failed: " + path);
  }
  return bytes;
}

Status CheckLayoutBounds(const SummaryLayout& l, const std::string& path) {
  const uint64_t v = l.num_nodes;
  const uint64_t s = l.num_supernodes;
  const auto BadCsr = [&](SectionId id, const std::string& what) {
    return Corrupt(path,
                   SectionLabel(static_cast<uint32_t>(id)) + ": " + what);
  };
  if (l.member_begin[0] != 0) {
    return BadCsr(SectionId::kMemberBegin, "offsets do not start at 0");
  }
  if (l.edge_begin[0] != 0) {
    return BadCsr(SectionId::kEdgeBegin, "offsets do not start at 0");
  }
  for (uint64_t a = 0; a < s; ++a) {
    if (l.member_begin[a + 1] < l.member_begin[a]) {
      return BadCsr(SectionId::kMemberBegin,
                    "offsets decrease at supernode " + std::to_string(a));
    }
    if (l.edge_begin[a + 1] < l.edge_begin[a]) {
      return BadCsr(SectionId::kEdgeBegin,
                    "offsets decrease at supernode " + std::to_string(a));
    }
  }
  if (l.member_begin[s] != v) {
    return BadCsr(SectionId::kMemberBegin,
                  "offsets end at " + std::to_string(l.member_begin[s]) +
                      ", expected the node count " + std::to_string(v));
  }
  if (l.edge_begin[s] != l.num_edge_slots) {
    return BadCsr(SectionId::kEdgeBegin,
                  "offsets end at " + std::to_string(l.edge_begin[s]) +
                      ", expected the edge slot count " +
                      std::to_string(l.num_edge_slots));
  }
  for (uint64_t u = 0; u < v; ++u) {
    if (l.node_to_super[u] >= s) {
      return BadCsr(SectionId::kNodeToSuper,
                    "node " + std::to_string(u) + " labeled " +
                        std::to_string(l.node_to_super[u]) + ", but only " +
                        std::to_string(s) + " supernodes are declared");
    }
    if (l.members[u] >= v) {
      return BadCsr(SectionId::kMembers,
                    "slot " + std::to_string(u) + " holds node id " +
                        std::to_string(l.members[u]) + " >= " +
                        std::to_string(v));
    }
  }
  for (uint64_t a = 0; a < s; ++a) {
    for (uint64_t i = l.edge_begin[a]; i < l.edge_begin[a + 1]; ++i) {
      if (l.edge_dst[i] >= s) {
        return BadCsr(SectionId::kEdgeDst,
                      "slot " + std::to_string(i) + " points at supernode " +
                          std::to_string(l.edge_dst[i]) + " >= " +
                          std::to_string(s));
      }
      if (i > l.edge_begin[a] && l.edge_dst[i] <= l.edge_dst[i - 1]) {
        return BadCsr(SectionId::kEdgeDst,
                      "row " + std::to_string(a) +
                          " is not strictly ascending at slot " +
                          std::to_string(i) + " (canonical order)");
      }
      if (l.edge_weight[i] == 0) {
        return BadCsr(SectionId::kEdgeWeight,
                      "slot " + std::to_string(i) + " has weight 0");
      }
    }
  }
  return Status::Ok();
}

Status CheckEdgeSymmetryAndCount(const SummaryLayout& l,
                                 const std::string& path) {
  uint64_t pairs = 0, self_loops = 0;
  const uint32_t s = static_cast<uint32_t>(l.num_supernodes);
  const auto Superedge = [](uint32_t a, uint32_t b) {
    return "superedge {" + std::to_string(a) + ", " + std::to_string(b) + "}";
  };
  const auto Members = [&](uint32_t a) {
    return static_cast<int64_t>(l.member_begin[a + 1] - l.member_begin[a]);
  };
  const auto Row = [&](uint32_t section, uint32_t a) {
    return SectionLabel(section) + ": supernode " + std::to_string(a);
  };
  for (uint32_t a = 0; a < s; ++a) {
    uint64_t self_slot = UINT64_MAX;
    int64_t deg_uw = 0;  // Σ cnt, exact (FORMAT.md, derived sections)
    for (uint64_t i = l.edge_begin[a]; i < l.edge_begin[a + 1]; ++i) {
      if (l.edge_density_uw[i] != 1.0) {
        return Corrupt(path, SectionLabel(8) + ": slot " + std::to_string(i) +
                                 " is not the constant 1.0");
      }
      const uint32_t b = l.edge_dst[i];
      if (b == a) {
        self_slot = i;
        deg_uw += Members(a) - 1;
        ++self_loops;
        ++pairs;
        continue;
      }
      deg_uw += Members(b);
      if (b > a) ++pairs;
      const int64_t back = FindSlot(l, b, a);
      if (back < 0) {
        return Corrupt(path, Superedge(a, b) +
                                 " is not stored from both endpoints");
      }
      if (l.edge_weight[back] != l.edge_weight[i]) {
        return Corrupt(path, Superedge(a, b) +
                                 " has different weights in its two rows");
      }
      if (l.edge_density_w[back] != l.edge_density_w[i]) {
        return Corrupt(path, SectionLabel(7) + ": " + Superedge(a, b) +
                                 " has different densities in its two rows");
      }
    }
    // A self density or degree with no slot behind it would make the
    // kernels move mass the CSR does not hold.
    const bool has_self = self_slot != UINT64_MAX;
    const double self_w = has_self ? l.edge_density_w[self_slot] : 0.0;
    if (std::bit_cast<uint64_t>(l.self_density_w[a]) !=
        std::bit_cast<uint64_t>(self_w)) {
      return Corrupt(path, Row(12, a) + (has_self
                                             ? " differs from its self slot"
                                             : " is nonzero, no self slot"));
    }
    if (l.self_density_uw[a] != (has_self ? 1.0 : 0.0)) {
      return Corrupt(path, Row(13, a) + (has_self
                                             ? " is not 1.0 with a self slot"
                                             : " is not 0.0, no self slot"));
    }
    if (l.member_deg_uw[a] != static_cast<double>(deg_uw)) {
      return Corrupt(path, Row(11, a) + " stores " +
                               std::to_string(l.member_deg_uw[a]) +
                               " but its slots span " +
                               std::to_string(deg_uw) + " members");
    }
    if (l.edge_begin[a + 1] == l.edge_begin[a] && l.member_deg_w[a] != 0.0) {
      return Corrupt(path,
                     Row(10, a) + " has no superedge but a nonzero degree");
    }
  }
  if (pairs != l.num_superedges) {
    return Corrupt(path, "header declares " +
                             std::to_string(l.num_superedges) +
                             " superedges but the CSR stores " +
                             std::to_string(pairs));
  }
  if (2 * pairs != l.num_edge_slots + self_loops) {
    return Corrupt(path, "edge slot count " +
                             std::to_string(l.num_edge_slots) +
                             " inconsistent with " + std::to_string(pairs) +
                             " superedges and " + std::to_string(self_loops) +
                             " self-loops");
  }
  return Status::Ok();
}

Status ValidateSummaryCounts(uint64_t declared_supernodes,
                             uint64_t distinct_labels,
                             const std::string& path) {
  if (declared_supernodes != distinct_labels) {
    return Corrupt(path, "header declares " +
                             std::to_string(declared_supernodes) +
                             " supernodes but the node labels use " +
                             std::to_string(distinct_labels) +
                             " distinct ids");
  }
  return Status::Ok();
}

StatusOr<SummaryGraph> LoadSummaryBinary(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  if (!bytes) return bytes.status();
  auto decoded = psb::DecodePsb(bytes->data(), bytes->size(), path,
                                /*verify_checksums=*/true);
  if (!decoded) return decoded.status();
  const SummaryLayout l = decoded->layout();
  if (Status st = CheckLayoutBounds(l, path); !st) return st;
  if (Status st = CheckEdgeSymmetryAndCount(l, path); !st) return st;

  // Up-front header/body count agreement, shared with the text loader.
  std::vector<uint8_t> used(l.num_supernodes, 0);
  uint64_t distinct = 0;
  for (uint64_t u = 0; u < l.num_nodes; ++u) {
    uint8_t& flag = used[l.node_to_super[u]];
    distinct += flag == 0;
    flag = 1;
  }
  if (Status st = ValidateSummaryCounts(l.num_supernodes, distinct, path);
      !st) {
    return st;
  }

  const std::vector<NodeId> labels(l.node_to_super,
                                   l.node_to_super + l.num_nodes);
  Graph empty(std::vector<EdgeId>(l.num_nodes + 1, 0), {});
  SummaryGraph summary = SummaryGraph::FromPartition(empty, labels);
  const uint32_t s = static_cast<uint32_t>(l.num_supernodes);
  for (uint32_t a = 0; a < s; ++a) {
    for (uint64_t i = l.edge_begin[a]; i < l.edge_begin[a + 1]; ++i) {
      // CheckLayoutBounds has refused weight 0 (an erased slot).
      const uint32_t b = l.edge_dst[i];
      if (b >= a) summary.SetSuperedge(a, b, l.edge_weight[i]);
    }
  }
  return summary;
}

Status ValidatePsb(const uint8_t* data, size_t size, const std::string& path) {
  auto header = psb::ParsePsbHeader(data, size, size, path);
  if (!header) return header.status();
  if (Status st = psb::VerifySectionChecksums(data, *header, path); !st) {
    return st;
  }
  // Inter-section padding must be zero bytes (normative: the file is a
  // function of the summary alone).
  uint64_t prev_end = psb::kTablePrefixBytes;
  for (const SectionEntry& entry : header->sections) {
    for (uint64_t i = prev_end; i < entry.offset; ++i) {
      if (data[i] != 0) {
        return Corrupt(path, "nonzero padding byte at offset " +
                                 std::to_string(i) + " before " +
                                 SectionLabel(entry.id));
      }
    }
    prev_end = entry.offset + entry.length;
  }

  auto decoded = psb::DecodePsb(data, size, path, /*verify_checksums=*/false);
  if (!decoded) return decoded.status();
  const SummaryLayout l = decoded->layout();
  if (Status st = CheckLayoutBounds(l, path); !st) return st;

  // Member lists must be exactly the fibers of node_to_super — every node
  // appears once, inside its own supernode's range — and in canonical
  // (ascending node id) order, so a valid file has exactly one byte image
  // per partition.
  const uint32_t s = static_cast<uint32_t>(l.num_supernodes);
  std::vector<uint8_t> seen(l.num_nodes, 0);
  uint64_t distinct = 0;
  for (uint32_t a = 0; a < s; ++a) {
    if (l.member_begin[a + 1] > l.member_begin[a]) ++distinct;
    for (uint64_t i = l.member_begin[a]; i < l.member_begin[a + 1]; ++i) {
      const uint32_t u = l.members[i];
      if (l.node_to_super[u] != a) {
        return Corrupt(path, "node " + std::to_string(u) +
                                 " listed under supernode " +
                                 std::to_string(a) + " but labeled " +
                                 std::to_string(l.node_to_super[u]));
      }
      if (seen[u]) {
        return Corrupt(path, "node " + std::to_string(u) +
                                 " appears twice in the member lists");
      }
      seen[u] = 1;
      if (i > l.member_begin[a] && l.members[i - 1] >= u) {
        return Corrupt(path,
                       "section 3 (members): supernode " + std::to_string(a) +
                           "'s member list is not in ascending node order");
      }
    }
  }
  if (Status st = ValidateSummaryCounts(l.num_supernodes, distinct, path);
      !st) {
    return st;
  }
  if (Status st = CheckEdgeSymmetryAndCount(l, path); !st) return st;

  // Recompute derived sections 7, 9 and 10 with the exact arithmetic
  // SummaryView uses; a valid file matches bitwise (CheckEdgeSymmetryAndCount
  // pinned 8 and 11-13, which follow from the structure alone).
  for (uint32_t a = 0; a < s; ++a) {
    const double na =
        static_cast<double>(l.member_begin[a + 1] - l.member_begin[a]);
    if (l.member_count[a] != na) {
      return Corrupt(path, SectionLabel(9) + ": supernode " +
                               std::to_string(a) + " stores " +
                               std::to_string(l.member_count[a]) +
                               " but its member range holds " +
                               std::to_string(na));
    }
    double deg_w = 0.0;
    for (uint64_t i = l.edge_begin[a]; i < l.edge_begin[a + 1]; ++i) {
      const uint32_t b = l.edge_dst[i];
      const double nb = static_cast<double>(l.member_begin[b + 1] -
                                            l.member_begin[b]);
      const double pairs = b == a ? na * (na - 1.0) / 2.0 : na * nb;
      const double d =
          pairs <= 0.0
              ? 0.0
              : std::min(1.0, static_cast<double>(l.edge_weight[i]) / pairs);
      const double cnt = b == a ? na - 1.0 : nb;
      deg_w += d * cnt;
      if (l.edge_density_w[i] != d) {
        return Corrupt(path, SectionLabel(7) + ": slot " + std::to_string(i) +
                                 " does not match the recomputed density");
      }
    }
    if (l.member_deg_w[a] != deg_w) {
      return Corrupt(path, SectionLabel(10) + ": supernode " +
                               std::to_string(a) +
                               " does not match the recomputed degree");
    }
  }
  return Status::Ok();
}

}  // namespace pegasus
