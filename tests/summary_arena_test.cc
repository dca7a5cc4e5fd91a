// SummaryArena tests: the mmap serving path answers every query family
// byte-identically to a freshly built view (the cross-stdlib goldens pin
// both), the heap-decode fallback for compact files gives the same
// answers, the arrays are bit-for-bit the built view's arrays, Map's
// structural, edge-invariant and per-row statistics checks reject
// damaged files on either backing, and Map skips checksums.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/binary_summary_io.h"
#include "src/core/pegasus.h"
#include "src/core/psb_format.h"
#include "src/core/summary_arena.h"
#include "src/query/query_engine.h"
#include "src/query/summary_view.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Writes the golden summary as a PSB1 file and returns the built view it
// was written from, for side-by-side comparison with the arena.
std::unique_ptr<SummaryView> WriteGoldenPsb(const std::string& path,
                                            bool compact) {
  const Graph g = ::pegasus::testing::QueryGoldenGraph();
  const SummaryGraph summary = ::pegasus::testing::QueryGoldenSummary(g);
  auto view = std::make_unique<SummaryView>(summary);
  PsbWriteOptions opts;
  opts.compact = compact;
  EXPECT_TRUE(SaveSummaryBinary(view->layout(), path, opts));
  return view;
}

void ExpectGoldenAnswers(const SummaryView& view) {
  for (const auto& c : ::pegasus::testing::QueryGoldenCases()) {
    auto canon = CanonicalizeRequest(c.request, view.num_nodes());
    ASSERT_TRUE(canon.ok()) << c.name;
    const uint64_t got =
        ::pegasus::testing::HashQueryResult(AnswerQuery(view, *canon));
    EXPECT_EQ(got, c.hash) << c.name;
  }
}

TEST(SummaryArenaTest, MappedViewMatchesCrossStdlibGoldens) {
  const std::string path = TempPath("golden.psb");
  WriteGoldenPsb(path, /*compact=*/false);
  auto arena = SummaryArena::Map(path);
  ASSERT_TRUE(arena.has_value()) << arena.status().ToString();
  if constexpr (std::endian::native == std::endian::little) {
    EXPECT_TRUE((*arena)->mapped());
  }
  const SummaryView view(*arena);
  EXPECT_NE(view.arena(), nullptr);
  ExpectGoldenAnswers(view);
  std::remove(path.c_str());
}

TEST(SummaryArenaTest, CompactFileDecodesToSameAnswers) {
  // Varint/delta sections cannot be served in place; Map falls back to
  // the heap decoder and the answers are still byte-identical.
  const std::string path = TempPath("golden_compact.psb");
  WriteGoldenPsb(path, /*compact=*/true);
  auto arena = SummaryArena::Map(path);
  ASSERT_TRUE(arena.has_value()) << arena.status().ToString();
  EXPECT_FALSE((*arena)->mapped());
  const SummaryView view(*arena);
  ExpectGoldenAnswers(view);
  std::remove(path.c_str());
}

TEST(SummaryArenaTest, ArenaArraysAreBitIdenticalToBuiltView) {
  const std::string path = TempPath("identity.psb");
  auto built = WriteGoldenPsb(path, /*compact=*/false);
  auto arena = SummaryArena::Map(path);
  ASSERT_TRUE(arena.has_value()) << arena.status().ToString();
  const SummaryLayout& a = built->layout();
  const SummaryLayout& b = (*arena)->layout();
  ASSERT_EQ(a.num_nodes, b.num_nodes);
  ASSERT_EQ(a.num_supernodes, b.num_supernodes);
  ASSERT_EQ(a.num_superedges, b.num_superedges);
  ASSERT_EQ(a.num_edge_slots, b.num_edge_slots);
  const uint64_t v = a.num_nodes, s = a.num_supernodes, e = a.num_edge_slots;
  EXPECT_EQ(std::memcmp(a.node_to_super, b.node_to_super, v * 4), 0);
  EXPECT_EQ(std::memcmp(a.member_begin, b.member_begin, (s + 1) * 8), 0);
  EXPECT_EQ(std::memcmp(a.members, b.members, v * 4), 0);
  EXPECT_EQ(std::memcmp(a.edge_begin, b.edge_begin, (s + 1) * 8), 0);
  EXPECT_EQ(std::memcmp(a.edge_dst, b.edge_dst, e * 4), 0);
  EXPECT_EQ(std::memcmp(a.edge_weight, b.edge_weight, e * 4), 0);
  EXPECT_EQ(std::memcmp(a.edge_density_w, b.edge_density_w, e * 8), 0);
  EXPECT_EQ(std::memcmp(a.edge_density_uw, b.edge_density_uw, e * 8), 0);
  EXPECT_EQ(std::memcmp(a.member_count, b.member_count, s * 8), 0);
  EXPECT_EQ(std::memcmp(a.member_deg_w, b.member_deg_w, s * 8), 0);
  EXPECT_EQ(std::memcmp(a.member_deg_uw, b.member_deg_uw, s * 8), 0);
  EXPECT_EQ(std::memcmp(a.self_density_w, b.self_density_w, s * 8), 0);
  EXPECT_EQ(std::memcmp(a.self_density_uw, b.self_density_uw, s * 8), 0);
  std::remove(path.c_str());
}

TEST(SummaryArenaTest, ViewKeepsArenaAlive) {
  const std::string path = TempPath("alive.psb");
  WriteGoldenPsb(path, /*compact=*/false);
  std::unique_ptr<SummaryView> view;
  {
    auto arena = SummaryArena::Map(path);
    ASSERT_TRUE(arena.has_value());
    view = std::make_unique<SummaryView>(*std::move(arena));
  }
  // The local shared_ptr is gone; the view's reference must keep the
  // mapping valid (this would crash under ASAN/MSAN otherwise).
  ExpectGoldenAnswers(*view);
  std::remove(path.c_str());
}

TEST(SummaryArenaTest, MapSkipsChecksums) {
  // Flip one byte inside member_deg_w: a derived statistics section no
  // structural check reads, so only its checksum could catch the flip.
  // Map does not verify checksums (instant restart) and accepts the
  // file; LoadSummaryBinary and `pegasus view --validate` are the
  // checksum path (binary_summary_io_test pins that they name the
  // section).
  const std::string path = TempPath("flip.psb");
  WriteGoldenPsb(path, /*compact=*/false);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.has_value());
  auto header = psb::ParsePsbHeader(bytes->data(), bytes->size(),
                                    bytes->size(), path);
  ASSERT_TRUE(header.has_value());
  const auto& degrees = header->sections[9];  // id 10, member_deg_w
  ASSERT_EQ(degrees.id, 10u);
  (*bytes)[degrees.offset + 1] ^= 0x01;
  WriteBytes(path, *bytes);

  auto arena = SummaryArena::Map(path);
  EXPECT_TRUE(arena.has_value()) << arena.status().ToString();
  std::remove(path.c_str());
}

TEST(SummaryArenaTest, StructuralValidationRejectsBadArrays) {
  // An out-of-range supernode label slips past the (skipped) checksum
  // but must be stopped by the structural pass before it can crash a
  // query kernel.
  const std::string path = TempPath("bad_label.psb");
  WriteGoldenPsb(path, /*compact=*/false);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.has_value());
  auto header = psb::ParsePsbHeader(bytes->data(), bytes->size(),
                                    bytes->size(), path);
  ASSERT_TRUE(header.has_value());
  const auto& labels = header->sections[0];  // id 1, node_to_super
  ASSERT_EQ(labels.id, 1u);
  for (size_t i = 0; i < 4; ++i) (*bytes)[labels.offset + i] = 0xff;
  WriteBytes(path, *bytes);

  auto arena = SummaryArena::Map(path);
  ASSERT_FALSE(arena.has_value());
  EXPECT_EQ(arena.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

// Writes `layout` (raw or compact), overwrites element `slot` of f64
// section `section_id` with `value`, and maps the result. Float sections
// are raw in both encodings, so the element sits at a fixed offset
// either way and both of Map's backings are exercised.
StatusOr<std::shared_ptr<const SummaryArena>> MapWithF64(
    const std::string& path, const SummaryLayout& layout, bool compact,
    uint32_t section_id, uint64_t slot, double value) {
  PsbWriteOptions opts;
  opts.compact = compact;
  EXPECT_TRUE(SaveSummaryBinary(layout, path, opts));
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.has_value());
  auto header = psb::ParsePsbHeader(bytes->data(), bytes->size(),
                                    bytes->size(), path);
  EXPECT_TRUE(header.has_value());
  const auto& section = header->sections[section_id - 1];
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  for (int b = 0; b < 8; ++b) {
    (*bytes)[section.offset + slot * 8 + b] =
        static_cast<uint8_t>(bits >> (8 * b));
  }
  WriteBytes(path, *bytes);
  return SummaryArena::Map(path);
}

void ExpectRejectedNaming(
    const StatusOr<std::shared_ptr<const SummaryArena>>& arena,
    const std::string& section) {
  ASSERT_FALSE(arena.has_value()) << "accepted; expected " << section;
  EXPECT_EQ(arena.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(arena.status().ToString().find(section), std::string::npos)
      << arena.status().ToString();
}

TEST(SummaryArenaTest, MapRejectsAsymmetricEdgeDensity) {
  // One cross slot's weighted density no longer equals its reverse
  // slot's. The fused RWR/PageRank sweeps gather where the reference
  // scatters, so they would answer differently: Map must refuse it.
  const Graph g = ::pegasus::testing::QueryGoldenGraph();
  const SummaryView built(::pegasus::testing::QueryGoldenSummary(g));
  const SummaryLayout& l = built.layout();
  uint64_t slot = l.num_edge_slots;  // the first cross slot
  for (uint32_t a = 0; a < l.num_supernodes && slot == l.num_edge_slots;
       ++a) {
    for (uint64_t i = l.edge_begin[a]; i < l.edge_begin[a + 1]; ++i) {
      if (l.edge_dst[i] != a) {
        slot = i;
        break;
      }
    }
  }
  ASSERT_LT(slot, l.num_edge_slots) << "fixture has no cross superedge";
  const double perturbed = l.edge_density_w[slot] * 0.5;
  for (bool compact : {false, true}) {
    SCOPED_TRACE(compact ? "compact" : "raw");
    const std::string path = TempPath("asym_density.psb");
    ExpectRejectedNaming(MapWithF64(path, l, compact, 7, slot, perturbed),
                         "edge_density_w");
    std::remove(path.c_str());
  }
}

TEST(SummaryArenaTest, MapRejectsNonUnitUnweightedDensity) {
  // The unweighted kernels drop the `* 1.0`; a density of 0.5 would make
  // them disagree with the reference sweep.
  const Graph g = ::pegasus::testing::QueryGoldenGraph();
  const SummaryView built(::pegasus::testing::QueryGoldenSummary(g));
  for (bool compact : {false, true}) {
    SCOPED_TRACE(compact ? "compact" : "raw");
    const std::string path = TempPath("uw_density.psb");
    ExpectRejectedNaming(MapWithF64(path, built.layout(), compact, 8, 0, 0.5),
                         "edge_density_uw");
    ExpectRejectedNaming(MapWithF64(path, built.layout(), compact, 13, 0, 0.5),
                         "self_density_uw");
    std::remove(path.c_str());
  }
}

// --- Per-row statistics tied to the row's slots ----------------------------
//
// Two supernodes: kSelfRow = {0, 1, 2} with a self superedge of weight 3
// (self densities 1.0, unweighted member degree 2) and kBareRow = {3},
// which has no superedge. The kernels read a row's self densities and
// member degrees next to its slots, so Map must refuse a file where they
// disagree. Each rule is checked on both backings, after checking that
// the unedited file maps.
constexpr uint32_t kSelfRow = 0;
constexpr uint32_t kBareRow = 1;

void ExpectRowEditRejected(uint32_t section_id, uint32_t row, double value,
                           const std::string& section) {
  const Graph empty(std::vector<EdgeId>(5, 0), {});
  SummaryGraph summary = SummaryGraph::FromPartition(empty, {0, 0, 0, 1});
  summary.SetSuperedge(summary.supernode_of(0), summary.supernode_of(0), 3);
  const SummaryView built(summary);
  ASSERT_EQ(built.supernode_of(0), kSelfRow);
  ASSERT_EQ(built.supernode_of(3), kBareRow);
  for (bool compact : {false, true}) {
    SCOPED_TRACE(section + (compact ? " compact" : " raw"));
    // ctest runs every test as its own process: one file per edit.
    const std::string path = TempPath("row_" + section + "_" +
                                      std::to_string(row) + ".psb");
    PsbWriteOptions opts;
    opts.compact = compact;
    ASSERT_TRUE(SaveSummaryBinary(built.layout(), path, opts));
    const auto unedited = SummaryArena::Map(path);
    EXPECT_TRUE(unedited.has_value()) << unedited.status().ToString();
    ExpectRejectedNaming(
        MapWithF64(path, built.layout(), compact, section_id, row, value),
        section);
    std::remove(path.c_str());
  }
}

TEST(SummaryArenaTest, MapRejectsSelfDensityOffItsSelfSlot) {
  // self_density_w bitwise equals the self slot's density, or is 0.0
  // when the row has no self slot.
  ExpectRowEditRejected(12, kSelfRow, 0.5, "self_density_w");
  ExpectRowEditRejected(12, kBareRow, 0.5, "self_density_w");
}

TEST(SummaryArenaTest, MapRejectsUnweightedSelfDensityOffItsSelfSlot) {
  // self_density_uw is 1.0 iff the row has a self slot.
  ExpectRowEditRejected(13, kSelfRow, 0.0, "self_density_uw");
  ExpectRowEditRejected(13, kBareRow, 1.0, "self_density_uw");
}

TEST(SummaryArenaTest, MapRejectsUnweightedDegreeOffItsSlots) {
  // member_deg_uw is the exact sum of cnt over the row's slots.
  ExpectRowEditRejected(11, kSelfRow, 3.0, "member_deg_uw");
  ExpectRowEditRejected(11, kBareRow, 1.0, "member_deg_uw");
}

TEST(SummaryArenaTest, MapRejectsWeightedDegreeWithoutSlots) {
  // member_deg_w is 0.0 on a row with no slot (MapSkipsChecksums pins
  // that it is not checked on a row with slots).
  ExpectRowEditRejected(10, kBareRow, 1.0, "member_deg_w");
}

TEST(SummaryArenaTest, MapRejectsMissingAndTruncatedFiles) {
  EXPECT_EQ(SummaryArena::Map("/no/such/file.psb").status().code(),
            StatusCode::kNotFound);

  const std::string path = TempPath("trunc.psb");
  WriteGoldenPsb(path, /*compact=*/false);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.has_value());
  bytes->resize(bytes->size() / 2);
  WriteBytes(path, *bytes);
  const auto arena = SummaryArena::Map(path);
  ASSERT_FALSE(arena.has_value());
  EXPECT_EQ(arena.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(SummaryArenaTest, HeaderCountsMatchTheView) {
  const std::string path = TempPath("counts.psb");
  auto built = WriteGoldenPsb(path, /*compact=*/false);
  auto arena = SummaryArena::Map(path);
  ASSERT_TRUE(arena.has_value());
  const psb::PsbHeader& h = (*arena)->header();
  EXPECT_EQ(h.num_nodes, built->layout().num_nodes);
  EXPECT_EQ(h.num_supernodes, built->layout().num_supernodes);
  EXPECT_EQ(h.num_superedges, built->layout().num_superedges);
  EXPECT_EQ(h.num_edge_slots, built->layout().num_edge_slots);
  EXPECT_EQ((*arena)->path(), path);

  const SummaryView view(*arena);
  EXPECT_EQ(view.num_nodes(), built->num_nodes());
  EXPECT_EQ(view.num_supernodes(), built->num_supernodes());
  EXPECT_EQ(view.num_superedges(), built->num_superedges());
  EXPECT_EQ(view.num_edge_slots(), built->num_edge_slots());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pegasus
