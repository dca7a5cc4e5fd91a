// PSB1 container tests: round-trip byte stability, magic dispatch, the
// corruption matrix behind `pegasus view --validate` (every checksum
// failure names its section), header/count validation, and the byte-wise
// codecs that keep encode/decode correct on any host endianness.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "src/core/binary_summary_io.h"
#include "src/core/pegasus.h"
#include "src/core/psb_format.h"
#include "src/core/summary_io.h"
#include "src/query/summary_view.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {(std::istreambuf_iterator<char>(in)),
          std::istreambuf_iterator<char>()};
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// The golden summary written as a PSB1 file at `path`; returns the byte
// image for in-place tampering.
std::vector<uint8_t> GoldenPsb(const std::string& path, bool compact) {
  const Graph g = ::pegasus::testing::QueryGoldenGraph();
  const SummaryGraph summary = ::pegasus::testing::QueryGoldenSummary(g);
  const SummaryView view(summary);
  PsbWriteOptions opts;
  opts.compact = compact;
  EXPECT_TRUE(SaveSummaryBinary(view.layout(), path, opts));
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.has_value());
  return *std::move(bytes);
}

TEST(BinarySummaryIoTest, TextToBinaryToTextIsByteStable) {
  const Graph g = ::pegasus::testing::QueryGoldenGraph();
  const SummaryGraph summary = ::pegasus::testing::QueryGoldenSummary(g);
  const std::string text1 = TempPath("rt1.summary");
  const std::string text2 = TempPath("rt2.summary");
  const std::string psb = TempPath("rt.psb");
  ASSERT_TRUE(SaveSummary(summary, text1));

  for (bool compact : {false, true}) {
    auto loaded = LoadSummary(text1);
    ASSERT_TRUE(loaded.has_value());
    const SummaryView view(*loaded);
    PsbWriteOptions opts;
    opts.compact = compact;
    ASSERT_TRUE(SaveSummaryBinary(view.layout(), psb, opts));
    ASSERT_TRUE(SniffPsbMagic(psb));
    auto back = LoadSummaryBinary(psb);
    ASSERT_TRUE(back.has_value()) << back.status().ToString();
    ASSERT_TRUE(SaveSummary(*back, text2));
    EXPECT_EQ(FileBytes(text1), FileBytes(text2)) << "compact=" << compact;
    std::remove(text2.c_str());
  }
  std::remove(text1.c_str());
  std::remove(psb.c_str());
}

TEST(BinarySummaryIoTest, BinaryRoundTripIsByteStable) {
  // load(psb) -> save(psb) reproduces the raw file byte for byte, and a
  // compact file re-saved compact is byte-stable too.
  for (bool compact : {false, true}) {
    const std::string path1 = TempPath("bstable1.psb");
    const std::string path2 = TempPath("bstable2.psb");
    GoldenPsb(path1, compact);
    auto loaded = LoadSummaryBinary(path1);
    ASSERT_TRUE(loaded.has_value()) << loaded.status().ToString();
    const SummaryView view(*loaded);
    PsbWriteOptions opts;
    opts.compact = compact;
    ASSERT_TRUE(SaveSummaryBinary(view.layout(), path2, opts));
    EXPECT_EQ(FileBytes(path1), FileBytes(path2)) << "compact=" << compact;
    std::remove(path1.c_str());
    std::remove(path2.c_str());
  }
}

TEST(BinarySummaryIoTest, CompactIsSmallerAndEquivalent) {
  const std::string raw = TempPath("size_raw.psb");
  const std::string compact = TempPath("size_compact.psb");
  GoldenPsb(raw, /*compact=*/false);
  GoldenPsb(compact, /*compact=*/true);
  EXPECT_LT(FileBytes(compact).size(), FileBytes(raw).size());

  auto a = LoadSummaryBinary(raw);
  auto b = LoadSummaryBinary(compact);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->num_nodes(), b->num_nodes());
  EXPECT_EQ(a->num_supernodes(), b->num_supernodes());
  EXPECT_EQ(a->num_superedges(), b->num_superedges());
  std::remove(raw.c_str());
  std::remove(compact.c_str());
}

TEST(BinarySummaryIoTest, LoadSummaryDispatchesOnMagic) {
  // The text entry point serves .psb files transparently: same counts,
  // same answers, picked by the 4-byte magic (not the file name).
  const std::string psb = TempPath("dispatch.psb");
  GoldenPsb(psb, /*compact=*/false);
  auto via_text_api = LoadSummary(psb);
  ASSERT_TRUE(via_text_api.has_value()) << via_text_api.status().ToString();
  auto direct = LoadSummaryBinary(psb);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(via_text_api->num_nodes(), direct->num_nodes());
  EXPECT_EQ(via_text_api->num_supernodes(), direct->num_supernodes());
  EXPECT_EQ(via_text_api->num_superedges(), direct->num_superedges());
  std::remove(psb.c_str());
}

TEST(BinarySummaryIoTest, SniffRejectsTextAndMissingFiles) {
  const std::string text = TempPath("sniff.summary");
  {
    std::ofstream out(text);
    out << "PEGASUS-SUMMARY v1\n";
  }
  EXPECT_FALSE(SniffPsbMagic(text));
  EXPECT_FALSE(SniffPsbMagic("/no/such/file.psb"));
  std::remove(text.c_str());
}

TEST(BinarySummaryIoTest, ValidateAcceptsPristineFile) {
  for (bool compact : {false, true}) {
    const std::string path = TempPath("pristine.psb");
    const auto bytes = GoldenPsb(path, compact);
    const Status s = ValidatePsb(bytes.data(), bytes.size(), path);
    EXPECT_TRUE(s) << s.ToString();
    std::remove(path.c_str());
  }
}

TEST(BinarySummaryIoTest, BitFlipInAnySectionNamesThatSection) {
  // The corruption matrix: flip one payload byte per section; validation
  // must fail on the checksum and the message must name the section.
  const std::string path = TempPath("flip.psb");
  const auto pristine = GoldenPsb(path, /*compact=*/false);
  auto header =
      psb::ParsePsbHeader(pristine.data(), pristine.size(), pristine.size(),
                          path);
  ASSERT_TRUE(header.has_value());
  for (const auto& section : header->sections) {
    ASSERT_GT(section.length, 0u) << section.id;
    auto bytes = pristine;
    bytes[section.offset + section.length / 2] ^= 0x40;
    const Status s = ValidatePsb(bytes.data(), bytes.size(), path);
    ASSERT_FALSE(s) << "section " << section.id << " flip undetected";
    EXPECT_EQ(s.code(), StatusCode::kDataLoss);
    EXPECT_NE(s.ToString().find(psb::SectionName(section.id)),
              std::string::npos)
        << "message does not name section " << section.id << ": "
        << s.ToString();
  }
  std::remove(path.c_str());
}

TEST(BinarySummaryIoTest, LoadRejectsFlippedPayload) {
  // LoadSummaryBinary always verifies checksums, so the same flips fail
  // the loader too (not only the explicit validator).
  const std::string path = TempPath("flip_load.psb");
  const auto pristine = GoldenPsb(path, /*compact=*/false);
  auto header =
      psb::ParsePsbHeader(pristine.data(), pristine.size(), pristine.size(),
                          path);
  ASSERT_TRUE(header.has_value());
  // A structural section (edge_dst) and a float one (edge_density_w):
  // either way the checksum fails first and the message names the
  // section.
  for (const uint32_t id : {5u, 7u}) {
    auto bytes = pristine;
    const auto& section = header->sections[id - 1];
    ASSERT_EQ(section.id, id);
    bytes[section.offset + 1] ^= 0x01;
    WriteBytes(path, bytes);
    const auto loaded = LoadSummaryBinary(path);
    ASSERT_FALSE(loaded.has_value()) << psb::SectionName(id);
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(loaded.status().ToString().find(psb::SectionName(id)),
              std::string::npos)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(BinarySummaryIoTest, TruncationMatrix) {
  const std::string path = TempPath("trunc.psb");
  const auto pristine = GoldenPsb(path, /*compact=*/false);
  // Mid-magic, mid-header, mid-table, one byte short, and an empty file.
  for (size_t keep : {size_t{0}, size_t{3}, size_t{40},
                      psb::kTablePrefixBytes - 1, psb::kTablePrefixBytes,
                      pristine.size() - 1}) {
    std::vector<uint8_t> bytes(pristine.begin(), pristine.begin() + keep);
    const Status s = ValidatePsb(bytes.data(), bytes.size(), path);
    ASSERT_FALSE(s) << "accepted a " << keep << "-byte truncation";
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << keep;
    WriteBytes(path, bytes);
    EXPECT_FALSE(LoadSummaryBinary(path).has_value()) << keep;
  }
  std::remove(path.c_str());
}

TEST(BinarySummaryIoTest, RejectsTrailingBytes) {
  const std::string path = TempPath("trail.psb");
  auto bytes = GoldenPsb(path, /*compact=*/false);
  bytes.push_back(0);
  const Status s = ValidatePsb(bytes.data(), bytes.size(), path);
  EXPECT_FALSE(s);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(BinarySummaryIoTest, RejectsBadMagicVersionAndHeaderChecksum) {
  const std::string path = TempPath("header.psb");
  const auto pristine = GoldenPsb(path, /*compact=*/false);

  auto flipped = pristine;
  flipped[0] = 'X';  // magic
  EXPECT_FALSE(ValidatePsb(flipped.data(), flipped.size(), path));

  flipped = pristine;
  flipped[5] = psb::kPsbVersion + 1;  // unimplemented version
  const Status version = ValidatePsb(flipped.data(), flipped.size(), path);
  ASSERT_FALSE(version);
  EXPECT_NE(version.ToString().find("version"), std::string::npos)
      << version.ToString();

  flipped = pristine;
  flipped[48] ^= 0xff;  // header checksum field
  const Status checksum = ValidatePsb(flipped.data(), flipped.size(), path);
  ASSERT_FALSE(checksum);
  EXPECT_NE(checksum.ToString().find("checksum"), std::string::npos)
      << checksum.ToString();
  std::remove(path.c_str());
}

TEST(BinarySummaryIoTest, RejectsSupernodeCountMismatch) {
  // A structurally clean file whose header declares 2 supernodes while
  // the labels only ever use id 0: the shared count validation must fail
  // up front, naming both numbers.
  const uint32_t node_to_super[2] = {0, 0};
  const uint64_t member_begin[3] = {0, 2, 2};
  const uint32_t members[2] = {0, 1};
  const uint64_t edge_begin[3] = {0, 0, 0};
  const double member_count[2] = {2.0, 0.0};
  const double zeros[2] = {0.0, 0.0};

  SummaryLayout layout;
  layout.num_nodes = 2;
  layout.num_supernodes = 2;
  layout.num_superedges = 0;
  layout.num_edge_slots = 0;
  layout.node_to_super = node_to_super;
  layout.member_begin = member_begin;
  layout.members = members;
  layout.edge_begin = edge_begin;
  layout.edge_dst = nullptr;
  layout.edge_weight = nullptr;
  layout.edge_density_w = nullptr;
  layout.edge_density_uw = nullptr;
  layout.member_count = member_count;
  layout.member_deg_w = zeros;
  layout.member_deg_uw = zeros;
  layout.self_density_w = zeros;
  layout.self_density_uw = zeros;

  const std::string path = TempPath("count_mismatch.psb");
  ASSERT_TRUE(SaveSummaryBinary(layout, path));
  const auto loaded = LoadSummaryBinary(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  const std::string message = loaded.status().ToString();
  EXPECT_NE(message.find("2 supernodes"), std::string::npos) << message;
  EXPECT_NE(message.find("1 distinct"), std::string::npos) << message;
  std::remove(path.c_str());
}

TEST(BinarySummaryIoTest, LoadRejectsZeroWeightSuperedge) {
  // A symmetric, correctly counted superedge {0, 1} of weight 0: the
  // checksums hold, but SummaryGraph only stores weights >= 1, so the
  // loader must refuse it instead of building a summary from it.
  const uint32_t node_to_super[2] = {0, 1};
  const uint64_t member_begin[3] = {0, 1, 2};
  const uint32_t members[2] = {0, 1};
  const uint64_t edge_begin[3] = {0, 1, 2};
  const uint32_t edge_dst[2] = {1, 0};
  const uint32_t edge_weight[2] = {0, 0};
  const double ones[2] = {1.0, 1.0};
  const double zeros[2] = {0.0, 0.0};

  SummaryLayout layout;
  layout.num_nodes = 2;
  layout.num_supernodes = 2;
  layout.num_superedges = 1;
  layout.num_edge_slots = 2;
  layout.node_to_super = node_to_super;
  layout.member_begin = member_begin;
  layout.members = members;
  layout.edge_begin = edge_begin;
  layout.edge_dst = edge_dst;
  layout.edge_weight = edge_weight;
  layout.edge_density_w = zeros;
  layout.edge_density_uw = ones;
  layout.member_count = ones;
  layout.member_deg_w = zeros;
  layout.member_deg_uw = ones;
  layout.self_density_w = zeros;
  layout.self_density_uw = zeros;

  const std::string path = TempPath("zero_weight.psb");
  ASSERT_TRUE(SaveSummaryBinary(layout, path));
  const auto loaded = LoadSummaryBinary(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("weight 0"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(BinarySummaryIoTest, LoadRejectsMissingFile) {
  const auto s = LoadSummaryBinary("/no/such/file.psb");
  ASSERT_FALSE(s.has_value());
  EXPECT_EQ(s.status().code(), StatusCode::kNotFound);
}

// --- Byte-wise codecs -------------------------------------------------------
//
// The codecs are defined over explicit byte positions, never memcpy, so
// these fixed byte arrays pin the little-endian wire form on every host
// (a big-endian machine must produce/consume the same bytes).

TEST(PsbCodecTest, FixedPointU32U64) {
  const uint8_t u32_bytes[4] = {0x78, 0x56, 0x34, 0x12};
  EXPECT_EQ(psb::GetU32(u32_bytes), 0x12345678u);
  const uint8_t u64_bytes[8] = {0xf0, 0xde, 0xbc, 0x9a,
                                0x78, 0x56, 0x34, 0x12};
  EXPECT_EQ(psb::GetU64(u64_bytes), 0x123456789abcdef0ULL);

  std::string out;
  psb::PutU32(&out, 0x12345678u);
  psb::PutU64(&out, 0x123456789abcdef0ULL);
  ASSERT_EQ(out.size(), 12u);
  EXPECT_EQ(std::memcmp(out.data(), u32_bytes, 4), 0);
  EXPECT_EQ(std::memcmp(out.data() + 4, u64_bytes, 8), 0);
}

TEST(PsbCodecTest, VarintRoundTripAndWireForm) {
  // 300 = 0b100101100 -> low group 0x2c | 0x80, high group 0x02.
  std::string out;
  psb::PutVarint(&out, 300);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(static_cast<uint8_t>(out[0]), 0xacu);
  EXPECT_EQ(static_cast<uint8_t>(out[1]), 0x02u);

  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL, 16384ULL,
                     0xffffffffULL, 0xffffffffffffffffULL}) {
    std::string buf;
    psb::PutVarint(&buf, v);
    const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
    uint64_t decoded = 0;
    ASSERT_TRUE(psb::GetVarint(&p, p + buf.size(), &decoded)) << v;
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(p, reinterpret_cast<const uint8_t*>(buf.data()) + buf.size());
  }
}

TEST(PsbCodecTest, VarintRejectsTruncationAndOverlength) {
  const uint8_t truncated[2] = {0x80, 0x80};  // continuation, no terminator
  const uint8_t* p = truncated;
  uint64_t v = 0;
  EXPECT_FALSE(psb::GetVarint(&p, truncated + 2, &v));

  uint8_t overlong[11];
  for (auto& b : overlong) b = 0x80;
  overlong[10] = 0x01;  // 11 groups: one past the u64 maximum
  p = overlong;
  EXPECT_FALSE(psb::GetVarint(&p, overlong + 11, &v));
}

TEST(PsbCodecTest, ZigZag) {
  EXPECT_EQ(psb::ZigZagEncode(0), 0u);
  EXPECT_EQ(psb::ZigZagEncode(-1), 1u);
  EXPECT_EQ(psb::ZigZagEncode(1), 2u);
  EXPECT_EQ(psb::ZigZagEncode(-2), 3u);
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(psb::ZigZagDecode(psb::ZigZagEncode(v)), v);
  }
}

TEST(PsbCodecTest, Fnv1aMatchesReferenceVectors) {
  // Classic FNV-1a 64 test vectors.
  EXPECT_EQ(psb::Fnv1a(nullptr, 0), psb::kFnvOffset64);
  const uint8_t a[1] = {'a'};
  EXPECT_EQ(psb::Fnv1a(a, 1), 0xaf63dc4c8601ec8cULL);
  const uint8_t foobar[6] = {'f', 'o', 'o', 'b', 'a', 'r'};
  EXPECT_EQ(psb::Fnv1a(foobar, 6), 0x85944171f73967e8ULL);
}

TEST(PsbCodecTest, SectionNamesAndElementCounts) {
  EXPECT_STREQ(psb::SectionName(1), "node_to_super");
  EXPECT_STREQ(psb::SectionName(13), "self_density_uw");
  EXPECT_STREQ(psb::SectionName(0), "unknown");
  EXPECT_STREQ(psb::SectionName(14), "unknown");
  // V=10, S=4, E=6.
  EXPECT_EQ(psb::SectionElementCount(1, 10, 4, 6), 10u);  // node_to_super
  EXPECT_EQ(psb::SectionElementCount(2, 10, 4, 6), 5u);   // member_begin S+1
  EXPECT_EQ(psb::SectionElementCount(5, 10, 4, 6), 6u);   // edge_dst
  EXPECT_EQ(psb::SectionElementCount(9, 10, 4, 6), 4u);   // member_count
}

}  // namespace
}  // namespace pegasus
