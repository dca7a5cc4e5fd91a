// PSB1 save / load / inspect / validate.
//
// The high-level API over the PSB1 container (src/core/psb_format.h;
// normative spec in docs/FORMAT.md):
//
//   * SaveSummaryBinary writes the thirteen SummaryLayout arrays as a
//     PSB1 file — raw little-endian sections by default (the mmap-servable
//     image), or varint/delta-compressed integer sections with
//     `compact = true` for shipping.
//   * LoadSummaryBinary reconstructs a SummaryGraph (checksums verified,
//     structure validated) — the binary twin of LoadSummary; callers
//     normally go through LoadSummary, which dispatches here by magic.
//   * ValidatePsb is the deep check behind `pegasus view --validate`:
//     header + every section checksum + structural invariants + bitwise
//     recomputation of the derived statistics sections.
//
// The serving path does not go through SummaryGraph at all: it maps the
// file with SummaryArena (src/core/summary_arena.h) and constructs a
// SummaryView directly over the mapped arrays.

#ifndef PEGASUS_CORE_BINARY_SUMMARY_IO_H_
#define PEGASUS_CORE_BINARY_SUMMARY_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/psb_format.h"
#include "src/core/summary_graph.h"
#include "src/core/summary_layout.h"
#include "src/util/status.h"

namespace pegasus {

struct PsbWriteOptions {
  // When true, integer sections (1-6) are varint/delta encoded — smaller
  // on disk but not mmap-servable (SummaryArena heap-decodes them).
  // Float sections are always raw.
  bool compact = false;
};

// Writes `layout` as a PSB1 file at `path`. kDataLoss on I/O failure.
[[nodiscard]]
Status SaveSummaryBinary(const SummaryLayout& layout, const std::string& path,
                         const PsbWriteOptions& opts = {});

// Reads a PSB1 file back into a mutable SummaryGraph (full checksum
// verification + structural validation). kNotFound if the file cannot be
// opened, kDataLoss naming the violation otherwise.
[[nodiscard]] StatusOr<SummaryGraph> LoadSummaryBinary(const std::string& path);

// True if the file at `path` starts with the PSB1 magic. Non-existent or
// short files sniff false (the caller's loader will produce the real
// error).
bool SniffPsbMagic(const std::string& path);

// Reads a whole file into memory. kNotFound / kDataLoss.
[[nodiscard]]
StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

// Linear structural pass over decoded/mapped arrays: CSR offset arrays
// start at 0, ascend, and end at the declared totals; every stored id is
// in range; edge rows strictly ascend (the canonical order); weights are
// nonzero. SummaryArena::Map runs it, then CheckEdgeSymmetryAndCount,
// on every file it serves.
[[nodiscard]]
Status CheckLayoutBounds(const SummaryLayout& layout, const std::string& path);

// Linear pass over arrays that passed CheckLayoutBounds, enforcing the
// invariants the iterative kernels rely on: every cross superedge is
// stored from both endpoints with equal weight and equal weighted
// density (section 7), every unweighted density is 1.0 (section 8), the
// CSR matches the header (2·|P| = slots + self-loops), and each row's
// statistics match its slots: self densities come from the self slot,
// else are 0.0 (sections 12, 13); the unweighted member degree is the
// exact Σ cnt (section 11); a slotless row has weighted degree 0.0
// (section 10). kDataLoss naming the violation.
[[nodiscard]]
Status CheckEdgeSymmetryAndCount(const SummaryLayout& layout,
                                 const std::string& path);

// Shared header/body count validation (text and binary loaders): every
// supernode id in [0, declared_supernodes) must be used by at least one
// label, i.e. the declared count must equal the number of distinct labels.
// kDataLoss naming both numbers otherwise. Labels themselves must already
// be < declared_supernodes.
[[nodiscard]] Status ValidateSummaryCounts(uint64_t declared_supernodes,
                             uint64_t distinct_labels,
                             const std::string& path);

// Deep validation of a PSB1 byte image, in order: header + section table
// (ParsePsbHeader), every section checksum (failures name the section),
// zero inter-section padding, decode, CheckLayoutBounds, member lists
// grouped consistently with node_to_super (each node exactly once, in its
// own supernode's range, ascending within it), CheckEdgeSymmetryAndCount,
// and bitwise recomputation from the structural sections of what that
// check leaves open: the member counts, the weighted densities and the
// weighted member degrees (sections 7, 9, 10).
[[nodiscard]]
Status ValidatePsb(const uint8_t* data, size_t size, const std::string& path);

}  // namespace pegasus

#endif  // PEGASUS_CORE_BINARY_SUMMARY_IO_H_
