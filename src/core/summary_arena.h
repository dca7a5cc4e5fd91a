// SummaryArena — a PSB1 file as servable memory.
//
// The zero-parse serving path from ROADMAP item 3: because a raw-encoded
// PSB1 file is byte-for-byte the SummaryLayout arrays (docs/FORMAT.md),
// mapping the file read-only IS loading it — service restart cost is one
// mmap plus a linear structural check, independent of summary size, and
// replica processes on one box share the page cache copy.
//
// Map() picks the fastest safe backing automatically:
//
//   * mmap (PROT_READ, MAP_SHARED) when every section is raw-encoded and
//     the host is little-endian — layout() points straight into the
//     mapping (section offsets are 8-aligned, so the u64/f64 pointers are
//     properly aligned off the page-aligned base);
//   * heap decode otherwise (compact varint/delta sections, a big-endian
//     host, or an mmap failure) — the byte-wise decoder produces the same
//     arrays, just owned. mapped() tells you which path you got.
//
// Either backing then runs the same two linear passes before anything
// can query the arrays (docs/FORMAT.md, "Verification policy"):
// CheckLayoutBounds (CSR offsets, id ranges, strictly ascending rows,
// nonzero weights) and CheckEdgeSymmetryAndCount (every cross superedge
// stored from both endpoints with equal weight and weighted density,
// unweighted densities 1.0, unweighted self-densities 0.0 or 1.0, and
// the header's superedge count). A file that breaks one is kDataLoss
// here, so the fused kernels never see a layout they cannot serve.
// Checksums are not verified: the point of the arena is instant
// restart. LoadSummaryBinary and `pegasus view --validate` verify them.
//
// An arena is immutable and thread-safe after Map(). SummaryView holds a
// shared_ptr to the arena it was constructed over, which keeps the
// mapping alive for as long as any epoch still serves from it.

#ifndef PEGASUS_CORE_SUMMARY_ARENA_H_
#define PEGASUS_CORE_SUMMARY_ARENA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/kernel_plan.h"
#include "src/core/psb_format.h"
#include "src/core/summary_layout.h"
#include "src/util/status.h"

namespace pegasus {

class SummaryArena {
 public:
  // Maps (or decodes) the PSB1 file at `path` and runs the checks
  // described above. kNotFound if it cannot be opened, kDataLoss naming
  // the violation (and the section, where one array is at fault)
  // otherwise.
  [[nodiscard]] static StatusOr<std::shared_ptr<const SummaryArena>> Map(
      const std::string& path);

  ~SummaryArena();
  SummaryArena(const SummaryArena&) = delete;
  SummaryArena& operator=(const SummaryArena&) = delete;

  // The thirteen arrays + counts. Pointers are valid while the arena
  // lives; they alias the mapping when mapped(), owned vectors otherwise.
  const SummaryLayout& layout() const { return layout_; }

  // The parsed file header (counts, section table, checksums) — what
  // `pegasus view` prints.
  const psb::PsbHeader& header() const { return header_; }

  // True when serving straight from the mmap'd file image.
  bool mapped() const { return map_base_ != nullptr; }

  const std::string& path() const { return path_; }

  // Iterative-kernel transition arrays, derived once at attach time so
  // every SummaryView over this arena shares them (the one part of
  // serving state a mapped file cannot carry: docs/FORMAT.md stores the
  // thirteen layout arrays only). Always non-null after Map().
  const std::shared_ptr<const KernelPlan>& kernel_plan() const {
    return plan_;
  }

 private:
  SummaryArena() = default;

  std::string path_;
  psb::PsbHeader header_;
  SummaryLayout layout_;
  std::shared_ptr<const KernelPlan> plan_;

  // Exactly one backing is active: the mapping, or the decoded arrays.
  void* map_base_ = nullptr;
  size_t map_size_ = 0;
  std::unique_ptr<psb::PsbDecoded> decoded_;
};

}  // namespace pegasus

#endif  // PEGASUS_CORE_SUMMARY_ARENA_H_
