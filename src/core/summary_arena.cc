#include "src/core/summary_arena.h"

#include <bit>
#include <utility>

#include "src/core/binary_summary_io.h"

#ifndef _WIN32
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define PEGASUS_HAVE_MMAP 1
#else
#define PEGASUS_HAVE_MMAP 0
#endif

namespace pegasus {

namespace {

bool AllSectionsRaw(const psb::PsbHeader& header) {
  for (const psb::SectionEntry& s : header.sections) {
    if (s.encoding != static_cast<uint32_t>(psb::SectionEncoding::kRaw)) {
      return false;
    }
  }
  return true;
}

// Points the layout arrays into a raw-encoded little-endian file image.
// Valid only when AllSectionsRaw() and the host is little-endian: the
// bytes on disk ARE the in-memory arrays.
SummaryLayout LayoutOverImage(const uint8_t* base,
                              const psb::PsbHeader& header) {
  SummaryLayout l;
  l.num_nodes = header.num_nodes;
  l.num_supernodes = header.num_supernodes;
  l.num_superedges = header.num_superedges;
  l.num_edge_slots = header.num_edge_slots;
  const auto At = [&](psb::SectionId id) {
    return base + header.sections[static_cast<uint32_t>(id) - 1].offset;
  };
  l.node_to_super =
      reinterpret_cast<const uint32_t*>(At(psb::SectionId::kNodeToSuper));
  l.member_begin =
      reinterpret_cast<const uint64_t*>(At(psb::SectionId::kMemberBegin));
  l.members = reinterpret_cast<const uint32_t*>(At(psb::SectionId::kMembers));
  l.edge_begin =
      reinterpret_cast<const uint64_t*>(At(psb::SectionId::kEdgeBegin));
  l.edge_dst = reinterpret_cast<const uint32_t*>(At(psb::SectionId::kEdgeDst));
  l.edge_weight =
      reinterpret_cast<const uint32_t*>(At(psb::SectionId::kEdgeWeight));
  l.edge_density_w =
      reinterpret_cast<const double*>(At(psb::SectionId::kEdgeDensityW));
  l.edge_density_uw =
      reinterpret_cast<const double*>(At(psb::SectionId::kEdgeDensityUw));
  l.member_count =
      reinterpret_cast<const double*>(At(psb::SectionId::kMemberCount));
  l.member_deg_w =
      reinterpret_cast<const double*>(At(psb::SectionId::kMemberDegW));
  l.member_deg_uw =
      reinterpret_cast<const double*>(At(psb::SectionId::kMemberDegUw));
  l.self_density_w =
      reinterpret_cast<const double*>(At(psb::SectionId::kSelfDensityW));
  l.self_density_uw =
      reinterpret_cast<const double*>(At(psb::SectionId::kSelfDensityUw));
  return l;
}

}  // namespace

SummaryArena::~SummaryArena() {
#if PEGASUS_HAVE_MMAP
  if (map_base_ != nullptr) munmap(map_base_, map_size_);
#endif
}

StatusOr<std::shared_ptr<const SummaryArena>> SummaryArena::Map(
    const std::string& path) {
  // shared_ptr with access to the private ctor.
  std::shared_ptr<SummaryArena> arena(new SummaryArena());
  arena->path_ = path;

#if PEGASUS_HAVE_MMAP
  if constexpr (std::endian::native == std::endian::little) {
    const int fd = open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      struct stat st;
      if (fstat(fd, &st) == 0 && st.st_size >= 0) {
        const size_t size = static_cast<size_t>(st.st_size);
        void* base = size == 0 ? MAP_FAILED
                               : mmap(nullptr, size, PROT_READ, MAP_SHARED,
                                      fd, 0);
        if (base != MAP_FAILED) {
          // The fd can be closed once mapped; the mapping persists.
          close(fd);
          auto header = psb::ParsePsbHeader(
              static_cast<const uint8_t*>(base), size, size, path);
          if (!header) {
            munmap(base, size);
            return header.status();
          }
          if (AllSectionsRaw(*header)) {
            arena->map_base_ = base;
            arena->map_size_ = size;
            arena->header_ = *std::move(header);
            arena->layout_ = LayoutOverImage(static_cast<const uint8_t*>(base),
                                             arena->header_);
          } else {
            // Compact sections: fall through to the heap decoder (which
            // re-reads the file; simpler than decoding out of the map and
            // this path is not the serving fast path).
            munmap(base, size);
          }
        } else {
          close(fd);
        }
      } else {
        close(fd);
      }
    }
  }
#endif

  if (!arena->mapped()) {
    // Read + byte-wise decode into owned arrays. Taken for compact files,
    // big-endian hosts, and any mmap/open failure (the decoder re-reports
    // open failures as kNotFound with the real errno context lost, which
    // matches the text loader's behavior).
    auto bytes = ReadFileBytes(path);
    if (!bytes) return bytes.status();
    auto decoded = psb::DecodePsb(bytes->data(), bytes->size(), path,
                                  /*verify_checksums=*/false);
    if (!decoded) return decoded.status();
    arena->decoded_ = std::make_unique<psb::PsbDecoded>(*std::move(decoded));
    arena->header_ = arena->decoded_->header;
    arena->layout_ = arena->decoded_->layout();
  }

  // One validation tail for both backings. A file that fails it never
  // reaches a query kernel (the arena dtor unmaps on the error returns).
  if (Status st = CheckLayoutBounds(arena->layout_, path); !st) return st;
  if (Status st = CheckEdgeSymmetryAndCount(arena->layout_, path); !st) {
    return st;
  }
  arena->plan_ =
      std::make_shared<const KernelPlan>(KernelPlan::Build(arena->layout_));
  return std::shared_ptr<const SummaryArena>(std::move(arena));
}

}  // namespace pegasus
