#include "src/core/kernel_plan.h"

#include <algorithm>

namespace pegasus {

KernelPlan KernelPlan::Build(const SummaryLayout& layout) {
  const uint32_t s = static_cast<uint32_t>(layout.num_supernodes);
  const uint64_t* eb = layout.edge_begin;
  KernelPlan plan;
  plan.self_rate_w.assign(s, 0.0);
  plan.self_rate_uw.assign(s, 0.0);

  for (uint32_t a = 0; a < s; ++a) {
    // Hoist the reference kernels' per-sweep `sd / md` divisions; the
    // guard mirrors their `sd > 0 && md > 0` exactly (see summary_view).
    const double sd_w = layout.self_density_w[a];
    const double md_w = layout.member_deg_w[a];
    if (sd_w > 0.0 && md_w > 0.0) plan.self_rate_w[a] = sd_w / md_w;
    const double sd_uw = layout.self_density_uw[a];
    const double md_uw = layout.member_deg_uw[a];
    if (sd_uw > 0.0 && md_uw > 0.0) plan.self_rate_uw[a] = sd_uw / md_uw;

    for (uint64_t i = eb[a]; i < eb[a + 1]; ++i) {
      if (layout.edge_dst[i] == a) plan.self_rows.push_back(a);
    }
    if (eb[a + 1] > eb[a]) plan.live_rows.push_back(a);
  }

  // Row order inside each window: slot count descending, then row id.
  // The key packs both so the default order is that total order.
  const auto count = [&](uint32_t row) {
    return row == s ? 0u : static_cast<uint32_t>(eb[row + 1] - eb[row]);
  };
  std::vector<uint64_t> keys(s);
  for (uint32_t a = 0; a < s; ++a) {
    keys[a] = (static_cast<uint64_t>(UINT32_MAX - count(a)) << 32) | a;
  }
  for (uint32_t lo = 0; lo < s; lo += kWindow) {
    const uint32_t hi = std::min(s, lo + kWindow);
    std::sort(keys.begin() + lo, keys.begin() + hi);
  }

  // Shape pass: lanes, widths, and which slices need densities.
  const uint32_t num_slices = (s + kLanes - 1) / kLanes;
  plan.row_begin.reserve(num_slices + 1);
  plan.den_begin.reserve(num_slices);
  plan.lane_row.reserve(static_cast<size_t>(num_slices) * kLanes);
  plan.row_begin.push_back(0);
  uint64_t den_size = 0;
  for (uint32_t lo = 0; lo < s; lo += kWindow) {
    const uint32_t hi = std::min(s, lo + kWindow);
    for (uint32_t first = lo; first < hi; first += kLanes) {
      bool unit = true;
      for (uint32_t l = 0; l < kLanes; ++l) {
        const uint32_t row =
            first + l < hi ? static_cast<uint32_t>(keys[first + l]) : s;
        plan.lane_row.push_back(row);
        if (row == s) continue;
        for (uint64_t i = eb[row]; i < eb[row + 1]; ++i) {
          if (layout.edge_density_w[i] != 1.0) unit = false;
        }
      }
      // The first lane holds the slice's longest row.
      const uint64_t slots =
          static_cast<uint64_t>(count(static_cast<uint32_t>(keys[first]))) *
          kLanes;
      plan.den_begin.push_back(unit ? kUnitSlice : den_size);
      if (!unit) den_size += slots;
      plan.row_begin.push_back(plan.row_begin.back() + slots);
    }
  }

  // Fill pass.
  plan.dst.resize(plan.row_begin.back());
  plan.den_w.resize(den_size);
  for (uint32_t k = 0; k < plan.num_slices(); ++k) {
    const uint32_t* rows = plan.lane_row.data() + k * kLanes;
    const uint64_t width = (plan.row_begin[k + 1] - plan.row_begin[k]) / kLanes;
    for (uint32_t l = 0; l < kLanes; ++l) {
      const uint32_t row = rows[l];
      for (uint64_t j = 0; j < width; ++j) {
        const uint64_t at = plan.row_begin[k] + j * kLanes + l;
        uint32_t x = s;  // pad column
        double den = 0.0;
        if (j < count(row)) {
          const uint64_t slot = eb[row] + j;
          x = layout.edge_dst[slot];
          if (x == row) {
            const auto self = std::lower_bound(plan.self_rows.begin(),
                                               plan.self_rows.end(), row);
            x = s + 1 +
                static_cast<uint32_t>(self - plan.self_rows.begin());
          }
          den = layout.edge_density_w[slot];
        }
        plan.dst[at] = x;
        if (plan.den_begin[k] != kUnitSlice) {
          plan.den_w[plan.den_begin[k] + (at - plan.row_begin[k])] = den;
        }
      }
    }
  }
  return plan;
}

}  // namespace pegasus
