#include "src/core/kernel_plan.h"

namespace pegasus {

KernelPlan KernelPlan::Build(const SummaryLayout& layout) {
  const uint32_t s = static_cast<uint32_t>(layout.num_supernodes);
  KernelPlan plan;
  plan.row_begin.resize(s + 1);
  plan.dst.reserve(layout.num_edge_slots);
  plan.den_w.reserve(layout.num_edge_slots);
  plan.self_split.assign(s, kNoSelf);
  plan.self_den_w.assign(s, 0.0);
  plan.self_rate_w.assign(s, 0.0);
  plan.self_rate_uw.assign(s, 0.0);

  plan.row_begin[0] = 0;
  for (uint32_t a = 0; a < s; ++a) {
    for (uint64_t i = layout.edge_begin[a]; i < layout.edge_begin[a + 1];
         ++i) {
      const uint32_t b = layout.edge_dst[i];
      if (b == a) {
        plan.self_split[a] =
            static_cast<uint32_t>(plan.dst.size() - plan.row_begin[a]);
        plan.self_den_w[a] = layout.edge_density_w[i];
        continue;
      }
      plan.dst.push_back(b);
      plan.den_w.push_back(layout.edge_density_w[i]);
    }
    plan.row_begin[a + 1] = plan.dst.size();

    // Hoist the reference kernels' per-sweep `sd / md` divisions; the
    // guard mirrors their `sd > 0 && md > 0` exactly (see summary_view).
    const double sd_w = layout.self_density_w[a];
    const double md_w = layout.member_deg_w[a];
    if (sd_w > 0.0 && md_w > 0.0) plan.self_rate_w[a] = sd_w / md_w;
    const double sd_uw = layout.self_density_uw[a];
    const double md_uw = layout.member_deg_uw[a];
    if (sd_uw > 0.0 && md_uw > 0.0) plan.self_rate_uw[a] = sd_uw / md_uw;
  }
  return plan;
}

}  // namespace pegasus
