#include "obs/request_context.h"

#include <string>

#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace cactis::obs {

thread_local RequestContext RequestScope::current_ctx_{};
thread_local StatementCost* RequestScope::current_cost_ = nullptr;

void StatementCost::WriteFields(JsonWriter* w) const {
  for (const CostField& f : kCostFields) w->Key(f.name).Uint(this->*f.member);
  w->Key("snapshot_path").Bool(snapshot_path);
}

void CostTotals::WriteFields(JsonWriter* w) const {
  for (size_t i = 0; i < std::size(kCostFields); ++i) {
    w->Key(kCostFields[i].name)
        .Uint(totals_[i].load(std::memory_order_relaxed));
  }
}

void CostTotals::ExportTo(MetricsGroup* g) const {
  for (size_t i = 0; i < std::size(kCostFields); ++i) {
    g->AddCounter(std::string("cost_") + kCostFields[i].name,
                  totals_[i].load(std::memory_order_relaxed));
  }
}

}  // namespace cactis::obs
