#include "obs/request_context.h"

#include "obs/json_writer.h"

namespace cactis::obs {

thread_local RequestContext RequestScope::current_ctx_{};
thread_local StatementCost* RequestScope::current_cost_ = nullptr;

void StatementCost::WriteFields(JsonWriter* w) const {
  w->Key("blocks_read").Uint(blocks_read);
  w->Key("blocks_written").Uint(blocks_written);
  w->Key("cache_hits").Uint(cache_hits);
  w->Key("cache_misses").Uint(cache_misses);
  w->Key("attrs_reevaluated").Uint(attrs_reevaluated);
  w->Key("chunks_scheduled").Uint(chunks_scheduled);
  w->Key("wal_bytes").Uint(wal_bytes);
  w->Key("queue_wait_us").Uint(queue_wait_us);
  w->Key("lock_wait_shared_us").Uint(lock_wait_shared_us);
  w->Key("lock_wait_excl_us").Uint(lock_wait_excl_us);
  w->Key("exec_us").Uint(exec_us);
  w->Key("snapshot_path").Bool(snapshot_path);
}

std::string StatementCost::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  WriteFields(&w);
  w.EndObject();
  return w.str();
}

}  // namespace cactis::obs
