#include "ivy/trace/trace.h"

#include <iterator>

namespace ivy::trace {

namespace {

/// What the exporters know of each kind, index-aligned with EventKind:
/// its name, its lane, and its argument names ("" = omit).
struct KindInfo {
  const char* name;
  Category cat;
  const char* arg0;
  const char* arg1;
};

using C = Category;
constexpr KindInfo kKinds[] = {
    {"read_fault", C::kFault, "page", "hops"},
    {"write_fault", C::kFault, "page", "hops"},
    {"disk_fault", C::kFault, "page", ""},
    {"invalidate_round", C::kCoherence, "page", "copies"},
    {"invalidated", C::kCoherence, "page", "new_owner"},
    {"ownership_gained", C::kCoherence, "page", "from"},
    {"ownership_transfer", C::kCoherence, "page", "to"},
    {"page_sent", C::kCoherence, "page", "to"},
    {"forward", C::kCoherence, "page", "origin"},
    {"msg_send", C::kNet, "msg_kind", "dst"},
    {"retransmit", C::kNet, "msg_kind", "dst"},
    {"remote_op", C::kNet, "msg_kind", "dst"},
    {"fault_injected", C::kNet, "msg_kind", "fault_type"},
    {"msg_corrupted", C::kNet, "msg_kind", "src"},
    {"rpc_backoff", C::kNet, "rpc_id", "attempt"},
    {"rpc_failed", C::kNet, "rpc_id", "dst"},
    {"rpc_request", C::kNet, "rpc_id", "dst"},
    {"rpc_reply_sent", C::kNet, "rpc_id", "requester"},
    {"rpc_orphan", C::kNet, "rpc_id", "server"},
    {"rpc_cancel", C::kNet, "rpc_id", ""},
    {"disk_read", C::kDisk, "page", ""},
    {"disk_write", C::kDisk, "page", ""},
    {"eviction", C::kDisk, "page", ""},
    {"proc_spawn", C::kSched, "proc", ""},
    {"proc_finish", C::kSched, "proc", ""},
    {"migrate_out", C::kSched, "proc", "to"},
    {"migrate_in", C::kSched, "proc", "from"},
    {"lock_wait", C::kSync, "page", ""},
    {"ec_wait", C::kSync, "page", ""},
    {"ec_advance", C::kSync, "page", "value"},
};
static_assert(std::size(kKinds) == kEventKindCount);

/// The row of `kind`, or nullptr for the sentinel.
const KindInfo* info(EventKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kKinds) ? &kKinds[i] : nullptr;
}

}  // namespace

const char* to_string(EventKind kind) {
  const KindInfo* k = info(kind);
  return k != nullptr ? k->name : "?";
}

const char* to_string(Category cat) {
  switch (cat) {
    case Category::kFault: return "fault";
    case Category::kCoherence: return "coherence";
    case Category::kNet: return "net";
    case Category::kDisk: return "disk";
    case Category::kSched: return "sched";
    case Category::kSync: return "sync";
    case Category::kCount: break;
  }
  return "?";
}

Category category_of(EventKind kind) {
  const KindInfo* k = info(kind);
  return k != nullptr ? k->cat : Category::kCount;
}

const char* arg0_name(EventKind kind) {
  const KindInfo* k = info(kind);
  return k != nullptr ? k->arg0 : "arg0";
}

const char* arg1_name(EventKind kind) {
  const KindInfo* k = info(kind);
  return k != nullptr ? k->arg1 : "";
}

}  // namespace ivy::trace
