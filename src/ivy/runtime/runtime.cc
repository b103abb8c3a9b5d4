#include "ivy/runtime/runtime.h"

#include <cstring>
#include <fstream>
#include <utility>

#include "ivy/base/log.h"
#include "ivy/trace/chrome_trace.h"
#include "ivy/trace/metrics.h"

namespace ivy::runtime {
namespace {

/// Node appointed centralized memory manager: "the processor with which
/// the user directly contacts" — node 0.
constexpr NodeId kAllocNode = 0;

svm::SvmOptions svm_options(const Config& cfg, svm::EventSink* sink) {
  svm::SvmOptions opts;
  opts.sink = sink;
  opts.geo = cfg.geometry();
  opts.manager = cfg.manager;
  opts.manager_node = cfg.manager_node;
  opts.initial_owner = cfg.initial_owner;
  opts.frames_per_node = cfg.frames_per_node;
  opts.replacement = cfg.replacement;
  opts.seed = cfg.seed;
  opts.broadcast_invalidation = cfg.broadcast_invalidation;
  opts.distributed_copysets = cfg.distributed_copysets;
  opts.disk_io_stalls_node = cfg.disk_io_stalls_node;
  return opts;
}

}  // namespace

Runtime::NodeCtx::NodeCtx(Runtime& rt, NodeId id)
    : rpc(rt.sim_, rt.ring_, rt.stats_, id),
      svm(rt.sim_, rpc, rt.stats_, id, rt.cfg_.nodes,
          svm_options(rt.cfg_, rt.oracle_.get())),
      sched(rt.sim_, rpc, svm, rt.stats_, id, rt.cfg_.sched, rt.live_,
            // Stack regions live above the heap, one slice per node.
            static_cast<SvmAddr>(rt.cfg_.heap_pages +
                                 static_cast<SvmAddr>(id) *
                                     rt.cfg_.stack_region_pages) *
                rt.cfg_.page_size,
            rt.cfg_.stack_region_pages),
      central(sched, kAllocNode, 0,
              static_cast<SvmAddr>(rt.cfg_.heap_pages) * rt.cfg_.page_size) {}

Runtime::Runtime(Config cfg)
    : cfg_(std::move(cfg)),
      sim_(cfg_.costs),
      stats_((cfg_.validate(), cfg_.nodes)),
      ring_(sim_, stats_, cfg_.nodes) {
  if (cfg_.trace_enabled) enable_tracing(cfg_.trace_capacity);
  if (cfg_.prof_enabled) {
    prof_ = std::make_unique<prof::Profiler>(cfg_.nodes, cfg_.prof_slice);
    // Like the tracer: hanging the profiler off Stats gives every emit
    // point a single-branch disabled fast path.
    stats_.set_prof(prof_.get());
  }
  if (cfg_.oracle_mode != oracle::Mode::kOff) {
    oracle_ = std::make_unique<oracle::Oracle>(
        cfg_.oracle_mode, cfg_.nodes, cfg_.geometry().num_pages,
        cfg_.initial_owner);
    oracle_->set_clock([this] { return sim_.now(); });
  }
  if (cfg_.fault.active()) {
    fault_plane_ = std::make_unique<fault::FaultPlane>(
        cfg_.fault, cfg_.fault_seed, stats_, [this] { return sim_.now(); });
    ring_.set_fault_hook(fault_plane_.get());
  }
  nodes_.reserve(cfg_.nodes);
  for (NodeId n = 0; n < cfg_.nodes; ++n) {
    nodes_.push_back(std::make_unique<NodeCtx>(*this, n));
    proc::Scheduler& sched = nodes_.back()->sched;
    rpc::RemoteOp& rpc = nodes_.back()->rpc;
    rpc.set_request_timeout(cfg_.rpc_request_timeout);
    rpc.set_check_interval(cfg_.rpc_check_interval);
    rpc.set_max_retransmits(cfg_.rpc_max_retransmits);
    // A terminal rpc failure means the protocol could not recover (e.g. a
    // peer stayed partitioned past the whole backoff schedule).  There is
    // no application-level story for a lost coherence operation, so dump
    // and abort rather than compute wrong answers.
    rpc.set_failure_handler([this, n](const rpc::RequestFailure& f) {
      IVY_WARN() << "stranded machine state:\n" << dump_state();
      IVY_CHECK_MSG(false, "node " << n << " gave up on rpc " << f.rpc_id
                                   << " (" << net::to_string(f.kind)
                                   << ") after " << f.attempts
                                   << " attempts — unrecoverable fault load");
    });
    nodes_.back()->svm.set_stall_hook([&sched](Time t) { sched.stall(t); });
    if (oracle_) oracle_->attach(&nodes_.back()->svm);
  }
  if (cfg_.two_level_alloc) {
    for (auto& node : nodes_) {
      // Each processor gets its own binary allocator lock in SVM.
      node->two_level.emplace(node->sched, node->central, cfg_.chunk_bytes,
                              create_lock());
    }
  }
}

Runtime::~Runtime() = default;

SvmAddr Runtime::alloc_raw(std::size_t bytes) {
  const SvmAddr addr = node_of(kAllocNode).central.host_allocate(bytes);
  IVY_CHECK_MSG(addr != kNullSvmAddr,
                "shared heap exhausted allocating " << bytes << " bytes");
  return addr;
}

void Runtime::free_raw(SvmAddr addr) {
  node_of(kAllocNode).central.host_free(addr);
}

sync::Eventcount Runtime::create_eventcount(std::uint32_t pages) {
  IVY_CHECK_GT(pages, 0u);
  // Fresh SVM pages read as zero, which is the initialized state
  // (value 0, no waiters).
  return sync::Eventcount(alloc_raw(cfg_.page_size * pages), pages);
}

sync::Barrier Runtime::create_barrier(int parties) {
  IVY_CHECK_GT(parties, 0);
  return sync::Barrier(create_eventcount(), parties);
}

sync::SvmLock Runtime::create_lock() {
  return sync::SvmLock(alloc_raw(cfg_.page_size));
}

ProcId Runtime::spawn_on(NodeId node, std::function<void()> body,
                         bool migratable) {
  return node_of(node).sched.spawn(std::move(body), migratable);
}

ProcId Runtime::spawn(std::function<void()> body, bool migratable) {
  return spawn_on(0, std::move(body), migratable);
}

Time Runtime::run() {
  const Time start = sim_.now();
  // Debug aid: IVY_MAX_EVENTS bounds a run so livelocks can be inspected
  // instead of spinning forever.
  static const std::uint64_t max_events = [] {
    const char* env = std::getenv("IVY_MAX_EVENTS");
    return env != nullptr ? std::strtoull(env, nullptr, 10)
                          : std::uint64_t{0};
  }();
  const std::uint64_t budget_end =
      max_events == 0 ? ~0ull : sim_.events_executed() + max_events;
  sim_.run_while([this, budget_end] {
    return live_.live > 0 && sim_.events_executed() < budget_end;
  });
  if (sim_.events_executed() >= budget_end) {
    IVY_WARN() << "run() stopped by IVY_MAX_EVENTS with " << live_.live
               << " processes live";
    return sim_.now() - start;
  }
  if (live_.live != 0) {
    IVY_WARN() << "stranded machine state:\n" << dump_state();
    IVY_CHECK_MSG(live_.live == 0,
                  "deadlock: " << live_.live
                               << " processes alive but no events pending");
  }
  const Time elapsed = sim_.now() - start;
  if (prof_) {
    // Settle the attribution up to the finish line and hold it to its
    // contract: every virtual nanosecond of every node is in exactly one
    // category.
    prof_->sync_to(sim_.now());
    std::string why;
    IVY_CHECK_MSG(prof_->self_check(&why), why);
    // Keep the attribution as of the program's finish line: later
    // host-side verification reads drain the simulator further, and
    // that tail would read as idle time in the run's profile.
    run_prof_ =
        std::make_unique<prof::Profiler::Snapshot>(prof_->snapshot());
  }
  return elapsed;
}

void Runtime::final_audit() {
  drain();  // let in-flight handoffs settle so every page is quiescent
  if (oracle_) oracle_->final_audit();
}

void Runtime::enable_tracing(std::size_t capacity) {
  tracer_.enable(capacity);
  tracer_.set_clock([this] { return sim_.now(); });
  // Hanging the tracer off Stats gives every emit point a single-branch
  // disabled fast path (one pointer test).
  stats_.set_tracer(&tracer_);
}

bool Runtime::write_trace(const std::string& path) const {
  if (!tracer_.enabled()) {
    IVY_WARN() << "write_trace(" << path << ") with tracing disabled";
    return false;
  }
  if (prof_) prof_->sync_to(sim_.now());
  return trace::write_chrome_trace_file(path, tracer_, cfg_.name,
                                        prof_.get());
}

bool Runtime::write_metrics(const std::string& path, Time elapsed) const {
  trace::MetricsInfo info;
  info.name = cfg_.name;
  info.elapsed = elapsed;
  return trace::write_metrics_file(
      path, stats_, tracer_.enabled() ? &tracer_ : nullptr, info);
}

bool Runtime::write_prof(const std::string& path) {
  if (!prof_) {
    IVY_WARN() << "write_prof(" << path << ") with the profiler disabled";
    return false;
  }
  prof_->sync_to(sim_.now());
  std::ofstream out(path);
  if (!out) {
    IVY_WARN() << "write_prof: cannot open " << path;
    return false;
  }
  prof_->write_folded(out);
  if (prof_->slice() > 0) {
    const std::string csv_path = path + ".util.csv";
    std::ofstream csv(csv_path);
    if (!csv) {
      IVY_WARN() << "write_prof: cannot open " << csv_path;
      return false;
    }
    prof_->write_timeline_csv(csv);
  }
  return true;
}

alloc::SharedHeap& Runtime::heap(NodeId node) {
  NodeCtx& ctx = node_of(node);
  if (ctx.two_level.has_value()) return *ctx.two_level;
  return ctx.central;
}

void Runtime::host_read_bytes(SvmAddr addr, std::span<std::byte> out) {
  drain();  // ownership may be in flight right after run() returns
  const svm::Geometry geo = cfg_.geometry();
  std::size_t done = 0;
  while (done < out.size()) {
    const SvmAddr a = addr + done;
    const PageId page = geo.page_of(a);
    const std::size_t off = geo.offset_of(a);
    const std::size_t chunk = std::min(out.size() - done, geo.page_size - off);
    // Find the owner; its image is authoritative.
    NodeId owner = kNoNode;
    for (NodeId n = 0; n < cfg_.nodes; ++n) {
      if (node_of(n).svm.table().at(page).owned) {
        IVY_CHECK_EQ(owner, kNoNode);
        owner = n;
      }
    }
    IVY_CHECK_NE(owner, kNoNode);
    svm::Svm& osvm = node_of(owner).svm;
    if (osvm.table().at(page).on_disk) {
      // Host reads are instrumentation: peek, which counts no disk read.
      const std::span<const std::byte> image = osvm.paging_disk().peek(page);
      std::memcpy(out.data() + done, image.data() + off, chunk);
    } else if (const std::byte* frame = osvm.frames().peek(page)) {
      std::memcpy(out.data() + done, frame + off, chunk);
    } else {
      std::memset(out.data() + done, 0, chunk);  // never materialized
    }
    done += chunk;
  }
}

void Runtime::host_write_bytes(SvmAddr addr, std::span<const std::byte> in) {
  drain();
  const svm::Geometry geo = cfg_.geometry();
  std::size_t done = 0;
  while (done < in.size()) {
    const SvmAddr a = addr + done;
    const PageId page = geo.page_of(a);
    const std::size_t chunk =
        std::min(in.size() - done, geo.page_size - geo.offset_of(a));
    NodeId owner = kNoNode;
    for (NodeId n = 0; n < cfg_.nodes; ++n) {
      if (node_of(n).svm.table().at(page).owned) owner = n;
    }
    IVY_CHECK_NE(owner, kNoNode);
    svm::Svm& osvm = node_of(owner).svm;
    const svm::PageEntry& entry = osvm.table().at(page);
    // Host writes may not race live read copies (they would go stale).
    IVY_CHECK_MSG(entry.copyset.empty() && !entry.on_disk,
                  "host_write to a shared/spilled page " << page);
    osvm.write_bytes(a, in.subspan(done, chunk));
    done += chunk;
  }
}

std::string Runtime::dump_state() const {
  std::ostringstream out;
  for (NodeId n = 0; n < cfg_.nodes; ++n) {
    const NodeCtx& ctx = node_of(n);
    out << "node " << n << ": procs=" << ctx.sched.proc_count()
        << " ready=" << ctx.sched.ready_count()
        << " rpc_outstanding=" << ctx.rpc.outstanding_requests() << '\n';
  }
  // Remote requests deferred and local processes waiting on a page.
  const auto queued = [this](NodeId n, PageId p) {
    const svm::PageQueues* q = node_of(n).svm.table().find_queues(p);
    return q == nullptr ? std::pair<std::size_t, std::size_t>{}
                        : std::pair{q->deferred_requests.size(),
                                    q->local_waiters.size()};
  };
  const PageId pages = cfg_.total_pages();
  for (PageId p = 0; p < pages; ++p) {
    bool interesting = false;
    int owners = 0;
    for (NodeId n = 0; n < cfg_.nodes; ++n) {
      const svm::PageEntry& e = node_of(n).svm.table().at(p);
      const auto [deferred, waiters] = queued(n, p);
      owners += e.owned ? 1 : 0;
      interesting = interesting || e.fault_in_progress || deferred != 0 ||
                    waiters != 0;
    }
    if (!interesting && owners == 1) continue;
    out << "page " << p << " (owners=" << owners << "):\n";
    for (NodeId n = 0; n < cfg_.nodes; ++n) {
      const svm::PageEntry& e = node_of(n).svm.table().at(p);
      const auto [deferred, waiters] = queued(n, p);
      if (!e.owned && !e.fault_in_progress && deferred == 0 && waiters == 0 &&
          e.access == svm::Access::kNil) {
        continue;
      }
      out << "  node " << n << ": access=" << svm::to_string(e.access)
          << " owned=" << e.owned << " probOwner=" << e.prob_owner
          << " fault=" << e.fault_in_progress
          << " level=" << static_cast<int>(e.fault_level)
          << " version=" << e.version << " deferred=" << deferred
          << " waiters=" << waiters << '\n';
    }
  }
  return out.str();
}

void Runtime::check_coherence_invariants() {
  final_audit();
  const PageId pages = cfg_.total_pages();
  for (PageId p = 0; p < pages; ++p) {
    NodeId owner = kNoNode;
    bool any_fault = false;
    for (NodeId n = 0; n < cfg_.nodes; ++n) {
      const svm::PageEntry& e = node_of(n).svm.table().at(p);
      any_fault = any_fault || e.fault_in_progress;
      if (e.owned) {
        IVY_CHECK_MSG(owner == kNoNode,
                      "two owners for page " << p << ": " << owner << " and "
                                             << n);
        owner = n;
      }
    }
    if (any_fault) continue;  // transitional; only audit quiescent pages
    IVY_CHECK_MSG(owner != kNoNode, "page " << p << " has no owner");
    const svm::PageEntry& oe = node_of(owner).svm.table().at(p);
    // Readers must be reachable from the owner through copyset edges
    // (a flat set normally; a tree with distributed copysets).
    NodeSet reachable;
    reachable.add(owner);
    for (NodeId round = 0; round < cfg_.nodes; ++round) {
      NodeSet next = reachable;
      reachable.for_each([&](NodeId n) {
        next |= node_of(n).svm.table().at(p).copyset;
      });
      if (next == reachable) break;
      reachable = next;
    }
    for (NodeId n = 0; n < cfg_.nodes; ++n) {
      if (n == owner) continue;
      const svm::PageEntry& e = node_of(n).svm.table().at(p);
      IVY_CHECK_MSG(e.access != svm::Access::kWrite,
                    "non-owner " << n << " has write access to page " << p);
      if (e.access == svm::Access::kRead) {
        IVY_CHECK_MSG(reachable.contains(n),
                      "reader " << n << " unreachable from owner's copy tree"
                                << " for page " << p);
        IVY_CHECK_MSG(oe.access != svm::Access::kWrite,
                      "owner writes page " << p << " while " << n << " reads");
      }
    }
    // probOwner chains terminate at the owner within nodes-1 hops.
    for (NodeId n = 0; n < cfg_.nodes; ++n) {
      NodeId cursor = n;
      int hops = 0;
      while (cursor != owner) {
        cursor = node_of(cursor).svm.table().at(p).prob_owner;
        IVY_CHECK_MSG(++hops <= static_cast<int>(cfg_.nodes),
                      "probOwner chain from " << n << " for page " << p
                                              << " does not reach owner");
      }
    }
  }
}

}  // namespace ivy::runtime
