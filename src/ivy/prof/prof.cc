#include "ivy/prof/prof.h"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace ivy::prof {
namespace {

/// Priority of a wait category when several are active at once: the
/// stricter cause wins (a disk stall explains the idle time better than
/// an eventcount wait that happens to overlap it).  Higher wins; ties
/// are broken by earliest-begun.
int wait_priority(Cat cat) {
  switch (cat) {
    case Cat::kDisk: return 13;
    case Cat::kBackoff: return 12;
    case Cat::kWriteFaultInvalidate: return 11;
    case Cat::kWriteFaultTransfer: return 10;
    case Cat::kWriteFaultLocate: return 9;
    case Cat::kReadFaultInvalidate: return 8;
    case Cat::kReadFaultTransfer: return 7;
    case Cat::kReadFaultLocate: return 6;
    case Cat::kMigration: return 5;
    case Cat::kLockWait: return 4;
    case Cat::kSyncWait: return 3;
    case Cat::kManagerService: return 2;
    default: return 0;  // busy categories and kIdle never win a wait
  }
}

bool read_family(Cat cat) {
  return cat == Cat::kReadFaultLocate || cat == Cat::kReadFaultTransfer ||
         cat == Cat::kReadFaultInvalidate;
}

bool write_family(Cat cat) {
  return cat == Cat::kWriteFaultLocate || cat == Cat::kWriteFaultTransfer ||
         cat == Cat::kWriteFaultInvalidate;
}

}  // namespace

const std::array<const char*, kCatCount>& cat_names() {
  static const std::array<const char*, kCatCount> names = {
      "compute",
      "sched_overhead",
      "lock_spin",
      "disk",
      "read_fault_locate",
      "read_fault_transfer",
      "read_fault_invalidate",
      "write_fault_locate",
      "write_fault_transfer",
      "write_fault_invalidate",
      "manager_service",
      "lock_wait",
      "sync_wait",
      "migration",
      "backoff",
      "idle",
  };
  return names;
}

const char* to_string(Cat cat) {
  return cat_names()[static_cast<std::size_t>(cat)];
}

const char* domain_prefix(Domain d) {
  switch (d) {
    case Domain::kNone: return "";
    case Domain::kPageFault: return "page";
    case Domain::kLock: return "lock";
    case Domain::kSync: return "ec";
    case Domain::kRpc: return "rpc";
    case Domain::kMigrate: return "from";
    case Domain::kService: return "msg";
  }
  return "";
}

Profiler::Profiler(NodeId nodes, Time slice) : slice_(slice) {
  IVY_CHECK_GT(nodes, 0u);
  IVY_CHECK_GE(slice, 0);
  nodes_.resize(nodes);
}

// --- accounting core --------------------------------------------------

void Profiler::account(NodeProf& np, Cat cat, Domain domain,
                       std::uint64_t tag, Time from, Time to) {
  IVY_CHECK_LT(from, to);
  const auto ci = static_cast<std::size_t>(cat);
  np.totals[ci] += to - from;
  const std::uint64_t leaf = (static_cast<std::uint64_t>(ci) << 56) |
                             (static_cast<std::uint64_t>(domain) << 48) |
                             (tag & ((std::uint64_t{1} << 48) - 1));
  np.folded[leaf] += to - from;
  if (slice_ > 0) {
    Time a = from;
    while (a < to) {
      const auto bin = static_cast<std::size_t>(a / slice_);
      const Time end = std::min(to, static_cast<Time>(bin + 1) * slice_);
      if (np.bins.size() <= bin) np.bins.resize(bin + 1);
      np.bins[bin][ci] += end - a;
      a = end;
    }
  }
}

void Profiler::charge_wait_segment(NodeProf& np, Time from, Time to) {
  if (to <= from) return;
  const Wait* winner = nullptr;
  for (const auto& [key, w] : np.active) {
    if (winner == nullptr) {
      winner = &w;
      continue;
    }
    const int pw = wait_priority(w.cat);
    const int pb = wait_priority(winner->cat);
    if (pw > pb ||
        (pw == pb && (w.begun < winner->begun ||
                      (w.begun == winner->begun && w.seq < winner->seq)))) {
      winner = &w;
    }
  }
  if (winner == nullptr) {
    account(np, Cat::kIdle, Domain::kNone, 0, from, to);
  } else {
    account(np, winner->cat, winner->domain, winner->tag, from, to);
  }
}

void Profiler::apply_mark(NodeProf& np, const Mark& m) {
  switch (m.kind) {
    case Mark::kBegin: {
      auto [it, inserted] = np.active.try_emplace(m.key);
      Wait& w = it->second;
      if (inserted) {
        w.begun = m.ts;
        w.seq = m.seq;
        w.hops = 0;
      }
      w.cat = m.cat;
      w.tag = m.tag;
      w.domain = static_cast<Domain>((m.key >> 48) & 0xff);
      break;
    }
    case Mark::kRetag: {
      auto it = np.active.find(m.key);
      if (it == np.active.end()) return;
      if (m.cat != Cat::kCount) {
        it->second.cat = m.cat;
        return;
      }
      // fault_leg mark: move the wait to the requested leg, keeping its
      // read/write family.  Non-fault waits (disk restores) are left
      // alone.
      const Cat cur = it->second.cat;
      const bool rd = read_family(cur);
      if (!rd && !write_family(cur)) return;
      switch (static_cast<FaultLeg>(m.tag)) {
        case FaultLeg::kLocate:
          it->second.cat = rd ? Cat::kReadFaultLocate : Cat::kWriteFaultLocate;
          break;
        case FaultLeg::kTransfer:
          it->second.cat =
              rd ? Cat::kReadFaultTransfer : Cat::kWriteFaultTransfer;
          break;
        case FaultLeg::kInvalidate:
          it->second.cat =
              rd ? Cat::kReadFaultInvalidate : Cat::kWriteFaultInvalidate;
          break;
      }
      break;
    }
    case Mark::kEnd: {
      auto it = np.active.find(m.key);
      if (it == np.active.end()) return;
      const Wait& w = it->second;
      if (w.hops > 0) {
        if (read_family(w.cat)) np.hop_total[0] += w.hops;
        else if (write_family(w.cat)) np.hop_total[1] += w.hops;
      }
      np.active.erase(it);
      break;
    }
    case Mark::kHop: {
      auto it = np.active.find(m.key);
      if (it != np.active.end()) ++it->second.hops;
      break;
    }
  }
}

void Profiler::advance_to(NodeProf& np, Time t) {
  if (!np.marks_sorted) {
    std::stable_sort(np.marks.begin(), np.marks.end(),
                     [](const Mark& a, const Mark& b) {
                       return a.ts != b.ts ? a.ts < b.ts : a.seq < b.seq;
                     });
    np.marks_sorted = true;
  }
  std::size_t i = 0;
  while (i < np.marks.size() && np.marks[i].ts <= t) {
    const Mark& m = np.marks[i];
    if (m.ts > np.cursor) {
      charge_wait_segment(np, np.cursor, m.ts);
      np.cursor = m.ts;
    }
    apply_mark(np, m);
    ++i;
  }
  if (i > 0) {
    np.marks.erase(np.marks.begin(),
                   np.marks.begin() + static_cast<std::ptrdiff_t>(i));
  }
  if (t > np.cursor) {
    charge_wait_segment(np, np.cursor, t);
    np.cursor = t;
  }
}

void Profiler::push_mark(NodeId node, Mark m) {
  if (frozen_) return;
  NodeProf& np = nodes_[node];
  m.seq = ++next_seq_;
  if (!np.marks.empty() && np.marks_sorted &&
      m.ts < np.marks.back().ts) {
    np.marks_sorted = false;
  }
  np.marks.push_back(m);
}

// --- busy side --------------------------------------------------------

void Profiler::note_fiber_charge(NodeId node, Time t, Cat cat) {
  if (frozen_ || t <= 0) return;
  nodes_[node].fiber_acc[static_cast<std::size_t>(cat)] += t;
}

void Profiler::charge_busy(NodeId node, Time from, Time to, Cat cat) {
  if (frozen_) return;
  NodeProf& np = nodes_[node];
  from = std::max(from, np.cursor);
  if (to <= from) return;
  advance_to(np, from);
  account(np, cat, Domain::kNone, 0, from, to);
  np.cursor = to;
}

void Profiler::commit_dispatch(NodeId node, Time now, Time switch_cost,
                               Time fiber_charge, Time pending) {
  if (frozen_) return;
  NodeProf& np = nodes_[node];
  Time t = now;
  if (switch_cost > 0) {
    charge_busy(node, t, t + switch_cost, Cat::kSchedOverhead);
    t += switch_cost;
  }
  // Split the fiber's accumulated charge by category, in category order:
  // whatever the notes made while it ran do not explain is plain
  // application compute.  Clamping keeps the invariant should the notes
  // ever exceed the charge.
  Time noted = 0;
  for (const Time amt : np.fiber_acc) noted += amt;
  np.fiber_acc[static_cast<std::size_t>(Cat::kCompute)] +=
      std::max<Time>(fiber_charge - noted, 0);
  Time left = fiber_charge;
  for (std::size_t c = 0; c < kCatCount && left > 0; ++c) {
    const Time amt = std::min(np.fiber_acc[c], left);
    if (amt <= 0) continue;
    charge_busy(node, t, t + amt, static_cast<Cat>(c));
    t += amt;
    left -= amt;
  }
  np.fiber_acc.fill(0);
  if (pending > 0) {
    charge_busy(node, t, t + pending, Cat::kDisk);
  }
}

// --- wait side --------------------------------------------------------

void Profiler::begin_wait(NodeId node, Cat cat, Domain domain,
                          std::uint64_t value, Time at, std::uint64_t tag) {
  Mark m;
  m.kind = Mark::kBegin;
  m.cat = cat;
  m.ts = at;
  m.key = make_key(domain, value);
  m.tag = tag == kDefaultTag ? value : tag;
  push_mark(node, m);
}

void Profiler::retag_wait(NodeId node, Domain domain, std::uint64_t value,
                          Cat cat, Time at) {
  Mark m;
  m.kind = Mark::kRetag;
  m.cat = cat;
  m.ts = at;
  m.key = make_key(domain, value);
  push_mark(node, m);
}

void Profiler::end_wait(NodeId node, Domain domain, std::uint64_t value,
                        Time at) {
  Mark m;
  m.kind = Mark::kEnd;
  m.ts = at;
  m.key = make_key(domain, value);
  push_mark(node, m);
}

void Profiler::fault_leg(NodeId node, std::uint64_t page, FaultLeg leg,
                         Time at) {
  if (frozen_) return;
  // The family (read vs write) lives in the wait's current category,
  // which is only known once earlier marks are applied — so this resolves
  // lazily, as a retag mark that inspects the wait when processed.
  Mark m;
  m.kind = Mark::kRetag;
  m.cat = Cat::kCount;  // sentinel: resolve family at apply time
  m.ts = at;
  m.key = make_key(Domain::kPageFault, page);
  m.tag = static_cast<std::uint64_t>(leg);
  push_mark(node, m);
}

void Profiler::note_hop(NodeId node, std::uint64_t page) {
  Mark m;
  m.kind = Mark::kHop;
  m.ts = nodes_[node].cursor;  // hops are counts; timing is irrelevant
  m.key = make_key(Domain::kPageFault, page);
  push_mark(node, m);
}

// --- lifecycle --------------------------------------------------------

void Profiler::sync_to(Time t) {
  if (frozen_) return;
  for (auto& np : nodes_) advance_to(np, t);
}

Profiler::Snapshot Profiler::snapshot() const {
  Snapshot snap;
  for (const auto& np : nodes_) {
    snap.accounted = std::max(snap.accounted, np.cursor);
    snap.totals.push_back(np.totals);
    snap.hops.push_back(np.hop_total);
  }
  return snap;
}

void Profiler::finalize(Time end) {
  if (frozen_) return;
  for (auto& np : nodes_) {
    // Drop marks stamped beyond the end of the run (e.g. a manager
    // service span that ends after the last event) so they cannot
    // linger, then account the tail.
    advance_to(np, end);
    np.marks.clear();
  }
  frozen_ = true;
}

bool Profiler::self_check(std::string* error) const {
  for (NodeId n = 0; n < nodes(); ++n) {
    const NodeProf& np = nodes_[n];
    Time sum = 0;
    for (const Time t : np.totals) sum += t;
    if (sum != np.cursor) {
      if (error != nullptr) {
        std::ostringstream os;
        os << "prof self-check: node " << n << " categories sum to " << sum
           << " ns but " << np.cursor << " ns elapsed";
        *error = os.str();
      }
      return false;
    }
    Time folded_sum = 0;
    for (const auto& [leaf, t] : np.folded) folded_sum += t;
    if (folded_sum != sum) {
      if (error != nullptr) {
        std::ostringstream os;
        os << "prof self-check: node " << n << " folded leaves sum to "
           << folded_sum << " ns but categories sum to " << sum << " ns";
        *error = os.str();
      }
      return false;
    }
  }
  return true;
}

// --- exports ----------------------------------------------------------

void Profiler::write_folded(std::ostream& out) const {
  for (NodeId n = 0; n < nodes(); ++n) {
    for (const auto& [leaf, t] : nodes_[n].folded) {
      const auto cat = static_cast<Cat>(leaf >> 56);
      const auto domain = static_cast<Domain>((leaf >> 48) & 0xff);
      const std::uint64_t tag = leaf & ((std::uint64_t{1} << 48) - 1);
      out << "node" << n << ";" << to_string(cat);
      if (domain != Domain::kNone) {
        out << ";" << domain_prefix(domain) << tag;
      }
      out << " " << t << "\n";
    }
  }
}

void Profiler::write_timeline_csv(std::ostream& out) const {
  out << "t_ns,node";
  for (const char* name : cat_names()) out << "," << name;
  out << "\n";
  if (slice_ <= 0) return;
  std::size_t max_bins = 0;
  for (const auto& np : nodes_) max_bins = std::max(max_bins, np.bins.size());
  for (std::size_t b = 0; b < max_bins; ++b) {
    for (NodeId n = 0; n < nodes(); ++n) {
      const auto& bins = nodes_[n].bins;
      out << static_cast<Time>(b) * slice_ << "," << n;
      for (std::size_t c = 0; c < kCatCount; ++c) {
        out << "," << (b < bins.size() ? bins[b][c] : Time{0});
      }
      out << "\n";
    }
  }
}

}  // namespace ivy::prof
