#include "ivy/oracle/oracle.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>

#include "ivy/base/log.h"
#include "ivy/svm/svm.h"

namespace ivy::oracle {
namespace {

/// How many violation reports keep their full context; beyond this only
/// the counters grow (warn mode can trip the same check millions of
/// times).
constexpr std::size_t kViolationLogCapacity = 16;
/// Bounded recent-event context window attached to violations.
constexpr std::size_t kRecentCapacity = 64;

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::kOff: return "off";
    case Mode::kWarn: return "warn";
    case Mode::kStrict: return "strict";
  }
  return "?";
}

bool parse_mode(std::string_view text, Mode* out) {
  if (text == "off") {
    *out = Mode::kOff;
  } else if (text == "warn") {
    *out = Mode::kWarn;
  } else if (text == "strict") {
    *out = Mode::kStrict;
  } else {
    return false;
  }
  return true;
}

const char* to_string(Invariant inv) {
  switch (inv) {
    case Invariant::kSingleOwner: return "single_owner";
    case Invariant::kWriterExclusive: return "writer_exclusive";
    case Invariant::kCopysetCoverage: return "copyset_coverage";
    case Invariant::kChainTermination: return "chain_termination";
    case Invariant::kLostInvalidation: return "lost_invalidation";
    case Invariant::kContentIntegrity: return "content_integrity";
    case Invariant::kTransferProtocol: return "transfer_protocol";
    case Invariant::kCount: break;
  }
  return "?";
}

void ChainHistogram::add(std::uint64_t hops) {
  ++faults;
  total_hops += hops;
  max_hops = std::max(max_hops, hops);
  ++counts[std::min<std::uint64_t>(hops, kBuckets - 1)];
}

Oracle::Oracle(Mode mode, NodeId nodes, PageId num_pages,
               NodeId initial_owner)
    : mode_(mode), nodes_(nodes), initial_owner_(initial_owner) {
  IVY_CHECK(mode != Mode::kOff);
  IVY_CHECK_GT(nodes, 0u);
  svms_.reserve(nodes);
  pages_.resize(num_pages);
  for (PageModel& m : pages_) m.owner = initial_owner;
}

void Oracle::attach(svm::Svm* svm) {
  IVY_CHECK(svm != nullptr);
  IVY_CHECK_EQ(svm->self(), static_cast<NodeId>(svms_.size()));
  IVY_CHECK_EQ(svm->geometry().num_pages, pages_.size());
  svms_.push_back(svm);
}

std::uint64_t Oracle::total_violations() const {
  std::uint64_t total = 0;
  for (const std::uint64_t v : violations_) total += v;
  return total;
}

void Oracle::note(const svm::Event& e) {
  if (recent_.size() >= kRecentCapacity) recent_.pop_front();
  recent_.push_back(Observed{now(), e});
  recent_.back().event.image = {};  // valid only during on_event()
}

std::string Oracle::recent_events() const {
  std::ostringstream os;
  os << "recent events (oldest first, window of " << kRecentCapacity
     << "):\n";
  for (const Observed& o : recent_) {
    const svm::Event& e = o.event;
    os << "  t=" << o.at << " node=" << e.node << " page=" << e.page << ' '
       << svm::to_string(e.kind) << " peer=" << e.peer
       << " version=" << e.version << " level=" << svm::to_string(e.level)
       << '\n';
  }
  return os.str();
}

std::string Oracle::dump_page(PageId page) const {
  std::ostringstream os;
  if (page < pages_.size()) {
    const PageModel& m = pages_[page];
    os << "model: owner=" << m.owner << " version=" << m.version
       << " open_transfers=" << m.transfers.size();
    for (const Transfer& t : m.transfers) {
      os << " (from=" << t.from << " to=" << t.to << " ver=" << t.version
         << " gained=" << t.gained << ')';
    }
    os << " migrating=" << m.migrating << " inval_rounds=" << m.inval_rounds
       << '\n';
  }
  for (NodeId n = 0; n < static_cast<NodeId>(svms_.size()); ++n) {
    const svm::PageEntry& e = svms_[n]->table().at(page);
    if (!e.owned && e.access == svm::Access::kNil && !e.busy() &&
        e.copyset.empty()) {
      continue;
    }
    os << "  node " << n << ": access=" << svm::to_string(e.access)
       << " owned=" << e.owned << " probOwner=" << e.prob_owner
       << " version=" << e.version << " copyset=0x" << std::hex
       << e.copyset.raw() << std::dec << " busy=" << e.busy()
       << " on_disk=" << e.on_disk << '\n';
  }
  return os.str();
}

void Oracle::violate(Invariant inv, PageId page, const std::string& detail) {
  ++violations_[static_cast<std::size_t>(inv)];
  std::ostringstream os;
  os << to_string(inv) << " t=" << now() << " page " << page << ": "
     << detail;
  const std::string line = os.str();
  if (violation_log_.size() < kViolationLogCapacity) {
    violation_log_.push_back(line + '\n' + dump_page(page) + recent_events());
  }
  if (mode_ == Mode::kStrict) {
    IVY_WARN() << "coherence oracle violation:\n"
               << line << '\n'
               << dump_page(page) << recent_events();
    IVY_CHECK_MSG(false, "coherence oracle (strict): " << line);
  }
  if (total_violations() <= 8) {
    IVY_WARN() << "coherence oracle: " << line;
  }
}

void Oracle::check_page(PageId page, bool final_pass) {
  if (svms_.size() < nodes_) return;  // machine still booting
  ++checks_;
  const PageModel& m = pages_[page];

  int owners = 0;
  int writers = 0;
  int mapped = 0;
  bool any_busy = false;
  NodeId owner_node = kNoNode;
  NodeSet owned_set;
  for (NodeId n = 0; n < nodes_; ++n) {
    const svm::PageEntry& e = svms_[n]->table().at(page);
    if (e.owned) {
      ++owners;
      owner_node = n;
      owned_set.add(n);
    }
    if (e.access != svm::Access::kNil) ++mapped;
    if (e.access == svm::Access::kWrite) {
      ++writers;
      if (!e.owned) {
        std::ostringstream os;
        os << "node " << n << " holds write access without ownership";
        violate(Invariant::kWriterExclusive, page, os.str());
      }
    }
    any_busy = any_busy || e.busy();
  }

  if (final_pass) {
    if (!m.transfers.empty()) {
      violate(Invariant::kTransferProtocol, page,
              "two-phase transfer still open after drain");
    }
    if (m.migrating) {
      violate(Invariant::kTransferProtocol, page,
              "migration handoff still in flight after drain");
    }
    if (m.inval_rounds != 0) {
      violate(Invariant::kTransferProtocol, page,
              "invalidation round unfinished after drain");
    }
    if (any_busy) {
      violate(Invariant::kTransferProtocol, page,
              "page still protocol-busy after drain");
    }
  }

  // 1. Owner-token count.  The token is conserved: exactly one holder,
  // except one extra for every confirmed two-phase transfer awaiting its
  // ack (transfers chain — each grantor holds on until its release
  // lands) and zero while a migration handoff carries it between nodes.
  int expected = 1;
  if (!final_pass) {
    if (m.migrating) {
      expected = 0;
    } else {
      for (const Transfer& t : m.transfers) {
        if (t.gained) ++expected;
      }
    }
  }
  if (owners != expected) {
    std::ostringstream os;
    os << owners << " owners (expected " << expected << ")";
    violate(Invariant::kSingleOwner, page, os.str());
  }

  // 2. Writer exclusivity: a writer shares the page with nobody.
  if (writers > 0 && mapped > 1) {
    std::ostringstream os;
    os << writers << " writer(s) coexist with " << (mapped - writers)
       << " other mapping(s)";
    violate(Invariant::kWriterExclusive, page, os.str());
  }

  // 3. Copyset coverage: every read-mapped node is reachable from an
  // owner through copyset edges (flat set normally, a tree with
  // distributed copysets).  The copyset may transiently be a *superset*
  // of the actual readers — never a subset.
  if (owners > 0) {
    NodeSet reachable = owned_set;
    for (NodeId round = 0; round < nodes_; ++round) {
      NodeSet next = reachable;
      reachable.for_each([&](NodeId n) {
        next |= svms_[n]->table().at(page).copyset;
      });
      if (next == reachable) break;
      reachable = next;
    }
    for (NodeId n = 0; n < nodes_; ++n) {
      const svm::PageEntry& e = svms_[n]->table().at(page);
      if (e.access != svm::Access::kNil && !e.owned &&
          !reachable.contains(n)) {
        std::ostringstream os;
        os << "reader " << n << " is not covered by any owner's copy tree";
        violate(Invariant::kCopysetCoverage, page, os.str());
      }
    }
  }

  // 4 + 5 need a settled page: no transfer/migration/invalidation in
  // flight and no node mid-fault on it (hint chains and copy versions
  // are legitimately transitional while the protocol is working).
  const bool quiescent = m.transfers.empty() && !m.migrating &&
                         m.inval_rounds == 0 && !any_busy && owners == 1;
  if ((quiescent || final_pass) && owner_node != kNoNode) {
    if (m.owner != owner_node && m.transfers.empty() && !m.migrating) {
      std::ostringstream os;
      os << "owner token at node " << owner_node << " but the model placed "
         << "it at node " << m.owner;
      violate(Invariant::kSingleOwner, page, os.str());
    }

    // 4. No lost invalidations: a non-owner mapping at a version older
    // than the owner's survived a round that should have dropped it.
    const std::uint64_t owner_version =
        svms_[owner_node]->table().at(page).version;
    for (NodeId n = 0; n < nodes_; ++n) {
      if (n == owner_node) continue;
      const svm::PageEntry& e = svms_[n]->table().at(page);
      if (e.access != svm::Access::kNil && e.version < owner_version) {
        std::ostringstream os;
        os << "node " << n << " still maps version " << e.version
           << " but the owner is at version " << owner_version;
        violate(Invariant::kLostInvalidation, page, os.str());
      }
    }

    // 5. probOwner chains terminate at the true owner, acyclically.
    for (NodeId n = 0; n < nodes_; ++n) {
      NodeId cursor = n;
      NodeId hops = 0;
      while (cursor != owner_node) {
        cursor = svms_[cursor]->table().at(page).prob_owner;
        if (++hops > nodes_) {
          std::ostringstream os;
          os << "probOwner chain from node " << n
             << " does not reach the owner (node " << owner_node << ")";
          violate(Invariant::kChainTermination, page, os.str());
          break;
        }
      }
    }
  }
}

void Oracle::final_audit() {
  for (PageId p = 0; p < static_cast<PageId>(pages_.size()); ++p) {
    check_page(p, /*final_pass=*/true);
  }
}

// --- event stream ----------------------------------------------------------

void Oracle::on_event(const svm::Event& e) {
  using K = svm::EventKind;
  // Disk faults and restores, local upgrades, evictions, grant re-offers
  // and the end of kNil protocol holds move no token: the model skips
  // them, and so does the context window.
  switch (e.kind) {
    case K::kDiskFault:
    case K::kLocalUpgrade:
    case K::kDiskRestore:
    case K::kDiskRestored:
    case K::kPagedOut:
    case K::kCopyEvicted:
    case K::kGrantReoffered:
    case K::kCount:
      return;
    case K::kFaultComplete:
      if (e.level == svm::Access::kNil) return;
      break;
    default:
      break;
  }
  note(e);
  PageModel& m = pages_[e.page];
  switch (e.kind) {
    case K::kFaultStart:
      fault_hops_[fault_key(e.node, e.page)] = 0;
      return;
    case K::kFaultComplete:
      if (auto it = fault_hops_.find(fault_key(e.node, e.page));
          it != fault_hops_.end()) {
        chains_.add(it->second);
        fault_hops_.erase(it);
      }
      break;
    case K::kForward:  // peer = the request's origin
      if (auto it = fault_hops_.find(fault_key(e.peer, e.page));
          it != fault_hops_.end()) {
        ++it->second;
      }
      return;
    case K::kWriteServed:
      write_served(e);
      break;
    case K::kOwnershipGained:
      ownership_gained(e);
      break;
    case K::kOwnershipReleased:
      ownership_released(e);
      break;
    case K::kTransferAborted:
      transfer_aborted(e);
      break;
    case K::kPageDetached:
      page_detached(e);
      break;
    case K::kInvalidateStart:
      ++m.inval_rounds;
      m.version = std::max(m.version, e.version);
      return;
    case K::kInvalidateDone:
      if (m.inval_rounds == 0) {
        violate(Invariant::kTransferProtocol, e.page,
                "invalidation round completed that never started");
      } else {
        --m.inval_rounds;
      }
      break;
    case K::kCopyDropped:
      m.version = std::max(m.version, e.version);
      break;
    case K::kGrantResent:
    case K::kCopyReceived:
      check_content(e);
      return;
    default:  // kReadServed
      break;
  }
  check_page(e.page, false);
  check_content(e);
}

void Oracle::write_served(const svm::Event& e) {
  const NodeId owner = e.node;
  PageModel& m = pages_[e.page];
  if (m.migrating) {
    violate(Invariant::kTransferProtocol, e.page,
            "write grant served during a migration handoff");
  }
  if (m.owner != kNoNode && m.owner != owner) {
    std::ostringstream os;
    os << "write grant served by node " << owner
       << " but the model places the owner at node " << m.owner;
    violate(Invariant::kTransferProtocol, e.page, os.str());
  }
  // Transfers chain: earlier grantors may still await their release
  // acks, but the *serving* node must be the chain's head — it cannot
  // have an outgoing grant open, nor serve before confirming its own.
  for (const Transfer& t : m.transfers) {
    if (t.from == owner) {
      violate(Invariant::kTransferProtocol, e.page,
              "node served a second write grant before releasing the first");
    } else if (t.to == owner && !t.gained) {
      violate(Invariant::kTransferProtocol, e.page,
              "node served a write grant before confirming its own");
    }
  }
  m.transfers.push_back(Transfer{owner, e.peer, e.version, false});
  m.version = std::max(m.version, e.version);
}

void Oracle::ownership_gained(const svm::Event& e) {
  PageModel& m = pages_[e.page];
  if (e.peer == kNoNode) {
    // Migration adopt: completes the handoff page_detached opened.
    if (!m.migrating || m.migrate_to != e.node || m.version != e.version) {
      std::ostringstream os;
      os << "node " << e.node << " adopted at version " << e.version
         << " without a matching detach";
      violate(Invariant::kTransferProtocol, e.page, os.str());
    }
    m.migrating = false;
    m.migrate_to = kNoNode;
    m.owner = e.node;
    m.version = std::max(m.version, e.version);
    return;
  }
  auto it = std::find_if(m.transfers.begin(), m.transfers.end(),
                         [&](const Transfer& t) {
                           return t.to == e.node && t.from == e.peer &&
                                  t.version == e.version && !t.gained;
                         });
  if (it == m.transfers.end()) {
    std::ostringstream os;
    os << "node " << e.node << " gained ownership at version " << e.version
       << " without a matching open transfer";
    violate(Invariant::kTransferProtocol, e.page, os.str());
  } else {
    it->gained = true;
    m.owner = e.node;  // the token's confirmed holder moves with the grant
  }
  m.version = std::max(m.version, e.version);
}

void Oracle::ownership_released(const svm::Event& e) {
  PageModel& m = pages_[e.page];
  auto it = std::find_if(m.transfers.begin(), m.transfers.end(),
                         [&](const Transfer& t) {
                           return t.from == e.node && t.to == e.peer &&
                                  t.version == e.version;
                         });
  if (it == m.transfers.end()) {
    std::ostringstream os;
    os << "node " << e.node << " released ownership at version " << e.version
       << " without a matching open transfer";
    violate(Invariant::kTransferProtocol, e.page, os.str());
  } else {
    if (!it->gained) {
      violate(Invariant::kTransferProtocol, e.page,
              "transfer completed before the new owner confirmed the grant");
    }
    m.transfers.erase(it);
  }
  m.version = std::max(m.version, e.version);
}

void Oracle::transfer_aborted(const svm::Event& e) {
  PageModel& m = pages_[e.page];
  auto it = std::find_if(m.transfers.begin(), m.transfers.end(),
                         [&](const Transfer& t) {
                           return t.from == e.node && t.version == e.version;
                         });
  if (it == m.transfers.end()) {
    violate(Invariant::kTransferProtocol, e.page,
            "abort without a matching open transfer");
    return;
  }
  if (it->gained) {
    // The ring is FIFO, so a reject ack can never overtake the accept of
    // the same grant; an abort after the new owner mapped the page would
    // leave two permanent owners.
    violate(Invariant::kTransferProtocol, e.page,
            "transfer aborted after the new owner confirmed the grant");
  }
  m.transfers.erase(it);
}

void Oracle::page_detached(const svm::Event& e) {
  PageModel& m = pages_[e.page];
  if (!m.transfers.empty() || m.migrating) {
    violate(Invariant::kTransferProtocol, e.page,
            "migration handoff during another transfer");
  }
  if (m.owner != kNoNode && m.owner != e.node) {
    std::ostringstream os;
    os << "node " << e.node << " detached a page the model places at node "
       << m.owner;
    violate(Invariant::kTransferProtocol, e.page, os.str());
  }
  m.migrating = true;
  m.migrate_to = e.peer;
  m.version = std::max(m.version, e.version);
}

void Oracle::check_content(const svm::Event& e) {
  if (e.image.empty()) return;
  PageModel& m = pages_[e.page];
  // The shipping side records the image it vouches for at this version;
  // the installing side must hold the same bytes.
  if (e.kind != svm::EventKind::kCopyReceived &&
      e.kind != svm::EventKind::kOwnershipGained) {
    m.content_version = e.version;
    m.content_checksum = fnv1a(e.image);
    m.has_checksum = true;
    return;
  }
  if (!m.has_checksum || m.content_version != e.version) return;
  ++content_checks_;
  if (fnv1a(e.image) != m.content_checksum) {
    std::ostringstream os;
    os << "image installed at node " << e.node << " (version " << e.version
       << ") differs from the source's checksum";
    violate(Invariant::kContentIntegrity, e.page, os.str());
  }
}

// --- reporting -------------------------------------------------------------

std::string Oracle::brief() const {
  std::ostringstream os;
  os << "oracle[" << to_string(mode_) << "]: " << total_violations()
     << " violations, " << checks_ << " checks, " << content_checks_
     << " content checks; chain hops mean=" << chains_.mean()
     << " max=" << chains_.max_hops << " (" << chains_.faults << " faults)";
  return os.str();
}

std::string Oracle::report() const {
  std::ostringstream os;
  os << brief() << '\n';
  for (std::size_t i = 0; i < kInvariantCount; ++i) {
    if (violations_[i] == 0) continue;
    os << "  " << to_string(static_cast<Invariant>(i)) << ": "
       << violations_[i] << '\n';
  }
  os << "  chain-length distribution (hops: faults):";
  for (std::size_t i = 0; i < ChainHistogram::kBuckets; ++i) {
    if (chains_.counts[i] == 0) continue;
    os << ' ' << i << (i + 1 == ChainHistogram::kBuckets ? "+" : "") << ':'
       << chains_.counts[i];
  }
  os << '\n';
  for (const std::string& v : violation_log_) {
    os << "violation: " << v << '\n';
  }
  return os.str();
}

}  // namespace ivy::oracle
