// ivy::oracle — online coherence invariant checker.
//
// A global observer outside the simulated machines: it consumes the SVM
// layer's stream of protocol transitions (svm::EventSink), keeps a tiny
// reference model of where each page's ownership token *should* be, and
// after every state-changing transition re-checks the protocol
// invariants across all nodes at zero simulated cost:
//
//   1. exactly one owner per page (two transiently during a confirmed
//      two-phase transfer, zero while a migration handoff is in flight);
//   2. writer exclusivity: a node with write access is the owner and no
//      other node holds any access;
//   3. copyset coverage: every node with read access is reachable from
//      an owner through copyset edges (the owner's copyset — a tree with
//      distributed copysets — is a superset of the actual readers);
//   4. invalidations are never lost: once a page is quiescent, no
//      non-owner holds access at a version older than the owner's;
//   5. probOwner chains are acyclic and terminate at the true owner when
//      the page is quiescent (plus a chain-length distribution, the
//      paper's key claim about the dynamic manager);
//   6. the two-phase transfer protocol itself: grants, acks, aborts and
//      migration handoffs pair up and carry matching versions;
//   7. content integrity: the page image installed after a transfer
//      matches the image the source shipped at that version
//      (FNV-1a checksums).
//
// Violations carry a bounded window of the most recent observed events.
// Mode::kStrict aborts on the first violation; Mode::kWarn logs the
// first few and keeps counters.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ivy/svm/event.h"

namespace ivy::svm {
class Svm;
}  // namespace ivy::svm

namespace ivy::oracle {

enum class Mode : std::uint8_t {
  kOff = 0,  ///< no oracle (no observer installed, zero overhead)
  kWarn,     ///< count violations, log the first few
  kStrict,   ///< abort on the first violation with event context
};

[[nodiscard]] const char* to_string(Mode mode);
/// Parses "off" / "warn" / "strict"; returns false on anything else.
[[nodiscard]] bool parse_mode(std::string_view text, Mode* out);

enum class Invariant : std::uint8_t {
  kSingleOwner = 0,   ///< owner-token count differs from the model
  kWriterExclusive,   ///< writer coexists with another mapping
  kCopysetCoverage,   ///< reader not covered by the owner's copy tree
  kChainTermination,  ///< probOwner chain cycles / misses the owner
  kLostInvalidation,  ///< stale mapping survived an invalidation round
  kContentIntegrity,  ///< received page image differs from the source
  kTransferProtocol,  ///< unpaired/mismatched transfer or migration step
  kCount              // sentinel
};

inline constexpr std::size_t kInvariantCount =
    static_cast<std::size_t>(Invariant::kCount);

[[nodiscard]] const char* to_string(Invariant inv);

/// Distribution of owner-location hops per fault (forwards between the
/// faulting node's request and its grant).  Index = hop count; the last
/// bucket aggregates everything >= its index.
struct ChainHistogram {
  static constexpr std::size_t kBuckets = 17;
  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t faults = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t max_hops = 0;

  void add(std::uint64_t hops);
  [[nodiscard]] double mean() const {
    return faults == 0 ? 0.0
                       : static_cast<double>(total_hops) /
                             static_cast<double>(faults);
  }
};

class Oracle final : public svm::EventSink {
 public:
  Oracle(Mode mode, NodeId nodes, PageId num_pages, NodeId initial_owner);

  /// Wires the virtual clock used to stamp the event context window.
  void set_clock(std::function<Time()> clock) { clock_ = std::move(clock); }

  // --- results ------------------------------------------------------------

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] std::uint64_t violations(Invariant inv) const {
    return violations_[static_cast<std::size_t>(inv)];
  }
  [[nodiscard]] std::uint64_t total_violations() const;
  [[nodiscard]] std::uint64_t checks() const { return checks_; }
  [[nodiscard]] std::uint64_t content_checks() const {
    return content_checks_;
  }
  [[nodiscard]] const ChainHistogram& chain_histogram() const {
    return chains_;
  }
  /// One-line summary (mode, checks, violations, chain stats).
  [[nodiscard]] std::string brief() const;
  /// Multi-line report: summary, per-invariant counts, first recorded
  /// violation details, chain-length distribution.
  [[nodiscard]] std::string report() const;
  /// The bounded recent-event context window, newest last.
  [[nodiscard]] std::string recent_events() const;

  /// Full-strength audit once the machine is quiescent (after drain()):
  /// every transient state must have settled, every page must pass the
  /// steady-state invariants.
  void final_audit();

  /// A node's Svm came up; called once per node before the run starts.
  void attach(svm::Svm* svm);

  /// svm::EventSink: advances the model by one transition and re-checks
  /// the page.  Kinds the model does not track are ignored.
  void on_event(const svm::Event& e) override;

 private:
  /// One open two-phase ownership transfer.  Transfers *chain*: the new
  /// owner may serve the next write fault before the previous owner has
  /// processed the accept-ack and released, so several can be open on
  /// one page at once — each grantor still holds the token until its
  /// release lands.
  struct Transfer {
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    std::uint64_t version = 0;
    bool gained = false;              ///< new owner confirmed the grant
  };

  /// Reference model of one page's ownership-token location.
  struct PageModel {
    NodeId owner = kNoNode;           ///< most-recent confirmed holder
    std::uint64_t version = 0;        ///< highest version observed
    bool migrating = false;           ///< token detached, adopt pending
    NodeId migrate_to = kNoNode;
    std::vector<Transfer> transfers;  ///< open two-phase transfers
    int inval_rounds = 0;             ///< invalidation rounds in flight
    std::uint64_t content_version = 0;
    std::uint64_t content_checksum = 0;
    bool has_checksum = false;
  };

  struct Observed {
    Time at = 0;
    svm::Event event;
  };

  void note(const svm::Event& e);
  // One handler per tracked transition, run after note().
  void write_served(const svm::Event& e);
  void ownership_gained(const svm::Event& e);
  void ownership_released(const svm::Event& e);
  void transfer_aborted(const svm::Event& e);
  void page_detached(const svm::Event& e);
  /// Records (source side) or verifies (installing side) the image.
  void check_content(const svm::Event& e);
  void violate(Invariant inv, PageId page, const std::string& detail);
  /// Re-checks the cross-node invariants of one page against the model.
  /// `final_pass` demands full quiescence instead of gating the
  /// steady-state checks on it.
  void check_page(PageId page, bool final_pass);
  [[nodiscard]] std::string dump_page(PageId page) const;
  [[nodiscard]] Time now() const { return clock_ ? clock_() : 0; }
  [[nodiscard]] static std::uint64_t fault_key(NodeId node, PageId page) {
    return (static_cast<std::uint64_t>(node) << 32) | page;
  }

  Mode mode_;
  NodeId nodes_;
  NodeId initial_owner_;
  std::vector<svm::Svm*> svms_;
  std::vector<PageModel> pages_;
  std::function<Time()> clock_;

  std::array<std::uint64_t, kInvariantCount> violations_{};
  std::vector<std::string> violation_log_;  ///< first few, with context
  std::deque<Observed> recent_;             ///< bounded context window
  std::uint64_t checks_ = 0;
  std::uint64_t content_checks_ = 0;

  std::unordered_map<std::uint64_t, std::uint64_t> fault_hops_;
  ChainHistogram chains_;
};

}  // namespace ivy::oracle
