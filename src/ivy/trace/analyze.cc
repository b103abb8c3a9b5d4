#include "ivy/trace/analyze.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <unordered_map>

namespace ivy::trace {
namespace {

// --- minimal JSON ------------------------------------------------------
//
// Just enough of a recursive-descent parser for the files our own
// exporters write (objects, arrays, strings, numbers, bools, null).  No
// external dependency, no DOM sharing: one value tree per file.

struct Json {
  enum Type : std::uint8_t { kNull, kBool, kNum, kStr, kArr, kObj };
  Type type = kNull;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  [[nodiscard]] const Json* find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] std::uint64_t as_u64() const {
    return num < 0 ? 0 : static_cast<std::uint64_t>(num + 0.5);
  }
};

class Parser {
 public:
  Parser(const char* begin, const char* end) : p_(begin), end_(end) {}

  bool parse(Json* out, std::string* error) {
    if (!value(out)) {
      *error = error_.empty() ? "malformed JSON" : error_;
      return false;
    }
    skip_ws();
    if (p_ != end_) {
      *error = "trailing garbage after JSON value";
      return false;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                          *p_ == '\r')) {
      ++p_;
    }
  }
  bool literal(const char* word) {
    const char* q = p_;
    for (; *word != '\0'; ++word, ++q) {
      if (q == end_ || *q != *word) return false;
    }
    p_ = q;
    return true;
  }
  bool fail(const char* what) {
    error_ = what;
    return false;
  }

  bool string(std::string* out) {
    if (p_ == end_ || *p_ != '"') return fail("expected string");
    ++p_;
    out->clear();
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c == '\\') {
        if (p_ == end_) return fail("truncated escape");
        switch (*p_++) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u':
            // Our exporters never emit \u; decode as '?' to stay total.
            for (int i = 0; i < 4 && p_ != end_; ++i) ++p_;
            c = '?';
            break;
          default: return fail("unknown escape");
        }
      }
      out->push_back(c);
    }
    if (p_ == end_) return fail("unterminated string");
    ++p_;  // closing quote
    return true;
  }

  bool value(Json* out) {
    skip_ws();
    if (p_ == end_) return fail("unexpected end of input");
    switch (*p_) {
      case '{': {
        out->type = Json::kObj;
        ++p_;
        skip_ws();
        if (p_ != end_ && *p_ == '}') { ++p_; return true; }
        while (true) {
          skip_ws();
          std::string key;
          if (!string(&key)) return false;
          skip_ws();
          if (p_ == end_ || *p_ != ':') return fail("expected ':'");
          ++p_;
          Json v;
          if (!value(&v)) return false;
          out->obj.emplace_back(std::move(key), std::move(v));
          skip_ws();
          if (p_ != end_ && *p_ == ',') { ++p_; continue; }
          if (p_ != end_ && *p_ == '}') { ++p_; return true; }
          return fail("expected ',' or '}'");
        }
      }
      case '[': {
        out->type = Json::kArr;
        ++p_;
        skip_ws();
        if (p_ != end_ && *p_ == ']') { ++p_; return true; }
        while (true) {
          Json v;
          if (!value(&v)) return false;
          out->arr.push_back(std::move(v));
          skip_ws();
          if (p_ != end_ && *p_ == ',') { ++p_; continue; }
          if (p_ != end_ && *p_ == ']') { ++p_; return true; }
          return fail("expected ',' or ']'");
        }
      }
      case '"':
        out->type = Json::kStr;
        return string(&out->str);
      case 't':
        if (!literal("true")) return fail("bad literal");
        out->type = Json::kBool;
        out->boolean = true;
        return true;
      case 'f':
        if (!literal("false")) return fail("bad literal");
        out->type = Json::kBool;
        out->boolean = false;
        return true;
      case 'n':
        if (!literal("null")) return fail("bad literal");
        out->type = Json::kNull;
        return true;
      default: {
        char* after = nullptr;
        const double v = std::strtod(p_, &after);
        if (after == p_) return fail("expected value");
        out->type = Json::kNum;
        out->num = v;
        p_ = after;
        return true;
      }
    }
  }

  const char* p_;
  const char* end_;
  std::string error_;
};

bool parse_file(const std::string& path, Json* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  Parser parser(text.data(), text.data() + text.size());
  if (!parser.parse(out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

/// Reverse of to_string(EventKind), built once.
EventKind kind_from_name(const std::string& name) {
  static const auto kMap = [] {
    std::unordered_map<std::string, EventKind> m;
    for (std::size_t i = 0; i < kEventKindCount; ++i) {
      const auto k = static_cast<EventKind>(i);
      m.emplace(to_string(k), k);
    }
    return m;
  }();
  const auto it = kMap.find(name);
  return it == kMap.end() ? EventKind::kCount : it->second;
}

/// Chrome-trace microseconds (a "123.456" double) back to nanoseconds.
Time us_to_ns(double us) {
  return static_cast<Time>(std::llround(us * 1000.0));
}

std::string format_us(Time ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.1fus",
                static_cast<double>(ns) / 1000.0);
  return buf;
}

}  // namespace

bool load_chrome_trace(const std::string& path, LoadedTrace* out,
                       std::string* error) {
  Json root;
  if (!parse_file(path, &root, error)) return false;
  const Json* events = root.find("traceEvents");
  if (events == nullptr || events->type != Json::kArr) {
    *error = path + ": no traceEvents array";
    return false;
  }
  out->events.clear();
  out->machine.clear();
  out->unknown_names = 0;
  for (const Json& je : events->arr) {
    const Json* ph = je.find("ph");
    const Json* name = je.find("name");
    if (ph == nullptr || name == nullptr) continue;
    if (ph->str == "M") {
      if (name->str == "process_name" && out->machine.empty()) {
        if (const Json* args = je.find("args")) {
          if (const Json* n = args->find("name")) {
            // "ivy node 3" -> "ivy"
            const std::size_t cut = n->str.rfind(" node ");
            out->machine =
                cut == std::string::npos ? n->str : n->str.substr(0, cut);
          }
        }
      }
      continue;
    }
    const EventKind kind = kind_from_name(name->str);
    if (kind == EventKind::kCount) {
      ++out->unknown_names;
      continue;
    }
    Event e;
    e.kind = kind;
    if (const Json* pid = je.find("pid")) {
      e.node = static_cast<NodeId>(pid->as_u64());
    }
    if (const Json* ts = je.find("ts")) e.ts = us_to_ns(ts->num);
    if (const Json* dur = je.find("dur")) e.dur = us_to_ns(dur->num);
    if (const Json* args = je.find("args")) {
      if (const char* a0 = arg0_name(kind); a0[0] != '\0') {
        if (const Json* v = args->find(a0)) e.arg0 = v->as_u64();
      }
      if (const char* a1 = arg1_name(kind); a1[0] != '\0') {
        if (const Json* v = args->find(a1)) e.arg1 = v->as_u64();
      }
    }
    out->events.push_back(e);
  }
  // Recording order already ties causally-ordered same-timestamp events;
  // a stable sort keeps that while ordering by virtual time.
  std::stable_sort(out->events.begin(), out->events.end(),
                   [](const Event& a, const Event& b) { return a.ts < b.ts; });
  return true;
}

bool load_metrics_json(const std::string& path, MetricsSummary* out,
                       std::string* error) {
  Json root;
  if (!parse_file(path, &root, error)) return false;
  if (root.type != Json::kObj) {
    *error = path + ": metrics root is not an object";
    return false;
  }
  *out = MetricsSummary{};
  if (const Json* v = root.find("name")) out->name = v->str;
  if (const Json* v = root.find("nodes")) {
    out->nodes = static_cast<std::uint32_t>(v->as_u64());
  }
  if (const Json* v = root.find("elapsed_ns")) {
    out->elapsed = static_cast<Time>(v->as_u64());
  }
  const Json* counters = root.find("counters_total");
  if (counters == nullptr || counters->type != Json::kObj) {
    *error = path + ": no counters_total object";
    return false;
  }
  for (const auto& [k, v] : counters->obj) out->counters[k] = v.as_u64();
  if (const Json* tr = root.find("trace")) {
    out->has_trace_block = true;
    if (const Json* v = tr->find("recorded")) out->trace_recorded = v->as_u64();
    if (const Json* v = tr->find("retained")) out->trace_retained = v->as_u64();
    if (const Json* v = tr->find("dropped")) out->trace_dropped = v->as_u64();
  }
  return true;
}

namespace {

/// Per-page index of the events that decompose a fault, pointers into
/// the (ts-sorted) event vector.
struct PageIndex {
  std::vector<const Event*> sent;     // kPageSent
  std::vector<const Event*> gained;   // kOwnershipGained
  std::vector<const Event*> inval;    // kInvalidateSent
  std::vector<const Event*> forward;  // kForward
};

std::unordered_map<PageId, PageIndex> index_pages(const LoadedTrace& trace) {
  std::unordered_map<PageId, PageIndex> index;
  for (const Event& e : trace.events) {
    switch (e.kind) {
      case EventKind::kPageSent:
        index[static_cast<PageId>(e.arg0)].sent.push_back(&e);
        break;
      case EventKind::kOwnershipGained:
        index[static_cast<PageId>(e.arg0)].gained.push_back(&e);
        break;
      case EventKind::kInvalidateSent:
        index[static_cast<PageId>(e.arg0)].inval.push_back(&e);
        break;
      case EventKind::kForward:
        index[static_cast<PageId>(e.arg0)].forward.push_back(&e);
        break;
      default:
        break;
    }
  }
  return index;
}

}  // namespace

CriticalPathReport critical_path(const LoadedTrace& trace,
                                 std::size_t top_n) {
  CriticalPathReport report;
  const auto index = index_pages(trace);
  const PageIndex empty;
  for (const Event& e : trace.events) {
    const bool write = e.kind == EventKind::kWriteFault;
    if (!write && e.kind != EventKind::kReadFault) continue;
    const auto page = static_cast<PageId>(e.arg0);
    const Time t0 = e.ts;
    const Time t1 = e.ts + e.dur;
    const auto it = index.find(page);
    const PageIndex& idx = it == index.end() ? empty : it->second;
    const auto in_window = [&](const Event* ev) {
      return ev->ts >= t0 && ev->ts <= t1;
    };

    FaultPath path;
    path.node = e.node;
    path.page = page;
    path.write = write;
    path.start = t0;
    path.total = e.dur;
    for (const Event* f : idx.forward) {
      if (in_window(f) && f->arg1 == e.node) ++path.hops;
    }
    // First body shipped *to this faulter* inside the window.
    const Event* sent = nullptr;
    for (const Event* s : idx.sent) {
      if (in_window(s) && s->arg1 == e.node) { sent = s; break; }
    }
    if (write) {
      // Ownership installed at the faulter; then its invalidation round.
      const Event* gained = nullptr;
      for (const Event* g : idx.gained) {
        if (in_window(g) && g->node == e.node) { gained = g; break; }
      }
      const Event* inval = nullptr;
      for (const Event* i : idx.inval) {
        if (in_window(i) && i->node == e.node) { inval = i; break; }
      }
      if (gained == nullptr) {
        path.local = true;  // local upgrade (or serve outside the window)
        if (inval != nullptr) path.invalidate = inval->dur;
        path.resume = e.dur - path.invalidate;
      } else {
        const Time t_sent = sent != nullptr && sent->ts <= gained->ts
                                ? sent->ts
                                : gained->ts;  // bodyless grant
        path.locate = t_sent - t0;
        path.transfer = gained->ts - t_sent;
        if (inval != nullptr) path.invalidate = inval->dur;
        Time settled = gained->ts;
        if (inval != nullptr) settled = inval->ts + inval->dur;
        path.resume = t1 > settled ? t1 - settled : 0;
      }
    } else {
      if (sent == nullptr) {
        path.local = true;
      } else {
        path.locate = sent->ts - t0;
        // Reply wire time + install + wakeup, undivided for reads.
        path.resume = t1 - sent->ts;
      }
    }

    LegTotals& agg = write ? report.writes : report.reads;
    ++agg.count;
    agg.locate += path.locate;
    agg.transfer += path.transfer;
    agg.invalidate += path.invalidate;
    agg.resume += path.resume;
    agg.total += path.total;
    if (path.local) ++report.local_faults;

    report.slowest.push_back(path);
    std::push_heap(report.slowest.begin(), report.slowest.end(),
                   [](const FaultPath& a, const FaultPath& b) {
                     return a.total > b.total;  // min-heap on total
                   });
    if (report.slowest.size() > top_n) {
      std::pop_heap(report.slowest.begin(), report.slowest.end(),
                    [](const FaultPath& a, const FaultPath& b) {
                      return a.total > b.total;
                    });
      report.slowest.pop_back();
    }
  }
  std::sort(report.slowest.begin(), report.slowest.end(),
            [](const FaultPath& a, const FaultPath& b) {
              if (a.total != b.total) return a.total > b.total;
              return a.start < b.start;  // deterministic tie-break
            });
  return report;
}

std::vector<PageContention> contention(const LoadedTrace& trace,
                                       std::size_t top_n) {
  struct Tally {
    PageContention row;
    std::set<NodeId> faulters;
    std::vector<NodeId> owner_seq;
    std::vector<Time> fault_times;
  };
  std::unordered_map<PageId, Tally> tallies;
  Time lo = 0;
  Time hi = 0;
  if (!trace.events.empty()) {
    lo = trace.events.front().ts;
    hi = trace.events.back().ts;
  }
  for (const Event& e : trace.events) {
    const auto page = static_cast<PageId>(e.arg0);
    switch (e.kind) {
      case EventKind::kReadFault:
      case EventKind::kWriteFault: {
        Tally& t = tallies[page];
        ++t.row.faults;
        t.faulters.insert(e.node);
        t.fault_times.push_back(e.ts);
        break;
      }
      case EventKind::kInvalidateSent:
        ++tallies[page].row.invalidation_rounds;
        break;
      case EventKind::kOwnershipGained: {
        Tally& t = tallies[page];
        ++t.row.ownership_moves;
        t.owner_seq.push_back(e.node);
        break;
      }
      default:
        break;
    }
  }
  std::vector<PageContention> rows;
  rows.reserve(tallies.size());
  const Time span = hi > lo ? hi - lo : 1;
  constexpr std::size_t kBins = 48;
  for (auto& [page, t] : tallies) {
    t.row.page = page;
    t.row.nodes = static_cast<std::uint32_t>(t.faulters.size());
    for (std::size_t i = 2; i < t.owner_seq.size(); ++i) {
      if (t.owner_seq[i] == t.owner_seq[i - 2] &&
          t.owner_seq[i] != t.owner_seq[i - 1]) {
        ++t.row.ping_pong;
      }
    }
    std::array<std::uint32_t, kBins> bins{};
    std::uint32_t peak = 0;
    for (const Time ts : t.fault_times) {
      const auto b = static_cast<std::size_t>(
          static_cast<double>(ts - lo) / static_cast<double>(span) *
          (kBins - 1));
      peak = std::max(peak, ++bins[b]);
    }
    static constexpr char kLevels[] = ".:-=+*#@";
    t.row.timeline.reserve(kBins);
    for (const std::uint32_t b : bins) {
      if (b == 0) {
        t.row.timeline.push_back(' ');
      } else {
        const std::size_t level = (b * 7 + peak - 1) / peak;  // 1..7
        t.row.timeline.push_back(kLevels[std::min<std::size_t>(level, 7)]);
      }
    }
    rows.push_back(std::move(t.row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const PageContention& a, const PageContention& b) {
              const std::uint64_t wa =
                  a.faults + a.invalidation_rounds + a.ownership_moves;
              const std::uint64_t wb =
                  b.faults + b.invalidation_rounds + b.ownership_moves;
              if (wa != wb) return wa > wb;
              return a.page < b.page;
            });
  if (rows.size() > top_n) rows.resize(top_n);
  return rows;
}

ChainLengths chain_lengths(const LoadedTrace& trace) {
  ChainLengths result;
  const auto index = index_pages(trace);
  for (const Event& e : trace.events) {
    if (e.kind != EventKind::kReadFault && e.kind != EventKind::kWriteFault) {
      continue;
    }
    std::uint64_t hops = 0;
    const auto it = index.find(static_cast<PageId>(e.arg0));
    if (it != index.end()) {
      for (const Event* f : it->second.forward) {
        if (f->ts >= e.ts && f->ts <= e.ts + e.dur && f->arg1 == e.node) {
          ++hops;
        }
      }
    }
    ++result.faults;
    result.total += hops;
    result.max = std::max(result.max, hops);
    ++result.hops[std::min<std::uint64_t>(hops,
                                          ChainLengths::kBuckets - 1)];
  }
  return result;
}

CausalityReport causality_audit(const LoadedTrace& trace,
                                bool window_complete) {
  CausalityReport report;
  report.window_complete = window_complete;
  struct RpcState {
    bool requested = false;
    bool broadcast = false;
    bool cancelled = false;
    NodeId client = kNoNode;
    std::uint64_t replies = 0;
  };
  std::unordered_map<std::uint64_t, RpcState> rpcs;
  for (const Event& e : trace.events) {
    switch (e.kind) {
      case EventKind::kRpcRequest: {
        RpcState& s = rpcs[e.arg0];
        s.requested = true;
        s.client = e.node;
        s.broadcast = e.arg1 == kMaxNodes;
        if (s.broadcast) {
          ++report.broadcasts;
        } else {
          ++report.requests;
        }
        break;
      }
      case EventKind::kRpcReplySent:
        ++report.replies;
        ++rpcs[e.arg0].replies;
        break;
      case EventKind::kRpcOrphan:
        ++report.orphan_events;
        break;
      case EventKind::kRpcCancel:
        ++report.cancelled;
        rpcs[e.arg0].cancelled = true;
        break;
      case EventKind::kRpcFailed:
        // Terminal failure resolves the request: it is answered by the
        // failure path, not dangling.
        ++report.failed;
        rpcs[e.arg0].cancelled = true;
        break;
      default:
        break;
    }
  }
  constexpr std::size_t kMaxFlags = 12;
  const auto flag = [&](std::string line) {
    if (report.flagged.size() < kMaxFlags) {
      report.flagged.push_back(std::move(line));
    }
  };
  // Deterministic order for the flag list.
  std::vector<std::pair<std::uint64_t, const RpcState*>> ordered;
  ordered.reserve(rpcs.size());
  for (const auto& [id, s] : rpcs) ordered.emplace_back(id, &s);
  std::sort(ordered.begin(), ordered.end());
  for (const auto& [id, s] : ordered) {
    if (s->requested && s->replies == 0 && !s->broadcast && !s->cancelled) {
      ++report.unanswered;
      std::ostringstream line;
      line << "rpc " << id << " from node " << s->client
           << " has no reply in the window"
           << (window_complete ? "" : " (may be window-cut)");
      flag(line.str());
    }
    if (s->requested && !s->broadcast && s->replies > 1) {
      // Duplicate replies are legal (done-cache resend after a client
      // retransmission) but worth surfacing.
      report.duplicate_replies += s->replies - 1;
    }
    if (!s->requested && s->replies > 0) {
      report.unmatched_replies += s->replies;
      if (window_complete) {
        std::ostringstream line;
        line << "reply to rpc " << id
             << " matches no recorded request";
        flag(line.str());
      }
    }
  }
  return report;
}

std::vector<CrossCheckRow> cross_check(const LoadedTrace& trace,
                                       const MetricsSummary& metrics) {
  std::array<std::uint64_t, kEventKindCount> counts{};
  std::uint64_t inval_copies = 0;
  for (const Event& e : trace.events) {
    ++counts[static_cast<std::size_t>(e.kind)];
    if (e.kind == EventKind::kInvalidateSent) inval_copies += e.arg1;
  }
  const auto count = [&](EventKind k) {
    return counts[static_cast<std::size_t>(k)];
  };
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? 0 : it->second;
  };
  const bool complete = metrics.trace_dropped == 0;
  const bool no_paging =
      counter("disk_reads") == 0 && counter("disk_writes") == 0;
  const bool no_migrations = counter("migrations") == 0;
  const bool no_broadcasts = counter("broadcasts") == 0;

  std::vector<CrossCheckRow> rows;
  const auto add = [&](const char* name, std::uint64_t from_trace,
                       bool condition, std::string note) {
    CrossCheckRow row;
    row.counter = name;
    row.from_metrics = counter(name);
    row.from_trace = from_trace;
    row.checked = complete && condition;
    row.ok = !row.checked || row.from_metrics == row.from_trace;
    if (!complete) {
      row.note = "trace window incomplete";
    } else if (!condition) {
      row.note = std::move(note);
    }
    rows.push_back(std::move(row));
  };
  add("read_faults", count(EventKind::kReadFault), no_paging,
      "disk-restore faults leave no fault span");
  add("write_faults", count(EventKind::kWriteFault), no_paging,
      "disk-restore faults leave no fault span");
  add("invalidations_sent", inval_copies, no_broadcasts,
      "broadcast rounds count once regardless of copies");
  add("forwards", count(EventKind::kForward), no_migrations,
      "process-message forwards share the counter");
  return rows;
}

FaultReport fault_report(const LoadedTrace& trace) {
  FaultReport report;
  std::vector<Time> injections;  // timestamps of perturbed deliveries
  for (const Event& e : trace.events) {
    switch (e.kind) {
      case EventKind::kFaultInjected:
        ++report.injected_total;
        if (e.arg1 < report.injected_by_type.size()) {
          ++report.injected_by_type[e.arg1];
        }
        injections.push_back(e.ts);
        break;
      case EventKind::kMsgCorrupted:
        ++report.corrupted_frames;
        injections.push_back(e.ts);
        break;
      case EventKind::kRpcBackoff:
        ++report.backoffs;
        break;
      case EventKind::kRpcFailed:
        ++report.failures;
        break;
      default:
        break;
    }
  }
  std::sort(injections.begin(), injections.end());
  Time sum_overlapping = 0;
  Time sum_clean = 0;
  for (const Event& e : trace.events) {
    if ((e.kind != EventKind::kReadFault &&
         e.kind != EventKind::kWriteFault) ||
        e.dur == 0) {
      continue;
    }
    // An injection inside the span means this fault plausibly paid for
    // it (a dropped/delayed leg of its own protocol exchange, or queueing
    // behind someone else's retransmissions).
    const auto lo = std::lower_bound(injections.begin(), injections.end(),
                                     e.ts);
    const bool hit = lo != injections.end() && *lo <= e.ts + e.dur;
    if (hit) {
      ++report.overlapping_faults;
      sum_overlapping += e.dur;
    } else {
      ++report.clean_faults;
      sum_clean += e.dur;
    }
  }
  if (report.overlapping_faults > 0) {
    report.mean_overlapping =
        sum_overlapping / static_cast<Time>(report.overlapping_faults);
  }
  if (report.clean_faults > 0) {
    report.mean_clean = sum_clean / static_cast<Time>(report.clean_faults);
  }
  return report;
}

std::string render_report(const LoadedTrace& trace,
                          const MetricsSummary* metrics, std::size_t top_n) {
  std::ostringstream out;
  out << "=== ivy-analyze";
  if (!trace.machine.empty()) out << ": " << trace.machine;
  out << " ===\n";
  out << "events: " << trace.events.size() << " loaded";
  if (trace.unknown_names > 0) {
    out << " (" << trace.unknown_names << " with unknown kinds skipped)";
  }
  bool window_complete = true;
  if (metrics != nullptr && metrics->has_trace_block) {
    out << "; tracer recorded " << metrics->trace_recorded << ", dropped "
        << metrics->trace_dropped;
    window_complete = metrics->trace_dropped == 0;
  }
  if (!trace.events.empty()) {
    out << "; span "
        << format_us(trace.events.back().ts - trace.events.front().ts);
  }
  out << "\n";

  const CriticalPathReport cp = critical_path(trace, 5);
  out << "\n-- fault critical path --\n";
  const auto legs = [&](const char* label, const LegTotals& t,
                        bool with_inval) {
    out << label << ": count=" << t.count;
    if (t.count == 0) {
      out << "\n";
      return;
    }
    const auto mean = [&](Time sum) { return format_us(sum / static_cast<Time>(t.count)); };
    out << "  mean=" << mean(t.total) << "  locate=" << mean(t.locate)
        << "  transfer=" << mean(t.transfer);
    if (with_inval) out << "  invalidate=" << mean(t.invalidate);
    out << "  resume=" << mean(t.resume) << "\n";
  };
  legs("reads ", cp.reads, false);
  legs("writes", cp.writes, true);
  if (cp.local_faults > 0) {
    out << "local (no remote serve in window): " << cp.local_faults << "\n";
  }
  if (!cp.slowest.empty()) {
    out << "slowest faults:\n";
    for (const FaultPath& p : cp.slowest) {
      out << "  " << (p.write ? "write" : "read ") << " page " << p.page
          << " @node " << p.node << " t=" << format_us(p.start)
          << " total=" << format_us(p.total)
          << " (locate=" << format_us(p.locate)
          << " transfer=" << format_us(p.transfer)
          << " invalidate=" << format_us(p.invalidate)
          << " resume=" << format_us(p.resume) << ") hops=" << p.hops
          << (p.local ? " [local]" : "") << "\n";
    }
  }

  const std::vector<PageContention> hot = contention(trace, top_n);
  out << "\n-- page contention (top " << hot.size() << ") --\n";
  if (!hot.empty()) {
    out << "page      faults  invals   moves  nodes  pingpong  timeline\n";
    for (const PageContention& p : hot) {
      char line[128];
      std::snprintf(line, sizeof(line), "%-8u %7llu %7llu %7llu %6u %9llu  ",
                    p.page, static_cast<unsigned long long>(p.faults),
                    static_cast<unsigned long long>(p.invalidation_rounds),
                    static_cast<unsigned long long>(p.ownership_moves),
                    p.nodes, static_cast<unsigned long long>(p.ping_pong));
      out << line << "|" << p.timeline << "|\n";
    }
  }

  const ChainLengths chains = chain_lengths(trace);
  out << "\n-- forwarding chain lengths (hops per fault) --\n";
  if (chains.faults == 0) {
    out << "no faults in window\n";
  } else {
    out << "faults=" << chains.faults;
    char mean[32];
    std::snprintf(mean, sizeof(mean), "%.2f", chains.mean());
    out << "  mean=" << mean << "  max=" << chains.max << "\n";
    out << "hops:";
    for (std::size_t i = 0; i < ChainLengths::kBuckets; ++i) {
      if (chains.hops[i] == 0) continue;
      out << "  " << i << (i == ChainLengths::kBuckets - 1 ? "+" : "")
          << ":" << chains.hops[i];
    }
    out << "\n";
  }

  const FaultReport faults = fault_report(trace);
  if (faults.any()) {
    out << "\n-- fault injection --\n";
    static const char* kTypeNames[] = {"drop", "dup", "delay", "corrupt",
                                       "partition"};
    out << "injected=" << faults.injected_total;
    for (std::size_t i = 0; i < faults.injected_by_type.size(); ++i) {
      if (faults.injected_by_type[i] == 0) continue;
      out << "  " << kTypeNames[i] << "=" << faults.injected_by_type[i];
    }
    out << "\n";
    out << "checksum_drops=" << faults.corrupted_frames
        << "  rpc_backoffs=" << faults.backoffs
        << "  rpc_failures=" << faults.failures << "\n";
    out << "fault spans overlapping an injection: "
        << faults.overlapping_faults << " (mean "
        << format_us(faults.mean_overlapping) << ") vs " << faults.clean_faults
        << " clean (mean " << format_us(faults.mean_clean) << ")\n";
  }

  const CausalityReport causality = causality_audit(trace, window_complete);
  out << "\n-- rpc causality --\n";
  out << "requests=" << causality.requests
      << "  broadcasts=" << causality.broadcasts
      << "  replies=" << causality.replies
      << "  duplicate_replies=" << causality.duplicate_replies
      << "  cancelled=" << causality.cancelled
      << "  failed=" << causality.failed
      << "  unanswered=" << causality.unanswered
      << "  unmatched=" << causality.unmatched_replies
      << "  orphans_observed=" << causality.orphan_events << "\n";
  for (const std::string& line : causality.flagged) {
    out << "  ! " << line << "\n";
  }

  if (metrics != nullptr) {
    out << "\n-- trace vs counters --\n";
    out << "counter                metrics      trace  status\n";
    for (const CrossCheckRow& row : cross_check(trace, *metrics)) {
      char line[160];
      std::snprintf(line, sizeof(line), "%-20s %10llu %10llu  %s%s%s",
                    row.counter.c_str(),
                    static_cast<unsigned long long>(row.from_metrics),
                    static_cast<unsigned long long>(row.from_trace),
                    row.checked ? (row.ok ? "OK" : "MISMATCH")
                                : "not checked",
                    row.note.empty() ? "" : ": ", row.note.c_str());
      out << line << "\n";
    }
  }
  return out.str();
}

// --- perf-baseline bench files ----------------------------------------

Time BenchPoint::category_total(const std::string& cat) const {
  Time total = 0;
  for (const auto& node : per_node) {
    const auto it = node.find(cat);
    if (it != node.end()) total += it->second;
  }
  return total;
}

const BenchPoint* BenchFile::find(const std::string& workload,
                                  const std::string& manager,
                                  std::uint32_t nodes) const {
  for (const BenchPoint& p : points) {
    if (p.workload == workload && p.manager == manager && p.nodes == nodes) {
      return &p;
    }
  }
  return nullptr;
}

bool load_bench_json(const std::string& path, BenchFile* out,
                     std::string* error) {
  Json root;
  if (!parse_file(path, &root, error)) return false;
  if (root.type != Json::kObj) {
    *error = "bench file is not a JSON object";
    return false;
  }
  *out = BenchFile{};
  if (const Json* v = root.find("name")) out->name = v->str;
  if (const Json* v = root.find("reduced")) out->reduced = v->boolean;
  const Json* points = root.find("points");
  if (points == nullptr || points->type != Json::kArr) {
    *error = "bench file has no \"points\" array";
    return false;
  }
  for (const Json& jp : points->arr) {
    BenchPoint p;
    if (const Json* v = jp.find("workload")) p.workload = v->str;
    if (const Json* v = jp.find("manager")) p.manager = v->str;
    if (const Json* v = jp.find("nodes")) {
      p.nodes = static_cast<std::uint32_t>(v->as_u64());
    }
    if (const Json* v = jp.find("elapsed_ns")) {
      p.elapsed = static_cast<Time>(v->as_u64());
    }
    if (const Json* v = jp.find("accounted_ns")) {
      p.accounted = static_cast<Time>(v->as_u64());
    }
    if (const Json* v = jp.find("verified")) p.verified = v->boolean;
    if (const Json* v = jp.find("hops_read")) p.hops_read = v->as_u64();
    if (const Json* v = jp.find("hops_write")) p.hops_write = v->as_u64();
    if (const Json* c = jp.find("counters"); c != nullptr &&
        c->type == Json::kObj) {
      for (const auto& [k, v] : c->obj) p.counters[k] = v.as_u64();
    }
    if (const Json* pn = jp.find("per_node"); pn != nullptr &&
        pn->type == Json::kArr) {
      for (const Json& jn : pn->arr) {
        std::map<std::string, Time> cats;
        for (const auto& [k, v] : jn.obj) {
          cats[k] = static_cast<Time>(v.as_u64());
        }
        p.per_node.push_back(std::move(cats));
      }
    }
    if (p.workload.empty() || p.manager.empty() || p.nodes == 0) {
      *error = "bench point missing workload/manager/nodes";
      return false;
    }
    out->points.push_back(std::move(p));
  }
  return true;
}

namespace {

std::string point_key(const BenchPoint& p) {
  return p.workload + "/" + p.manager + "/N=" + std::to_string(p.nodes);
}

std::uint64_t counter_of(const BenchPoint& p, const std::string& name) {
  const auto it = p.counters.find(name);
  return it == p.counters.end() ? 0 : it->second;
}

}  // namespace

std::vector<std::string> bench_audit(const BenchFile& bench) {
  std::vector<std::string> findings;
  const auto flag = [&](const BenchPoint& p, const std::string& what) {
    findings.push_back(point_key(p) + ": " + what);
  };
  // Wait-category -> counters that must be nonzero if any node spent
  // time there.  A profiler category with no backing counter means the
  // two observability paths disagree about what happened.
  struct Implication {
    const char* cat;
    std::vector<const char*> counters;  // at least one must be nonzero
  };
  static const std::vector<Implication> kImplications = {
      {"read_fault_locate", {"read_faults"}},
      {"read_fault_transfer", {"read_faults"}},
      {"read_fault_invalidate", {"read_faults"}},
      {"write_fault_locate", {"write_faults"}},
      {"write_fault_transfer", {"write_faults"}},
      {"write_fault_invalidate", {"write_faults"}},
      {"lock_wait", {"lock_acquisitions"}},
      {"lock_spin", {"lock_acquisitions"}},
      {"sync_wait", {"ec_waits"}},
      {"backoff", {"rpc_backoffs"}},
      {"migration", {"migrations", "migration_rejects"}},
      {"disk", {"disk_reads", "disk_writes"}},
  };
  for (const BenchPoint& p : bench.points) {
    if (!p.verified) flag(p, "workload did not verify");
    if (p.per_node.size() != p.nodes) {
      flag(p, "per_node has " + std::to_string(p.per_node.size()) +
                  " entries for " + std::to_string(p.nodes) + " nodes");
      continue;
    }
    if (p.accounted < p.elapsed) {
      flag(p, "accounted_ns " + std::to_string(p.accounted) +
                  " < elapsed_ns " + std::to_string(p.elapsed));
    }
    // The tentpole invariant: every node's categories sum to the
    // accounted virtual time exactly — no cycle unattributed, none
    // double-counted.
    for (std::size_t n = 0; n < p.per_node.size(); ++n) {
      Time sum = 0;
      for (const auto& [cat, ns] : p.per_node[n]) sum += ns;
      if (sum != p.accounted) {
        flag(p, "node " + std::to_string(n) + " categories sum to " +
                    std::to_string(sum) + " ns, accounted is " +
                    std::to_string(p.accounted) + " ns");
      }
    }
    for (const Implication& imp : kImplications) {
      if (p.category_total(imp.cat) == 0) continue;
      bool backed = false;
      for (const char* c : imp.counters) {
        if (counter_of(p, c) > 0) backed = true;
      }
      if (!backed) {
        std::string need;
        for (const char* c : imp.counters) {
          if (!need.empty()) need += "+";
          need += c;
        }
        flag(p, std::string(imp.cat) + " time recorded but " + need +
                    " == 0");
      }
    }
    if (p.hops_read + p.hops_write > 0 && counter_of(p, "forwards") == 0 &&
        counter_of(p, "broadcasts") == 0) {
      flag(p, "fault hops recorded but forwards == broadcasts == 0");
    }
    // Bodyless grants are decided per write fault served (or per
    // migration detach); more elisions than opportunities means the
    // counter is bumped on a resend path it must not be.
    const std::uint64_t bodyless = counter_of(p, "bodyless_upgrades");
    const std::uint64_t upgrades_possible =
        counter_of(p, "write_faults") + counter_of(p, "migrations");
    if (bodyless > upgrades_possible) {
      flag(p, "bodyless_upgrades " + std::to_string(bodyless) +
                  " exceeds write_faults+migrations " +
                  std::to_string(upgrades_possible));
    }
    // Every multicast invalidation round puts exactly one multicast (or,
    // under --broadcast-invalidation, broadcast) frame on the ring.
    if (counter_of(p, "invalidate_multicasts") >
        counter_of(p, "multicasts") + counter_of(p, "broadcasts")) {
      flag(p, "invalidate_multicasts recorded but too few "
              "multicast/broadcast frames on the wire");
    }
  }
  return findings;
}

std::string render_waterfall(const BenchFile& bench) {
  std::ostringstream out;
  // Group the sweep by (workload, manager), ascending node count.
  std::map<std::pair<std::string, std::string>, std::vector<const BenchPoint*>>
      groups;
  for (const BenchPoint& p : bench.points) {
    groups[{p.workload, p.manager}].push_back(&p);
  }
  for (auto& [key, pts] : groups) {
    std::sort(pts.begin(), pts.end(),
              [](const BenchPoint* a, const BenchPoint* b) {
                return a->nodes < b->nodes;
              });
    out << "\n-- speedup-loss waterfall: " << key.first << " / " << key.second
        << " --\n";
    const BenchPoint* base = pts.front()->nodes == 1 ? pts.front() : nullptr;
    if (base == nullptr) {
      out << "  (no single-node point; cannot decompose loss)\n";
      continue;
    }
    for (const BenchPoint* p : pts) {
      out << "  N=" << p->nodes << "  T=" << format_us(p->elapsed);
      if (p->nodes == 1) {
        out << "  (baseline)\n";
        continue;
      }
      const double speedup = p->elapsed == 0
                                 ? 0.0
                                 : static_cast<double>(base->elapsed) /
                                       static_cast<double>(p->elapsed);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "  speedup %.2f of %u", speedup,
                    p->nodes);
      out << buf << "\n";
      // Exact decomposition over accounted vtime:
      //   N*T_N - T_1 == sum_cats(N nodes) - sum_cats(1 node)
      // because each point's categories sum to accounted per node.
      const Time loss = static_cast<Time>(p->nodes) * p->accounted -
                        base->accounted;
      out << "     loss N*T-T1 = " << format_us(loss)
          << ", by category (delta vs baseline):\n";
      std::set<std::string> cats;
      for (const auto& node : p->per_node) {
        for (const auto& [c, ns] : node) cats.insert(c);
      }
      for (const auto& node : base->per_node) {
        for (const auto& [c, ns] : node) cats.insert(c);
      }
      std::vector<std::pair<std::string, Time>> deltas;
      Time reconciled = 0;
      for (const std::string& c : cats) {
        const Time d = p->category_total(c) - base->category_total(c);
        reconciled += d;
        if (d != 0) {
          deltas.emplace_back(c == "compute" ? "extra_compute" : c, d);
        }
      }
      std::sort(deltas.begin(), deltas.end(),
                [](const auto& a, const auto& b) {
                  return a.second > b.second;
                });
      for (const auto& [c, d] : deltas) {
        const double pct = loss == 0 ? 0.0
                                     : 100.0 * static_cast<double>(d) /
                                           static_cast<double>(loss);
        char row[128];
        std::snprintf(row, sizeof(row), "       %-22s %12s  %5.1f%%",
                      c.c_str(), format_us(d).c_str(), pct);
        out << row << "\n";
      }
      if (reconciled != loss) {
        out << "       ! category deltas sum to " << format_us(reconciled)
            << ", not " << format_us(loss) << " (attribution leak)\n";
      }
    }
  }
  return out.str();
}

std::vector<CompareRow> compare_bench(const BenchFile& older,
                                      const BenchFile& newer,
                                      double tolerance) {
  std::vector<CompareRow> rows;
  for (const BenchPoint& was : older.points) {
    CompareRow row;
    row.key = point_key(was);
    row.old_elapsed = was.elapsed;
    const BenchPoint* now = newer.find(was.workload, was.manager, was.nodes);
    if (now == nullptr) {
      row.missing = true;
      rows.push_back(std::move(row));
      continue;
    }
    row.new_elapsed = now->elapsed;
    row.old_wft = was.category_total("write_fault_transfer");
    row.new_wft = now->category_total("write_fault_transfer");
    row.new_bodyless = counter_of(*now, "bodyless_upgrades");
    row.ratio = was.elapsed == 0 ? 0.0
                                 : static_cast<double>(now->elapsed) /
                                       static_cast<double>(was.elapsed);
    row.within = was.elapsed != 0 &&
                 std::abs(row.ratio - 1.0) <= tolerance;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string render_compare(const std::vector<CompareRow>& rows,
                           double tolerance) {
  std::ostringstream out;
  char hdr[160];
  std::snprintf(hdr, sizeof(hdr), "%-28s %12s %12s %8s %11s %11s  %s\n",
                "point", "old", "new", "ratio", "wft_old", "wft_new",
                "status");
  out << hdr;
  std::size_t regressions = 0;
  Time wft_old_total = 0;
  Time wft_new_total = 0;
  std::uint64_t bodyless_total = 0;
  for (const CompareRow& row : rows) {
    char line[224];
    if (row.missing) {
      std::snprintf(line, sizeof(line),
                    "%-28s %12s %12s %8s %11s %11s  MISSING\n",
                    row.key.c_str(), format_us(row.old_elapsed).c_str(), "-",
                    "-", "-", "-");
      ++regressions;
    } else {
      std::snprintf(line, sizeof(line),
                    "%-28s %12s %12s %8.3f %11s %11s  %s\n", row.key.c_str(),
                    format_us(row.old_elapsed).c_str(),
                    format_us(row.new_elapsed).c_str(), row.ratio,
                    format_us(row.old_wft).c_str(),
                    format_us(row.new_wft).c_str(),
                    row.within ? "ok" : "REGRESSION");
      if (!row.within) ++regressions;
      wft_old_total += row.old_wft;
      wft_new_total += row.new_wft;
      bodyless_total += row.new_bodyless;
    }
    out << line;
  }
  char tail[96];
  std::snprintf(tail, sizeof(tail),
                "%zu point(s) outside tolerance %.0f%% (of %zu)\n",
                regressions, tolerance * 100.0, rows.size());
  out << tail;
  // The transfer-volume headline: how much write-fault transfer time the
  // new file spends vs the baseline, and how many grants went bodyless.
  if (wft_old_total > 0) {
    const double pct = 100.0 *
                       (static_cast<double>(wft_new_total) -
                        static_cast<double>(wft_old_total)) /
                       static_cast<double>(wft_old_total);
    char wft[160];
    std::snprintf(wft, sizeof(wft),
                  "write_fault_transfer total: %s -> %s (%+.1f%%), "
                  "bodyless_upgrades: %llu\n",
                  format_us(wft_old_total).c_str(),
                  format_us(wft_new_total).c_str(), pct,
                  static_cast<unsigned long long>(bodyless_total));
    out << wft;
  }
  return out.str();
}

}  // namespace ivy::trace
