#include "ivy/fault/spec.h"

#include <cctype>
#include <cstdlib>

namespace ivy::fault {
namespace {

bool parse_kind(const std::string& name, net::MsgKind* out) {
  for (const net::MsgKindName& k : net::kMsgKindNames) {
    if (k.kind != net::MsgKind::kInvalid && name == k.name) {
      *out = k.kind;
      return true;
    }
  }
  return false;
}

bool parse_prob(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && !text.empty() && *out >= 0.0 &&
         *out <= 1.0;
}

bool parse_node(const std::string& text, NodeId* out) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || text.empty() || v >= kMaxNodes) {
    return false;
  }
  *out = static_cast<NodeId>(v);
  return true;
}

/// "A-B" node pair.
bool parse_pair(const std::string& text, NodeId* a, NodeId* b) {
  const std::size_t dash = text.find('-');
  if (dash == std::string::npos) return false;
  return parse_node(text.substr(0, dash), a) &&
         parse_node(text.substr(dash + 1), b) && *a != *b;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    parts.push_back(text.substr(start, pos - start));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return parts;
}

/// Applies one "/qual=value" qualifier to a rule.
bool apply_qualifier(const std::string& qual, FaultRule* rule,
                     std::string* error) {
  const std::size_t eq = qual.find('=');
  if (eq == std::string::npos) {
    *error = "qualifier '" + qual + "' is not name=value";
    return false;
  }
  const std::string name = qual.substr(0, eq);
  const std::string value = qual.substr(eq + 1);
  if (name == "kind") {
    net::MsgKind kind;
    if (!parse_kind(value, &kind)) {
      *error = "unknown message kind '" + value + "'";
      return false;
    }
    rule->kind = kind;
    return true;
  }
  if (name == "pair") {
    if (!parse_pair(value, &rule->pair_a, &rule->pair_b)) {
      *error = "bad node pair '" + value + "' (want A-B)";
      return false;
    }
    return true;
  }
  if (name == "t") {
    const std::size_t plus = value.find('+');
    Time start = 0;
    Time dur = 0;
    if (plus == std::string::npos ||
        !parse_duration(value.substr(0, plus), &start) ||
        !parse_duration(value.substr(plus + 1), &dur) || dur <= 0) {
      *error = "bad window '" + value + "' (want START+DUR)";
      return false;
    }
    rule->window_start = start;
    rule->window_end = start + dur;
    return true;
  }
  *error = "unknown qualifier '" + name + "'";
  return false;
}

bool parse_item(const std::string& item, FaultRule* rule,
                std::string* error) {
  const std::vector<std::string> parts = split(item, '/');
  const std::size_t eq = parts[0].find('=');
  if (eq == std::string::npos) {
    *error = "fault item '" + item + "' is not name=value";
    return false;
  }
  const std::string name = parts[0].substr(0, eq);
  const std::string value = parts[0].substr(eq + 1);

  if (name == "drop" || name == "dup" || name == "corrupt") {
    rule->type = name == "drop"      ? FaultType::kDrop
                 : name == "dup"     ? FaultType::kDuplicate
                                     : FaultType::kCorrupt;
    if (!parse_prob(value, &rule->prob)) {
      *error = name + " expects a probability in [0,1], got '" + value + "'";
      return false;
    }
  } else if (name == "delay") {
    // delay=DUR@P
    rule->type = FaultType::kDelay;
    const std::size_t at = value.find('@');
    if (at == std::string::npos || !parse_duration(value.substr(0, at),
                                                   &rule->delay) ||
        rule->delay <= 0 || !parse_prob(value.substr(at + 1), &rule->prob)) {
      *error = "delay expects DUR@P, got '" + value + "'";
      return false;
    }
  } else if (name == "partition") {
    // partition=A-B:DUR@t=START
    rule->type = FaultType::kPartition;
    rule->prob = 1.0;
    const std::size_t colon = value.find(':');
    const std::size_t at = value.find("@t=");
    Time dur = 0;
    if (colon == std::string::npos || at == std::string::npos || at < colon ||
        !parse_pair(value.substr(0, colon), &rule->pair_a, &rule->pair_b) ||
        !parse_duration(value.substr(colon + 1, at - colon - 1), &dur) ||
        dur <= 0 || !parse_duration(value.substr(at + 3),
                                    &rule->window_start)) {
      *error = "partition expects A-B:DUR@t=START, got '" + value + "'";
      return false;
    }
    rule->window_end = rule->window_start + dur;
    if (parts.size() > 1) {
      *error = "partition takes no qualifiers";
      return false;
    }
    return true;
  } else {
    *error = "unknown fault item '" + name + "'";
    return false;
  }

  for (std::size_t i = 1; i < parts.size(); ++i) {
    if (!apply_qualifier(parts[i], rule, error)) return false;
  }
  return true;
}

}  // namespace

const char* to_string(FaultType type) {
  switch (type) {
    case FaultType::kDrop: return "drop";
    case FaultType::kDuplicate: return "dup";
    case FaultType::kDelay: return "delay";
    case FaultType::kCorrupt: return "corrupt";
    case FaultType::kPartition: return "partition";
  }
  return "?";
}

bool FaultRule::matches(const net::Message& msg, NodeId recipient,
                        Time now) const {
  if (kind.has_value() && *kind != msg.kind) return false;
  if (pair_a != kNoNode) {
    const bool between = (msg.src == pair_a && recipient == pair_b) ||
                         (msg.src == pair_b && recipient == pair_a);
    if (!between) return false;
  }
  return now >= window_start && now < window_end;
}

bool parse_duration(const std::string& text, Time* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || v < 0) return false;
  const std::string suffix(end);
  double scale = 1.0;  // bare numbers are nanoseconds
  if (suffix == "ns" || suffix.empty()) {
    scale = 1.0;
  } else if (suffix == "us") {
    scale = 1e3;
  } else if (suffix == "ms") {
    scale = 1e6;
  } else if (suffix == "s") {
    scale = 1e9;
  } else {
    return false;
  }
  *out = static_cast<Time>(v * scale);
  return true;
}

bool parse_fault_spec(const std::string& text, FaultSpec* out,
                      std::string* error) {
  out->rules.clear();
  if (text.empty()) return true;
  for (const std::string& item : split(text, ',')) {
    if (item.empty()) {
      *error = "empty fault item";
      return false;
    }
    FaultRule rule;
    if (!parse_item(item, &rule, error)) return false;
    out->rules.push_back(rule);
  }
  return true;
}

}  // namespace ivy::fault
