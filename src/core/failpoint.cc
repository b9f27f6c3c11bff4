#include "core/failpoint.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>
#include <utility>

namespace reach {

namespace {

struct ParsedAction {
  FailpointAction action = FailpointAction::kNone;
  double p = 1.0;
  bool seed_set = false;
  uint64_t seed = 0;
  uint64_t ms = 0;
  uint64_t bytes = 0;
  int64_t times = -1;
  uint64_t skip = 0;
};

void SetParseError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

bool ParseU64(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

bool ParseProbability(std::string_view text, double* out) {
  // Accepts "1", "0.5", ".25" — no exponents, no sign, clamped to [0,1].
  if (text.empty()) return false;
  double value = 0.0;
  size_t i = 0;
  for (; i < text.size() && text[i] != '.'; ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    value = value * 10 + (text[i] - '0');
  }
  if (i < text.size()) {  // fractional part
    double scale = 0.1;
    for (++i; i < text.size(); ++i) {
      if (text[i] < '0' || text[i] > '9') return false;
      value += (text[i] - '0') * scale;
      scale *= 0.1;
    }
  }
  if (value < 0.0 || value > 1.0) return false;
  *out = value;
  return true;
}

bool ParseAction(std::string_view site, std::string_view text,
                 ParsedAction* out, std::string* error) {
  const size_t paren = text.find('(');
  std::string_view name = text.substr(0, paren);
  std::string_view params;
  if (paren != std::string_view::npos) {
    if (text.back() != ')') {
      SetParseError(error, std::string(site) + ": missing ')' in '" +
                               std::string(text) + "'");
      return false;
    }
    params = text.substr(paren + 1, text.size() - paren - 2);
  }
  if (name == "off") {
    out->action = FailpointAction::kNone;
  } else if (name == "error") {
    out->action = FailpointAction::kError;
  } else if (name == "delay") {
    out->action = FailpointAction::kDelay;
  } else if (name == "partial") {
    out->action = FailpointAction::kPartial;
  } else if (name == "eintr") {
    out->action = FailpointAction::kEintr;
  } else {
    SetParseError(error, std::string(site) + ": unknown action '" +
                             std::string(name) + "'");
    return false;
  }
  while (!params.empty()) {
    const size_t comma = params.find(',');
    const std::string_view kv = params.substr(0, comma);
    params = comma == std::string_view::npos ? std::string_view{}
                                             : params.substr(comma + 1);
    const size_t eq = kv.find('=');
    if (eq == std::string_view::npos) {
      SetParseError(error, std::string(site) + ": parameter '" +
                               std::string(kv) + "' needs key=value");
      return false;
    }
    const std::string_view key = kv.substr(0, eq);
    const std::string_view value = kv.substr(eq + 1);
    bool ok = true;
    if (key == "p") {
      ok = ParseProbability(value, &out->p);
    } else if (key == "seed") {
      ok = ParseU64(value, &out->seed);
      out->seed_set = ok;
    } else if (key == "ms") {
      ok = ParseU64(value, &out->ms);
    } else if (key == "bytes") {
      ok = ParseU64(value, &out->bytes);
    } else if (key == "times") {
      uint64_t times = 0;
      ok = ParseU64(value, &times);
      out->times = static_cast<int64_t>(times);
    } else if (key == "skip") {
      ok = ParseU64(value, &out->skip);
    } else {
      SetParseError(error, std::string(site) + ": unknown parameter '" +
                               std::string(key) + "'");
      return false;
    }
    if (!ok) {
      SetParseError(error, std::string(site) + ": bad value for '" +
                               std::string(key) + "': '" +
                               std::string(value) + "'");
      return false;
    }
  }
  return true;
}

// FNV-1a over the site name: the default per-site seed, so unseeded runs
// are still deterministic and distinct sites see distinct streams.
uint64_t HashSiteName(std::string_view name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Splits `spec` into site=action entries at top-level ';' or ','
// (commas inside parentheses separate parameters, not entries).
std::vector<std::string> SplitEntries(const std::string& spec) {
  std::vector<std::string> entries;
  std::string cur;
  int depth = 0;
  for (const char c : spec) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if ((c == ';' || (c == ',' && depth == 0))) {
      if (!cur.empty()) entries.push_back(std::move(cur));
      cur.clear();
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\n') continue;
    cur.push_back(c);
  }
  if (!cur.empty()) entries.push_back(std::move(cur));
  return entries;
}

}  // namespace

const char* FailpointActionName(FailpointAction action) {
  switch (action) {
    case FailpointAction::kNone:
      return "none";
    case FailpointAction::kError:
      return "error";
    case FailpointAction::kPartial:
      return "partial";
    case FailpointAction::kEintr:
      return "eintr";
    case FailpointAction::kDelay:
      return "delay";
  }
  return "?";
}

FailpointRegistry::FailpointRegistry() {
  const char* spec = std::getenv("REACH_FAILPOINTS");
  if (spec == nullptr || spec[0] == '\0') return;
  std::string error;
  if (!Configure(spec, &error)) {
    std::fprintf(stderr, "warning: REACH_FAILPOINTS ignored: %s\n",
                 error.c_str());
    return;
  }
  // Every build honors the spec, so say so: a production process armed
  // from its environment should not fail silently.
  std::string names;
  for (const std::string& name : ArmedSites()) {
    names += (names.empty() ? "" : ", ") + name;
  }
  if (names.empty()) return;
  std::fprintf(stderr, "warning: REACH_FAILPOINTS armed: %s\n",
               names.c_str());
}

// Any binary with a site links this file, so the registry is built
// before main(): an environment spec is applied and announced at startup,
// not when the process first reaches a site.
[[maybe_unused]] static const FailpointRegistry& kStartupRegistry =
    FailpointRegistry::Global();

bool FailpointRegistry::Configure(const std::string& spec,
                                  std::string* error) {
  // Validate every entry before arming any, so a typo can't half-apply.
  struct Entry {
    std::string site;
    ParsedAction action;
  };
  std::vector<Entry> parsed;
  for (const std::string& entry : SplitEntries(spec)) {
    const size_t eq = entry.find('=');
    if (eq == 0 || eq == std::string::npos) {
      SetParseError(error, "entry '" + entry + "' needs site=action");
      return false;
    }
    Entry e;
    e.site = entry.substr(0, eq);
    if (!ParseAction(e.site, std::string_view(entry).substr(eq + 1),
                     &e.action, error)) {
      return false;
    }
    parsed.push_back(std::move(e));
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : parsed) {
    if (e.action.action == FailpointAction::kNone) {
      sites_.erase(e.site);
      continue;
    }
    Site site;
    site.action = e.action.action;
    site.p = e.action.p;
    site.delay_ms = e.action.ms;
    site.bytes = e.action.bytes;
    site.times_left = e.action.times;
    site.skip_left = e.action.skip;
    site.rng = Xoshiro256ss(e.action.seed_set ? e.action.seed
                                              : HashSiteName(e.site));
    sites_[e.site] = site;
  }
  any_armed_.store(!sites_.empty(), std::memory_order_release);
  return true;
}

bool FailpointRegistry::Arm(const std::string& site,
                            const std::string& action_spec,
                            std::string* error) {
  return Configure(site + "=" + action_spec, error);
}

void FailpointRegistry::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.erase(site);
  any_armed_.store(!sites_.empty(), std::memory_order_release);
}

void FailpointRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  any_armed_.store(false, std::memory_order_release);
}

FailpointHit FailpointRegistry::Evaluate(const char* site) {
  FailpointHit hit;
  uint64_t sleep_ms = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sites_.find(site);
    if (it == sites_.end()) return hit;
    Site& s = it->second;
    if (s.skip_left > 0) {
      --s.skip_left;
      return hit;
    }
    if (s.times_left == 0) return hit;
    if (s.p < 1.0 && s.rng.NextDouble() >= s.p) return hit;
    if (s.times_left > 0) --s.times_left;
    ++s.hits;
    hit.action = s.action;
    if (s.action == FailpointAction::kPartial) hit.arg = s.bytes;
    if (s.action == FailpointAction::kDelay) {
      hit.arg = s.delay_ms;
      sleep_ms = s.delay_ms;
    }
  }
  if (sleep_ms > 0) {  // sleep off-lock so delayed sites don't serialize
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  return hit;
}

uint64_t FailpointRegistry::HitCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

std::vector<std::string> FailpointRegistry::ArmedSites() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(sites_.size());
  for (const auto& [name, site] : sites_) names.push_back(name);
  return names;
}

}  // namespace reach
