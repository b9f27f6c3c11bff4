#include "spans.h"

#include <cinttypes>
#include <cstdio>

namespace reachbench {

SpanLane* SpanLog::NewLane(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto index = static_cast<uint32_t>(lanes_.size() + 1);
  return &lanes_.emplace_back(index, name, origin_);
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t dropped = 0;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const SpanLane& lane : lanes_) {
    dropped += lane.dropped_;
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", lane.index_, lane.name_.c_str());
    first = false;
    for (const SpanLane::Span& s : lane.spans_) {
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
                   ",\"calls\":%u}}",
                   s.name, lane.index_, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3, s.id, s.count);
    }
  }
  std::fprintf(f, "\n],\"otherData\":{\"dropped_spans\":%" PRIu64 "}}\n",
               dropped);
  return std::fclose(f) == 0;
}

}  // namespace reachbench
