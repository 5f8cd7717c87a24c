#include "trace.h"

#include <cstdio>

namespace t3::perfbench {

int Tracer::Begin(const char* name, uint64_t request) {
  if (!enabled()) return -1;
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans nest strictly on the one recording thread, so `index` is the
  // innermost open span.
  open_.pop_back();
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesNs() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, std::vector<double>> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]));
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"dropped\": %llu, \"spans\": [\n",
               static_cast<unsigned long long>(dropped_));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %llu}%s\n",
                 i, span.name,
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin), span.parent,
                 static_cast<unsigned long long>(span.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace t3::perfbench
