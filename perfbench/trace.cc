#include "trace.h"

#include <cstdio>
#include <cstring>
#include <filesystem>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::string ModuleOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot - name);
}

}  // namespace

uint32_t Tracer::Open(const char* name) {
  Span s;
  s.name = name;
  s.stmt = stmt_;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_.push_back(s.id);
  return s.id;
}

void Tracer::Close(uint32_t id) {
  spans_[id - 1].end_ns = NowNs();
  open_.pop_back();
}

TraceTotals FoldSpans(const std::vector<const Tracer*>& tracers) {
  TraceTotals t;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    // Child time per parent id, then self = duration - children.
    std::vector<double> child_us(spans.size() + 1, 0.0);
    for (const Span& s : spans) {
      if (s.parent != 0) child_us[s.parent] += (s.end_ns - s.start_ns) / 1e3;
    }
    for (const Span& s : spans) {
      double dur = (s.end_ns - s.start_ns) / 1e3;
      t.self_us[ModuleOf(s.name)] += dur - child_us[s.id];
      t.total_us[s.name] += dur;
      ++t.calls[s.name];
    }
    t.spans += spans.size();
  }
  return t;
}

double MeanUs(const TraceTotals& t, const std::string& name) {
  auto calls = t.calls.find(name);
  if (calls == t.calls.end() || calls->second == 0) return 0;
  return t.total_us.at(name) / static_cast<double>(calls->second);
}

bool WriteSpans(const std::vector<const Tracer*>& tracers,
                const std::string& path) {
  std::error_code ec;
  std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Tracer* tracer : tracers) {
    size_t written = 0;
    for (const Span& s : tracer->spans()) {
      if (++written > kMaxWrittenSpans) break;
      std::fprintf(f,
                   "{\"thread\": %u, \"id\": %u, \"parent\": %u, "
                   "\"stmt\": %llu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld}\n",
                   tracer->thread(), s.id, s.parent,
                   static_cast<unsigned long long>(s.stmt), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

void ReportSelfTimes(const TraceTotals& totals, uint64_t statements,
                     Report* report) {
  double per = statements == 0 ? 0.0 : 1.0 / static_cast<double>(statements);
  for (const MetricDef& d : PerLayerMetrics()) {
    std::string name = d.name;
    const std::string suffix = ".self_us";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    std::string module = name.substr(0, name.size() - suffix.size());
    auto it = totals.self_us.find(module);
    report->Set(name, it == totals.self_us.end() ? 0.0 : it->second * per);
  }
  report->Set("trace.spans", static_cast<double>(totals.spans));
}

}  // namespace perfbench
