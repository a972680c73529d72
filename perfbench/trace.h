// Span recorder for the traced run. The benchmark wraps each call it makes
// into an engine module's public API in a span named "<module>.<call>"; a
// span's parent is the span open around it on the same thread, and every
// span carries the id of the statement it served (0 = set-up). Spans stay
// in memory until the run ends, then are written out as JSON lines and
// folded into per-module self time: a span's duration minus the part its
// child spans cover.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  const char* name = "";  // "<module>.<call>"; a string literal.
  uint64_t stmt = 0;
  uint32_t id = 0;        // 1-based within its Tracer; 0 = no parent.
  uint32_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's spans. Not thread-safe: each thread owns its own Tracer.
class Tracer {
 public:
  explicit Tracer(uint32_t thread) : thread_(thread) {}

  void set_statement(uint64_t stmt) { stmt_ = stmt; }
  uint32_t Open(const char* name);
  void Close(uint32_t id);

  uint32_t thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_;
  uint64_t stmt_ = 0;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;  // Stack of open span ids.
};

/// RAII span; a null tracer records nothing (the untraced path).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Open(name) : 0) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  uint32_t id_;
};

/// Totals folded from the spans of every thread.
struct TraceTotals {
  size_t spans = 0;
  std::map<std::string, double> self_us;  // By module (name prefix).
  std::map<std::string, double> total_us;  // By full span name.
  std::map<std::string, uint64_t> calls;   // By full span name.
};

TraceTotals FoldSpans(const std::vector<const Tracer*>& tracers);

/// Mean duration of the calls named `name`, microseconds (0 if none).
double MeanUs(const TraceTotals& t, const std::string& name);

/// Spans written per thread; all of them still count in FoldSpans.
inline constexpr size_t kMaxWrittenSpans = 50000;

/// Writes each thread's first kMaxWrittenSpans spans as one JSON object per
/// line; false on I/O failure.
bool WriteSpans(const std::vector<const Tracer*>& tracers,
                const std::string& path);

/// Sets "<module>.self_us" (per statement) for every module in
/// PerLayerMetrics that has one, plus "trace.spans".
void ReportSelfTimes(const TraceTotals& totals, uint64_t statements,
                     Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
