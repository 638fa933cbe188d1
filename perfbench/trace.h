// In-memory spans for the traced benchmark run.
//
// A span is (name, start, end, parent, query id). Each thread that drives
// queries owns one Trace; spans nest through an open-span stack, so a
// span's parent is whatever span was open on the same Trace when it
// started. Nothing is written until the run ends. A span's self time is
// its duration minus the durations of its direct children.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index in the same Trace; -1 = root
  uint64_t query = 0;
};

/// One thread's spans. Not thread-safe by design: one Trace per thread.
class Trace {
 public:
  int Open(const char* name, uint64_t query) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.query = query;
    span.start_ns = NowNs();
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void Close(int index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    stack_.pop_back();
  }
  /// Appends a finished root span (e.g. a leg recorded by a link).
  void Add(const Span& span) { spans_.push_back(span); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null trace records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, uint64_t query)
      : trace_(trace), index_(trace ? trace->Open(name, query) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  int index_;
};

/// Per query, per span name: summed self time in nanoseconds.
using SelfTimes = std::map<uint64_t, std::map<std::string, int64_t>>;

inline void AccumulateSelfTimes(const Trace& trace, SelfTimes* out) {
  const std::vector<Span>& spans = trace.spans();
  std::vector<int64_t> children(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0)
      children[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    (*out)[s.query][s.name] += (s.end_ns - s.start_ns) - children[i];
  }
}

/// For every span named `parent_name`: the share of its duration covered
/// by its direct children, keyed by query id.
inline std::map<uint64_t, double> ChildCoverage(
    const Trace& trace, const std::string& parent_name) {
  const std::vector<Span>& spans = trace.spans();
  std::vector<int64_t> children(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0)
      children[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<uint64_t, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (parent_name != s.name || s.end_ns <= s.start_ns) continue;
    out[s.query] = static_cast<double>(children[i]) /
                   static_cast<double>(s.end_ns - s.start_ns);
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
