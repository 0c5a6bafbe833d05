// In-memory span recorder for the traced benchmark run.
//
// Spans are taken only in the benchmark's own code, around calls into the
// simulator's public functions; nothing inside the simulator is traced.
// Each span has a name, start, end, parent span and a context id (workload /
// experiment / rung).  Spans stay in memory and are written out as a Chrome
// trace when the run ends.  A layer's self time is its span's duration
// minus the part its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  Tracer();

  /// Context id stamped on spans begun from now on.
  void set_context(const std::string& ctx);

  [[nodiscard]] std::size_t begin(std::string_view name);
  void end(std::size_t span);

  /// Number of spans recorded so far (a pass boundary for self_ms()).
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Self time in ms per span name over spans [first, size()).
  [[nodiscard]] std::map<std::string, double> self_ms(std::size_t first) const;
  /// Total (inclusive) time in ms per span name over spans [first, size()).
  [[nodiscard]] std::map<std::string, double> total_ms(std::size_t first) const;

  /// Writes spans [0, limit) as Chrome trace-event JSON.  Returns false when
  /// the file cannot be written.
  bool write_chrome_json(const std::string& path, std::size_t limit) const;

 private:
  struct SpanRec {
    std::uint32_t name = 0;
    std::uint32_t ctx = 0;
    std::int64_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRec> spans_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
  std::vector<std::string> contexts_;
  std::int64_t open_ = -1;
};

/// Scoped span; records nothing when the tracer is null (untraced passes).
class Span {
 public:
  Span(Tracer* tracer, std::string_view name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::size_t id_;
};

}  // namespace perfbench
