#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>

namespace perfbench {

namespace {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  contexts_.emplace_back("");
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::set_context(const std::string& ctx) {
  if (contexts_.back() != ctx) contexts_.push_back(ctx);
}

std::size_t Tracer::begin(std::string_view name) {
  auto [it, fresh] = name_ids_.try_emplace(std::string(name),
                                           static_cast<std::uint32_t>(names_.size()));
  if (fresh) names_.emplace_back(name);
  SpanRec rec;
  rec.name = it->second;
  rec.ctx = static_cast<std::uint32_t>(contexts_.size() - 1);
  rec.parent = open_;
  spans_.push_back(rec);
  open_ = static_cast<std::int64_t>(spans_.size() - 1);
  // Stamp the start last so bookkeeping is not billed to the span.
  spans_.back().start_ns = now_ns();
  return spans_.size() - 1;
}

void Tracer::end(std::size_t span) {
  SpanRec& rec = spans_[span];
  rec.end_ns = now_ns();
  open_ = rec.parent;
}

std::map<std::string, double> Tracer::total_ms(std::size_t first) const {
  std::map<std::string, double> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    out[names_[s.name]] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms(std::size_t first) const {
  // Spans nest strictly (one thread, scoped), so the children of a span
  // cover disjoint parts of it and self = duration - sum(child durations).
  std::vector<std::int64_t> self(spans_.size() - first, 0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    self[i - first] += dur;
    if (s.parent >= static_cast<std::int64_t>(first)) {
      self[static_cast<std::size_t>(s.parent) - first] -= dur;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    out[names_[spans_[i].name]] += static_cast<double>(self[i - first]) * 1e-6;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path, std::size_t limit) const {
  std::ofstream os(path);
  if (!os) return false;
  os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[\n";
  const std::size_t n = std::min(limit, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRec& s = spans_[i];
    os << (i == 0 ? "" : ",\n") << "{\"name\":";
    write_json_string(os, names_[s.name]);
    os << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(s.start_ns) * 1e-3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"ctx\":";
    write_json_string(os, contexts_[s.ctx]);
    os << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
