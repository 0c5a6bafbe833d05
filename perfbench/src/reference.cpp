#include "reference.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

namespace {
// Sized for about 4 ms on a 2-3 GHz core: short against a step, long
// against timer resolution.
constexpr std::size_t kKeys = 8192;
constexpr int kLookupRounds = 4;
constexpr std::size_t kWords = 1024;
constexpr std::int64_t kArith = 1 << 19;
}  // namespace

ReferenceLoop::ReferenceLoop() {
  keys_.reserve(kKeys);
  values_.reserve(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const std::uint64_t k = mix_seed(0x5EF0, i);
    keys_.push_back(k);
    values_.push_back(static_cast<double>(k >> 11) * 0x1.0p-53);
  }
  words_.reserve(kWords);
  for (std::uint64_t i = 0; i < kWords; ++i) {
    words_.push_back(std::string("w").append(std::to_string(mix_seed(0x30D5, i) % 100000)));
  }
}

double ReferenceLoop::run_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t acc = sink_;

  std::unordered_map<std::uint64_t, std::uint32_t> table;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    table.emplace(keys_[i], static_cast<std::uint32_t>(i));
  }
  for (int round = 0; round < kLookupRounds; ++round) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      const auto it = table.find(keys_[(i * 7919 + round) % keys_.size()]);
      acc += it->second;
    }
  }

  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  acc += static_cast<std::uint64_t>(sorted[sorted.size() / 2] * 1e6);

  std::map<std::string, std::int64_t> counts;
  for (const std::string& w : words_) counts[w + "/x"] += 1;
  acc += counts.size();

  std::uint64_t x = acc | 1;
  double f = 1.0;
  for (std::int64_t i = 0; i < kArith; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    f = f * 0.999999 + static_cast<double>(x & 0xFF) * 1e-9;
  }
  acc += x + static_cast<std::uint64_t>(f * 1e3);

  sink_ = acc;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

PassClock::PassClock(ReferenceLoop& ref) : ref_(ref) {
  ref_ms_.push_back(ref_.run_ms());
}

void PassClock::end() {
  step_ms_.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start_)
                         .count());
  ref_ms_.push_back(ref_.run_ms());
}

}  // namespace perfbench
