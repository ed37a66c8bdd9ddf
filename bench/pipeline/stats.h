// Sample statistics for lfsc_bench: nearest-rank percentiles, and the
// rule that picks which tail percentile a sample count can support.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <numeric>
#include <vector>

namespace lfsc::bench {

/// Samples strictly above the nearest-rank q-percentile of n samples:
/// n - ceil(q * n). The epsilon keeps 0.99 * 1000 from rounding up.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(n, rank);
}

/// The highest of `candidates` that leaves at least `min_beyond` samples
/// beyond it, so a reported tail is never one or two outliers. Falls
/// back to the lowest candidate when the sample is too small for any.
inline double tail_quantile(std::size_t n,
                            std::initializer_list<double> candidates,
                            std::size_t min_beyond = 10) {
  double best = 0.0;
  double lowest = 1.0;
  for (const double q : candidates) {
    lowest = std::min(lowest, q);
    if (samples_beyond(n, q) >= min_beyond) best = std::max(best, q);
  }
  return best > 0.0 ? best : lowest;
}

/// Throughput robust to a transient slowdown of the host: the events
/// (completion times `ends`, ascending, after `start`) are cut into
/// `chunks` runs of consecutive events, and the median of the runs'
/// events-per-second is returned. 0 when there are no events.
inline double median_chunk_rate(double start, const std::vector<double>& ends,
                                std::size_t chunks) {
  const std::size_t n = ends.size();
  chunks = std::min(chunks, n);
  std::vector<double> rates;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t first = c * n / chunks;
    const std::size_t last = (c + 1) * n / chunks;  // one past
    const double begin = first == 0 ? start : ends[first - 1];
    const double seconds = ends[last - 1] - begin;
    if (seconds > 0.0) rates.push_back(double(last - first) / seconds);
  }
  if (rates.empty()) return 0.0;
  std::sort(rates.begin(), rates.end());
  const std::size_t mid = rates.size() / 2;
  return rates.size() % 2 == 1 ? rates[mid]
                               : (rates[mid - 1] + rates[mid]) / 2.0;
}

/// A growable sample of one measured quantity.
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  std::size_t size() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }
  const std::vector<double>& values() const noexcept { return values_; }

  /// Nearest-rank percentile: the smallest sample with at least q * n
  /// samples at or below it (q in (0, 1]). 0 for an empty sample.
  double percentile(double q) {
    if (values_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    const std::size_t rank = values_.size() - samples_beyond(values_.size(), q);
    return values_[rank == 0 ? 0 : rank - 1];
  }
  double median() { return percentile(0.5); }

  double mean() const {
    return empty() ? 0.0
                   : std::accumulate(values_.begin(), values_.end(), 0.0) /
                         double(size());
  }

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

}  // namespace lfsc::bench
