#pragma once

/// \file summary.h
/// Streaming statistics accumulator used by the experiment harness: mean,
/// variance (Welford), min/max, and exact percentiles on demand.

#include <cstddef>
#include <string>
#include <vector>

namespace spr {

/// Accumulates doubles; O(1) per insert for moments, values retained for
/// percentile queries.
class Summary {
 public:
  void add(double value);

  std::size_t count() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  /// Every statistic of an *empty* summary is 0.0 — mean, min, max,
  /// variance, percentiles and the CI alike — so empty aggregates (e.g. a
  /// scheme with zero delivered packets) render as zeros everywhere
  /// instead of some accessors throwing while others default.
  double mean() const noexcept { return mean_; }
  double min() const noexcept;
  double max() const noexcept;
  double sum() const noexcept { return sum_; }

  /// Sample variance / standard deviation (n-1 denominator); 0 for n < 2.
  double variance() const noexcept;
  double stddev() const noexcept;

  /// Exact percentile by nearest-rank on the sorted sample, p in [0, 100];
  /// 0.0 when empty (consistent with min()/max()).
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  /// Half-width of the normal-approximation 95% confidence interval of the
  /// mean; 0 for n < 2.
  double ci95_half_width() const noexcept;

  /// "mean ± ci (min..max, n=count)" for logs.
  std::string to_string() const;

  /// Merges another summary into this one.
  void merge(const Summary& other);

  /// The retained samples, in insertion order — what merge() replays and
  /// what the wire JSON form (report/serialize.h) persists so a
  /// deserialized Summary reconstructs the accumulator bit-identically.
  const std::vector<double>& values() const noexcept { return values_; }

  /// Equal samples in the same order, hence equal moments. Compares like
  /// double ==: -0 equals 0, and a NaN sample equals nothing.
  bool operator==(const Summary&) const = default;

 private:
  std::vector<double> values_;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace spr
