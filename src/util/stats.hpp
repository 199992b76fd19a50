// Streaming statistics and integer histograms used by the analysis layer
// and the benchmark harnesses.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace oblivious {

// Welford-style running mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  void merge(const RunningStats& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const double total = static_cast<double>(count_ + other.count_);
    const double delta = other.mean_ - mean_;
    m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                           static_cast<double>(other.count_) / total;
    mean_ += delta * static_cast<double>(other.count_) / total;
    count_ += other.count_;
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Histogram over small non-negative integer values (e.g. bridge heights,
// edge loads). Bins grow on demand.
class IntHistogram {
 public:
  void add(std::int64_t value, std::uint64_t weight = 1) {
    OBLV_REQUIRE(value >= 0, "IntHistogram takes non-negative values");
    const auto idx = static_cast<std::size_t>(value);
    if (idx >= bins_.size()) bins_.resize(idx + 1, 0);
    bins_[idx] += weight;
    total_ += weight;
  }

  // Empties the histogram, keeping its bins' capacity.
  void clear() {
    bins_.assign(bins_.size(), 0);
    total_ = 0;
  }

  std::uint64_t total() const { return total_; }
  std::uint64_t count(std::int64_t value) const {
    const auto idx = static_cast<std::size_t>(value);
    return (value >= 0 && idx < bins_.size()) ? bins_[idx] : 0;
  }
  std::int64_t max_value() const {
    for (std::size_t i = bins_.size(); i-- > 0;) {
      if (bins_[i] > 0) return static_cast<std::int64_t>(i);
    }
    return -1;
  }
  std::size_t num_bins() const { return bins_.size(); }

  // Smallest v such that at least `q` fraction of the mass is <= v.
  std::int64_t quantile(double q) const {
    OBLV_REQUIRE(q >= 0.0 && q <= 1.0, "quantile in [0,1]");
    if (total_ == 0) return -1;
    const double target = q * static_cast<double>(total_);
    double cum = 0.0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      cum += static_cast<double>(bins_[i]);
      if (cum >= target) return static_cast<std::int64_t>(i);
    }
    return max_value();
  }

  double mean() const {
    if (total_ == 0) return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      sum += static_cast<double>(i) * static_cast<double>(bins_[i]);
    }
    return sum / static_cast<double>(total_);
  }

 private:
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
};

}  // namespace oblivious
