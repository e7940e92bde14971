// Statistics primitives used by the power/energy accounting and the
// experiment harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/bytes.hpp"

namespace ptb {

/// Streaming mean / variance / min / max (Welford's algorithm).
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  void reset() { *this = RunningStat{}; }

  // Checkpoint support (sim/checkpoint): the raw accumulator words, so a
  // restored stat continues Welford's recurrence bit-exactly.
  void save_state(ByteWriter& w) const {
    w.u64(n_);
    w.f64(mean_);
    w.f64(m2_);
    w.f64(min_);
    w.f64(max_);
  }
  void load_state(ByteReader& r) {
    n_ = r.u64();
    mean_ = r.f64();
    m2_ = r.f64();
    min_ = r.f64();
    max_ = r.f64();
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bucket histogram over [lo, hi); out-of-range samples clamp to the
/// edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  std::uint64_t bucket_count(std::size_t i) const { return counts_[i]; }
  std::size_t buckets() const { return counts_.size(); }
  std::uint64_t total() const { return total_; }
  /// Sum of all recorded samples (pre-clamping), for mean/exposition.
  double sum() const { return sum_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double bucket_lo(std::size_t i) const;
  /// Value below which the given fraction of samples fall (bucket-granular).
  double percentile(double p) const;

  // Checkpoint support: counts only — the [lo, hi) geometry is configuration
  // and must match at restore (the caller re-creates the histogram from the
  // same config before loading).
  void save_state(ByteWriter& w) const {
    w.u64_vec(counts_);
    w.u64(total_);
    w.f64(sum_);
  }
  void load_state(ByteReader& r) {
    std::vector<std::uint64_t> c;
    r.u64_vec(c);
    if (c.size() != counts_.size()) {
      r.fail();
      return;
    }
    counts_ = std::move(c);
    total_ = r.u64();
    sum_ = r.f64();
  }

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// Decimating time-series recorder: keeps at most `max_points` samples by
/// doubling the decimation stride when full. Used for per-cycle power traces
/// (Figure 6) without unbounded memory.
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t max_points = 1 << 14);

  void add(double t, double v);
  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }
  std::size_t size() const { return times_.size(); }

  // Checkpoint support: decimation state + points, so a restored series
  // keeps decimating exactly where the saved run left off. A state add()
  // could not continue from (zero stride, fewer than two points allowed,
  // more points than allowed) fails the reader.
  void save_state(ByteWriter& w) const {
    w.u64(max_points_);
    w.u64(stride_);
    w.u64(seen_);
    w.f64_vec(times_);
    w.f64_vec(values_);
  }
  void load_state(ByteReader& r) {
    max_points_ = static_cast<std::size_t>(r.u64());
    stride_ = r.u64();
    seen_ = r.u64();
    r.f64_vec(times_);
    r.f64_vec(values_);
    if (stride_ == 0 || max_points_ < 2 || times_.size() != values_.size() ||
        times_.size() > max_points_) {
      r.fail();
    }
  }

 private:
  std::size_t max_points_;
  std::uint64_t stride_ = 1;
  std::uint64_t seen_ = 0;
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace ptb
