// Measurement support for the repository benchmark: host timers, sample
// summaries, an in-memory span tracer, and the record of named metrics
// and checks one workload run fills.
//
// Everything here sits outside the library: spans wrap calls into the
// public API of each layer (analysis, sim, cast, search), never code
// inside it.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of the whole process (all threads).
inline double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// ceil(log2 n): Mundinger et al.'s makespan floor for one message, in
/// forwarding rounds (hops).
inline std::uint32_t ceilLog2(std::uint64_t n) {
  std::uint32_t bits = 0;
  while ((std::uint64_t{1} << bits) < n) ++bits;
  return bits;
}

/// Host timings of repeated operations.
class Samples {
 public:
  void reserve(std::size_t n) { values_.reserve(n); }
  void add(double value) { values_.push_back(value); }
  std::size_t size() const noexcept { return values_.size(); }
  const std::vector<double>& values() const noexcept { return values_; }

  /// Nearest-rank percentile (0 when empty).
  double percentile(double p) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
    const std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(k, sorted.size() - 1)];
  }
  double median() const { return percentile(50.0); }

  /// The highest of p99.9/p99/p95/p90/p75 with at least ten samples
  /// above it, or the median when there are too few samples for any.
  /// Returns (percentile, value).
  std::pair<double, double> tail() const {
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0})
      if (static_cast<double>(values_.size()) * (1.0 - p / 100.0) >= 10.0)
        return {p, percentile(p)};
    return {50.0, median()};
  }

 private:
  std::vector<double> values_;
};

/// The host's current speed, read from a fixed piece of work that no
/// library code runs: a breadth-first search over a benchmark-owned random
/// graph (10k nodes x 20 out-links, 0.8 MiB of links: beyond a core's L1,
/// within its L2), the same kind of data-dependent graph walk the
/// workloads do. On a shared host the speed of such code drifts by up to
/// 40 % for minutes at a time while plain arithmetic does not (NOTES.md,
/// Steadiness), so the rates of the workloads that slow with it are scaled
/// by how much slower than on the reference machine this search runs in
/// the same process.
class HostSpeed {
 public:
  /// The search's median time on the reference machine when quiet.
  static constexpr double kReferenceMs = 0.32;

  HostSpeed()
      : links_(std::size_t{kNodes} * kDegree), seen_(kNodes), queue_(kNodes) {
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (auto& link : links_) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      link = static_cast<std::uint32_t>(x % kNodes);
    }
  }
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Times one search and keeps the sample. An untimed search first
  /// brings the graph back into the caches, so the sample measures the
  /// host, not how much of the graph the workload evicted.
  void sample() {
    search();
    const auto start = Clock::now();
    search();
    ms_.add(secondsSince(start) * 1e3);
  }
  /// Median search time over the reference time: 1.25 means the host runs
  /// graph code 25 % slower than the reference machine did.
  double slowdown() const { return ms_.median() / kReferenceMs; }
  std::size_t samples() const noexcept { return ms_.size(); }

 private:
  static constexpr std::uint32_t kNodes = 10'000;
  static constexpr std::uint32_t kDegree = 20;

  /// Breadth-first search from a rotating source.
  void search() {
    ++epoch_;
    std::uint32_t head = 0, tail = 0;
    queue_[tail++] = source_;
    seen_[source_] = epoch_;
    while (head < tail) {
      const std::uint32_t* out = &links_[std::size_t{queue_[head++]} * kDegree];
      for (std::uint32_t k = 0; k < kDegree; ++k) {
        if (seen_[out[k]] == epoch_) continue;
        seen_[out[k]] = epoch_;
        queue_[tail++] = out[k];
      }
    }
    reached_ = reached_ + tail;
    source_ = (source_ + 7919) % kNodes;
  }

  std::vector<std::uint32_t> links_, seen_, queue_;
  std::uint32_t epoch_ = 0, source_ = 0;
  Samples ms_;
  volatile std::uint64_t reached_ = 0;  // keeps the search observable
};

/// Counts of small non-negative integers (ticks, hops): percentiles and
/// the mean without keeping one sample per delivery. Values up to 255
/// never allocate after construction, so the histograms can fill inside
/// measured cycles.
class IntHistogram {
 public:
  IntHistogram() { counts_.reserve(256); }

  void add(std::uint64_t value, std::uint64_t count = 1) {
    if (value >= counts_.size()) counts_.resize(value + 1, 0);
    counts_[value] += count;
    total_ += count;
    sum_ += value * count;
  }
  double mean() const noexcept {
    return total_ ? static_cast<double>(sum_) / static_cast<double>(total_)
                  : 0.0;
  }
  /// Nearest-rank percentile (0 when empty).
  double percentile(double p) const {
    const double rank = std::ceil(p / 100.0 * static_cast<double>(total_));
    std::uint64_t seen = 0;
    for (std::size_t v = 0; v < counts_.size(); ++v) {
      seen += counts_[v];
      if (seen > 0 && static_cast<double>(seen) >= rank)
        return static_cast<double>(v);
    }
    return 0.0;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
};

/// One recorded span: a call into a layer's public API, timed from outside.
struct Span {
  const char* name = "";     ///< "<layer>.<call>", e.g. "sim.run_cycles"
  std::uint64_t id = 0;      ///< shared by the spans of one publish/query
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at the root
  double start = 0.0;        ///< seconds since the tracer was created
  double end = 0.0;
};

/// In-memory span recorder. When off, scope() costs one branch; when on,
/// two clock reads and one append to a pre-reserved vector per span.
/// Spans are written out only after the run (writeJsonLines).
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {
    if (on_) spans_.reserve(1u << 20);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const noexcept { return on_ && enabled_; }
  /// Pauses recording (the traced run alternates traced and untraced
  /// operations to measure the tracing overhead).
  void setEnabled(bool enabled) noexcept { enabled_ = enabled; }

  class Scope {
   public:
    Scope(Tracer* tracer, std::int32_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    Tracer* tracer_;
    std::int32_t index_;
  };

  Scope scope(const char* name, std::uint64_t id = 0) {
    if (!on()) return Scope(nullptr, -1);
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, id, current_, now(), 0.0});
    current_ = index;
    return Scope(this, index);
  }

  /// A zero-length span (an event observed through a library hook).
  void mark(const char* name, std::uint64_t id) {
    if (!on()) return;
    const double t = now();
    spans_.push_back({name, id, current_, t, t});
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time (span minus its children) summed per layer — the text of
  /// the span name before the first '.' — over the subtrees of the spans
  /// named `root`.
  std::map<std::string, double> selfTimeByLayer(const std::string& root) const {
    std::vector<double> childTime(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) childTime[s.parent] += s.end - s.start;
    std::vector<char> inside(spans_.size(), 0);
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      // Parents precede children, so one forward pass marks subtrees.
      inside[i] = (root == s.name) || (s.parent >= 0 && inside[s.parent]);
      if (!inside[i]) continue;
      const std::string name = s.name;
      self[name.substr(0, name.find('.'))] += s.end - s.start - childTime[i];
    }
    return self;
  }

  /// Writes one JSON object per span, in recording order.
  bool writeJsonLines(const std::string& path) const {
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Span& s : spans_)
      std::fprintf(out,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%d,"
                   "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   s.name, static_cast<unsigned long long>(s.id), s.parent,
                   s.start * 1e6, s.end * 1e6);
    return std::fclose(out) == 0;
  }

 private:
  double now() const { return secondsSince(origin_); }
  void close(std::int32_t index) {
    spans_[index].end = now();
    current_ = spans_[index].parent;
  }

  bool on_;
  bool enabled_ = true;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// The metrics and checks one workload run produces, in emission order.
class Report {
 public:
  /// A metric listed in BENCHMARK.json (end-to-end or per-layer).
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    metrics_.push_back({name, value, unit, note, false});
  }
  /// A workload-specific figure printed alongside the metrics (and kept
  /// in the record's "derived" object), e.g. publishes_per_s, the
  /// RingCast path's own rate inside ops_per_s on snapshot_replay.
  void derived(const std::string& name, double value, const std::string& unit,
               const std::string& note = "") {
    metrics_.push_back({name, value, unit, note, true});
  }
  /// A correctness check; a failed one makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
  }
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }
  /// Free-form observation lines (printed with the metrics).
  void note(const std::string& line) { notes_.push_back(line); }

  bool correct() const {
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const CheckEntry& c) { return c.ok; });
  }

  /// Human-readable lines followed by the one-line JSON record (last
  /// line of stdout, parsed by run.py).
  void print(const std::string& workload) const;

 private:
  struct MetricEntry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool derived;
  };
  struct CheckEntry {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<MetricEntry> metrics_;
  std::vector<CheckEntry> checks_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
