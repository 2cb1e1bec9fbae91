// Shared plumbing for the benchmark executable: wall/CPU clocks, the in-memory
// span log the traced runs record around every call into a layer, the
// result object printed as the run's last line, and small statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Every untraced run measures at least this many episodes, however short
/// --seconds is.
constexpr int kMinEpisodes = 3;

/// Seconds elapsed since `since` on the steady clock.
double seconds_since(Clock::time_point since);
/// User + system CPU seconds of this process, every thread included.
double cpu_seconds();
/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Per-episode seed: a SplitMix64 step over (run seed, episode index), so
/// one --seed names a fixed, reproducible sequence of episode inputs.
std::uint64_t episode_seed(std::uint64_t run_seed, std::uint64_t episode);

/// Exact percentile (p in [0, 100], linear interpolation); 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: corrupt the finished run's state before the
  /// correctness gate inspects it. The gate must then fail the run.
  bool corrupt = false;
  /// Directory for run artefacts (spans, result detail, UDS sockets).
  std::string out_dir = ".bench_build/run";
};

/// Wall-clock spans the benchmark records around its own calls into the
/// system's layers (traced runs only). Kept in memory, bounded, and written
/// out as Chrome/Perfetto trace-event JSON when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* layer = "";
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    std::uint32_t episode = 0;
  };

  explicit SpanLog(bool enabled, std::size_t capacity = 1u << 21);

  void set_episode(std::uint32_t episode) noexcept { episode_ = episode; }

  /// Run `fn`, record it as one span of `layer`/`name` when enabled, and
  /// return its wall duration in nanoseconds (measured either way).
  template <typename Fn>
  std::int64_t time(const char* layer, const char* name, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    const std::int64_t dur =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
    if (enabled_) record(layer, name, start, dur);
    return dur;
  }

  std::uint64_t dropped() const noexcept { return dropped_; }
  /// Summed span time per layer, seconds, in first-seen order.
  std::vector<std::pair<std::string, double>> busy_by_layer() const;
  /// Chrome trace-event JSON: pid 1, one thread per layer, "X" events.
  void write_chrome(std::ostream& os) const;

 private:
  void record(const char* layer, const char* name, Clock::time_point start,
              std::int64_t dur_ns);

  bool enabled_;
  std::size_t capacity_;
  std::uint32_t episode_ = 0;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// What one run reports. `metrics` are the contract metrics (printed on the
/// last line); `detail` carries sample counts, quartiles and the
/// workload-specific numbers that do not exist on every workload.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  std::vector<std::string> problems;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, value, unit});
  }
  void fail(std::string problem) {
    correct = false;
    problems.push_back(std::move(problem));
  }
};

/// What an untraced run measured, episode by episode; report_end_to_end
/// folds it into the end-to-end metrics, in BENCHMARK.json's order.
struct EndToEnd {
  std::vector<double> rate;     ///< committed sessions per wall-second, per episode
  std::vector<double> cpu_ms;   ///< CPU milliseconds per commit, per episode
  std::vector<double> setup_s;  ///< every timed set-up
  double commits = 0;
  double messages = 0;
  double wire_bytes = 0;
  double attempted = 0;  ///< operations
  double succeeded = 0;
};

/// Call after every gate problem has been recorded in `report`: a run that
/// failed its gate counts every attempted operation as failed.
void report_end_to_end(const EndToEnd& run, Report& report);

/// JSON string literal with escapes.
std::string json_string(const std::string& text);
/// Shortest round-tripping decimal form of `value`.
std::string json_number(double value);

}  // namespace perfbench
