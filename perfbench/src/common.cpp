#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <ostream>

#include "metrics/stats.hpp"

namespace perfbench {

double seconds_since(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t episode_seed(std::uint64_t run_seed, std::uint64_t episode) {
  std::uint64_t z = run_seed * 0x9E3779B97F4A7C15ULL + episode + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  marp::metrics::Samples samples;
  for (double v : values) samples.add(v);
  return samples.percentile(p);
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

SpanLog::SpanLog(bool enabled, std::size_t capacity)
    : enabled_(enabled), capacity_(capacity), origin_(Clock::now()) {}

void SpanLog::record(const char* layer, const char* name, Clock::time_point start,
                     std::int64_t dur_ns) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(
      {layer, name,
       std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_).count(),
       dur_ns, episode_});
}

std::vector<std::pair<std::string, double>> SpanLog::busy_by_layer() const {
  std::vector<std::pair<std::string, double>> out;
  for (const Span& span : spans_) {
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& entry) { return entry.first == span.layer; });
    if (it == out.end()) it = out.insert(out.end(), {span.layer, 0.0});
    it->second += static_cast<double>(span.dur_ns) * 1e-9;
  }
  return out;
}

void SpanLog::write_chrome(std::ostream& os) const {
  std::vector<std::string> layers;
  for (const Span& span : spans_) {
    if (std::find(layers.begin(), layers.end(), span.layer) == layers.end()) {
      layers.emplace_back(span.layer);
    }
  }
  const auto tid_of = [&](const char* layer) {
    return std::find(layers.begin(), layers.end(), layer) - layers.begin() + 1;
  };
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  os << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"perfbench\"}}";
  for (const std::string& layer : layers) {
    os << ",{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid_of(layer.c_str())
       << ",\"name\":\"thread_name\",\"args\":{\"name\":" << json_string(layer) << "}}";
  }
  for (const Span& span : spans_) {
    os << ",{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid_of(span.layer)
       << ",\"name\":" << json_string(span.name)
       << ",\"cat\":" << json_string(span.layer)
       << ",\"ts\":" << json_number(static_cast<double>(span.start_ns) / 1000.0)
       << ",\"dur\":" << json_number(static_cast<double>(span.dur_ns) / 1000.0)
       << ",\"args\":{\"episode\":" << span.episode << "}}";
  }
  os << "],\"otherData\":{\"spans_dropped\":" << dropped_ << "}}\n";
}

void report_end_to_end(const EndToEnd& run, Report& r) {
  r.attempted = static_cast<std::uint64_t>(run.attempted);
  r.failed = r.correct ? static_cast<std::uint64_t>(run.attempted - run.succeeded) : r.attempted;
  const double ok = r.correct ? run.succeeded : 0.0;
  r.set("commits_per_s", median(run.rate), "1/s");
  r.set("cpu_ms_per_commit", median(run.cpu_ms), "ms");
  r.set("wire_bytes_per_commit", run.wire_bytes / run.commits, "B");
  r.set("messages_per_commit", run.messages / run.commits, "count");
  r.set("completed_share", ok / run.attempted, "share");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.set("setup_s", median(run.setup_s), "s");
  r.note("episodes", static_cast<double>(run.rate.size()), "count");
  r.note("commits_per_s.q1", percentile(run.rate, 25), "1/s");
  r.note("commits_per_s.q3", percentile(run.rate, 75), "1/s");
  r.note("cpu_ms_per_commit.q1", percentile(run.cpu_ms, 25), "ms");
  r.note("cpu_ms_per_commit.q3", percentile(run.cpu_ms, 75), "ms");
  r.note("setup_s.samples", static_cast<double>(run.setup_s.size()), "count");
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

}  // namespace perfbench
