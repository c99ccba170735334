// Helpers shared by the benchmark's two harnesses: latency statistics,
// /proc readers for the graph-hosting process, an in-memory span recorder
// for traced runs, and a flat JSON report writer.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// A kB field ("VmRSS", "VmHWM") of /proc/<pid>/status, in MiB; -1 if the
/// process is gone.
inline double ProcStatusMiB(pid_t pid, const std::string& field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  return -1.0;
}

/// User + system CPU seconds of a process, from /proc/<pid>/stat.
inline double ProcCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall, i.e. the 12th and 13th after ')'.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i == 12 || i == 13) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// One traced interval. Spans of one request share `request`; `parent` is
/// the id of the span that caused this one (0 for a root).
struct Span {
  int64_t id = 0;
  int64_t parent = 0;
  int64_t request = 0;
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Spans kept in memory for the whole run and written out once at the end.
/// Not thread-safe; callers serialize `Add`.
class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point epoch, int64_t id_base = 0)
      : epoch_(epoch), next_id_(id_base) {}

  int64_t Add(int64_t request, int64_t parent, std::string name,
              Clock::time_point start, Clock::time_point end) {
    Span span;
    span.id = ++next_id_;
    span.parent = parent;
    span.request = request;
    span.name = std::move(name);
    span.start_us = Micros(epoch_, start);
    span.end_us = Micros(epoch_, end);
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  Clock::time_point epoch_;
  int64_t next_id_;
  std::vector<Span> spans_;
};

/// Mean self time in microseconds of the spans named `name`: each span's
/// duration minus the part of it its children cover (children of one span
/// do not overlap here, so their durations are summed).
inline double MeanSelfMicros(const std::vector<Span>& spans,
                             const std::string& name) {
  std::vector<double> child_us;
  int64_t max_id = 0;
  for (const Span& s : spans) max_id = std::max(max_id, s.id);
  child_us.assign(static_cast<size_t>(max_id) + 1, 0.0);
  for (const Span& s : spans) {
    if (s.parent > 0) {
      child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  double sum = 0.0;
  int64_t count = 0;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    sum += (s.end_us - s.start_us) - child_us[static_cast<size_t>(s.id)];
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

inline bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\": %lld, \"parent\": %lld, \"request\": %lld, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.name.c_str(), s.start_us,
                 s.end_us);
  }
  return std::fclose(f) == 0;
}

/// A flat JSON object of named values; each harness prints one as its last
/// stdout line for run.py to read.
class Report {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    Field(key, buf);
  }
  void Int(const std::string& key, int64_t value) {
    Field(key, std::to_string(value));
  }
  void Bool(const std::string& key, bool value) {
    Field(key, value ? "true" : "false");
  }
  std::string Take() const { return "{" + body_ + "}"; }

 private:
  void Field(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + raw;
  }
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
