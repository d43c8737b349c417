#include "bench_common.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

Time mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_ns(Time d) {
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

Time thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Time>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

Time tv_ns(const timeval& tv) {
  return static_cast<Time>(tv.tv_sec) * 1'000'000'000 +
         static_cast<Time>(tv.tv_usec) * 1'000;
}

std::uint64_t proc_io_field(const std::string& field) {
  std::ifstream in("/proc/self/io");
  std::string name;
  std::uint64_t value = 0;
  while (in >> name >> value) {
    if (name == field + ":") return value;
  }
  return 0;
}

}  // namespace

ProcSample ProcSample::take() {
  ProcSample s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.wall = mono_ns();
  s.cpu = tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
  s.write_bytes = proc_io_field("wchar");
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int thread_count() {
  int n = 0;
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') ++n;
    }
    closedir(d);
  }
  return n;
}

int cpu_count() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

// --- Samples ---------------------------------------------------------------

void Samples::append_to(std::vector<Time>& out) const {
  out.insert(out.end(), buf_.begin(), buf_.begin() + static_cast<long>(kept_));
}

double quantile_ms(std::vector<Time> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  const double ns = static_cast<double>(v[lo]) * (1.0 - frac) +
                    static_cast<double>(v[hi]) * frac;
  return ns / 1e6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

namespace {
bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
}  // namespace

std::uint64_t counter_sum(const raincore::metrics::Snapshot& s,
                          const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, v] : s.counters) {
    if (ends_with(name, suffix)) total += v;
  }
  return total;
}

// --- Spans -----------------------------------------------------------------

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kSubmit: return "submit";
    case SpanKind::kDeliver: return "deliver";
    case SpanKind::kVisit: return "visit";
    case SpanKind::kCrash: return "crash";
    case SpanKind::kRestart: return "restart";
  }
  return "?";
}

int SpanBuffer::open(SpanKind k, std::uint32_t node, std::uint32_t origin,
                     std::uint64_t seq) {
  if (spans_.size() == spans_.capacity()) {
    stack_.push_back(-1);
    return -1;
  }
  Span s;
  s.kind = k;
  s.node = node;
  s.origin = origin;
  s.seq = seq;
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (*it >= 0) {
      s.parent = *it;
      break;
    }
  }
  s.start = mono_ns();
  spans_.push_back(s);
  const int idx = static_cast<int>(spans_.size() - 1);
  stack_.push_back(idx);
  return idx;
}

void SpanBuffer::close(int idx) {
  if (!stack_.empty()) stack_.pop_back();
  if (idx >= 0) spans_[static_cast<std::size_t>(idx)].end = mono_ns();
}

void SpanBuffer::add(SpanKind k, std::uint32_t node, Time start, Time end) {
  if (spans_.size() == spans_.capacity()) return;
  Span s;
  s.kind = k;
  s.node = node;
  s.start = start;
  s.end = end;
  spans_.push_back(s);
}

SpanTotals summarize(const std::vector<const SpanBuffer*>& bufs) {
  SpanTotals t;
  for (const SpanBuffer* b : bufs) {
    const auto& spans = b->spans();
    std::vector<double> child(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0 && s.end > 0) {
        child[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end - s.start);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end <= 0) continue;
      const double d = static_cast<double>(s.end - s.start);
      t.count[s.kind] += 1;
      t.self_ns[s.kind] += d - child[i];
    }
  }
  return t;
}

void write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& bufs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;
  std::fprintf(f, "buffer,index,kind,node,origin,seq,parent,start_ns,end_ns\n");
  for (std::size_t b = 0; b < bufs.size(); ++b) {
    const auto& spans = bufs[b]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%zu,%s,%u,%u,%llu,%d,%lld,%lld\n", b, i,
                   span_name(s.kind), s.node, s.origin,
                   static_cast<unsigned long long>(s.seq), s.parent,
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
  }
  std::fclose(f);
}

// --- Result ----------------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Result::to_json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    if (!first) o << ", ";
    first = false;
    o << "\"" << json_escape(name) << "\": {\"value\": " << num(vu.first)
      << ", \"unit\": \"" << json_escape(vu.second) << "\"}";
  }
  o << "}}";
  return o.str();
}

double calibration_ns_per_byte() {
  // 8 MiB of fixed bytes hashed 8 times; the median pass is reported.
  std::vector<std::uint8_t> buf(8u << 20);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131u + 7u);
  }
  std::vector<double> passes;
  volatile std::uint32_t sink = 0;
  for (int pass = 0; pass < 8; ++pass) {
    const Time t0 = thread_cpu_ns();
    std::uint32_t h = 2166136261u;
    for (std::uint8_t b : buf) h = (h ^ b) * 16777619u;
    sink = sink + h;
    passes.push_back(static_cast<double>(thread_cpu_ns() - t0) /
                     static_cast<double>(buf.size()));
  }
  return median(passes);
}

std::string host_record(const std::string& workload, std::uint64_t seed,
                        double seconds, bool trace) {
  std::string cpu_model = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) {
          cpu_model = line.substr(colon + 1);
          cpu_model.erase(0, cpu_model.find_first_not_of(' '));
        }
        break;
      }
    }
  }
  utsname u{};
  uname(&u);
  std::ostringstream o;
  o << "{\"host\": {\"cpu_model\": \"" << json_escape(cpu_model)
    << "\", \"nproc\": " << cpu_count() << ", \"kernel\": \""
    << json_escape(u.release) << "\", \"build_type\": \""
    << PERFBENCH_BUILD_TYPE << "\", \"calibration_fnv1a_ns_per_byte\": "
    << num(calibration_ns_per_byte()) << "}, \"run\": {\"workload\": \""
    << json_escape(workload) << "\", \"seed\": " << seed
    << ", \"seconds\": " << num(seconds) << ", \"trace\": "
    << (trace ? 1 : 0) << "}}";
  return o.str();
}

bool check_thread_budget(int idle_threads, Result& r) {
  const int busy = thread_count() - idle_threads;
  if (busy > cpu_count()) {
    r.fail("noise guard: " + std::to_string(busy) + " busy threads on " +
           std::to_string(cpu_count()) + " cores");
    return false;
  }
  return true;
}

}  // namespace perfbench
