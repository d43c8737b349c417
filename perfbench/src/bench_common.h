// Shared plumbing for the perfbench workloads: wall clock, process CPU and
// memory readings, exact latency samples, the benchmark's own span tracer,
// the result record, the host record and the thread-count noise guard.
//
// Everything here measures the product from outside: it times calls into
// the layers' public functions and reads their public metrics snapshots.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/metrics.h"
#include "common/types.h"

namespace raincore::net {}
namespace raincore::session {}
namespace raincore::data {}
namespace raincore::runtime {}

namespace perfbench {

using raincore::NodeId;
using raincore::Slice;
using raincore::Time;
namespace net = raincore::net;
namespace session = raincore::session;
namespace data = raincore::data;
namespace runtime = raincore::runtime;
namespace metrics = raincore::metrics;

/// Monotonic nanoseconds (the same clock RealTimeLoop::now() reads).
Time mono_ns();
void sleep_ns(Time d);
/// CPU time of the calling thread.
Time thread_cpu_ns();

/// Process-wide resource readings at one instant.
struct ProcSample {
  Time wall = 0;
  Time cpu = 0;                  ///< user + sys, all threads
  std::uint64_t write_bytes = 0;   ///< bytes handed to write()/pwrite()
  static ProcSample take();
};
/// Peak resident set size of the process so far, MiB.
double peak_rss_mb();
/// Threads in this process right now (/proc/self/task).
int thread_count();
int cpu_count();

/// Exact latency samples in a buffer that is allocated and touched up
/// front, so peak RSS does not track throughput. Once full it keeps no more
/// samples and full() holds: a window that overflows it fails its run.
class Samples {
 public:
  explicit Samples(std::size_t capacity = 1 << 19) : buf_(capacity, 0) {}
  void add(Time v) {
    if (kept_ < buf_.size()) {
      buf_[kept_++] = v;
    } else {
      full_ = true;
    }
  }
  void clear() { kept_ = 0; full_ = false; }
  bool full() const { return full_; }
  /// Appends the kept samples to `out`.
  void append_to(std::vector<Time>& out) const;

 private:
  std::vector<Time> buf_;
  std::size_t kept_ = 0;
  bool full_ = false;
};

/// Linear-interpolated quantile of latency samples in ns, reported in ms
/// (0 when empty).
double quantile_ms(std::vector<Time> v, double q);
/// One step of the order-sensitive rolling hash over delivery sequences.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}
/// Its starting value (FNV-1a offset basis).
inline constexpr std::uint64_t kHashBasis = 1469598103934665603ull;

/// Median of a list (0 when empty).
double median(std::vector<double> v);

/// Counter sum over every snapshot instrument whose name ends in `suffix`
/// (merged node snapshots prefix names per ring/shard).
std::uint64_t counter_sum(const raincore::metrics::Snapshot& s,
                          const std::string& suffix);

// ---------------------------------------------------------------------------
// Span tracer: spans are recorded by the benchmark's own code around the
// calls it makes into the product, kept in memory (one buffer per thread
// that records) and written out when the run ends.

enum class SpanKind : std::uint8_t {
  kSubmit,   ///< try_multicast / put / erase call
  kDeliver,  ///< delivery or map-change callback
  kVisit,    ///< token visit (run_exclusive callback)
  kCrash,    ///< crash-stop of a member
  kRestart,  ///< restart of a member
};
const char* span_name(SpanKind k);

struct Span {
  SpanKind kind;
  std::uint32_t node = 0;    ///< node that recorded it
  std::uint32_t origin = 0;  ///< op id: origin node...
  std::uint64_t seq = 0;     ///< ...and its per-origin sequence
  std::int32_t parent = -1;  ///< index of the enclosing span, same buffer
  Time start = 0;
  Time end = 0;
};

class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity = 1 << 19) {
    spans_.reserve(capacity);
  }
  /// Opens a span; returns its index (or -1 once the buffer is full: later
  /// spans are not kept).
  int open(SpanKind k, std::uint32_t node, std::uint32_t origin,
           std::uint64_t seq);
  void close(int idx);
  /// Records a zero-parent span that is already finished.
  void add(SpanKind k, std::uint32_t node, Time start, Time end);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Per-kind totals over a set of buffers: count and self time (a span's
/// duration minus the part its child spans cover).
struct SpanTotals {
  std::map<SpanKind, std::uint64_t> count;
  std::map<SpanKind, double> self_ns;
};
SpanTotals summarize(const std::vector<const SpanBuffer*>& bufs);
/// Appends every span as one CSV line to `path`.
void write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& bufs);

// ---------------------------------------------------------------------------
// The result one run prints as its last line.

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  std::string to_json() const;
};

/// Fixed single-thread calibration work (FNV-1a over a fixed buffer),
/// ns per byte — lets figures from different hosts be compared.
double calibration_ns_per_byte();
/// One JSON line describing the host and build.
std::string host_record(const std::string& workload, std::uint64_t seed,
                        double seconds, bool trace);

/// Noise guard: the benchmark's busy threads must not outnumber the cores.
/// `idle_threads` are threads that only sleep while measuring (main).
bool check_thread_budget(int idle_threads, Result& r);

}  // namespace perfbench
