// Shared pieces of the repository benchmark: options, raw-sample
// statistics, the result report, host facts, the daemon child process,
// metrics-exposition scraping and the benchmark's own span log.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/server.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and short phases; for the benchmark's own smoke test.
  bool smoke = false;
  /// Alters the correctness gate's reference by one ulp, so the gate
  /// must fail (the smoke test's proof that the gate can fail).
  bool tamper = false;
  /// Directory for trace files and the churn store (created if missing).
  std::string out_dir = ".bench_build/out";
};

/// Raw timing samples; every statistic comes from the sorted samples,
/// never from histogram buckets.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  /// Linear-interpolated percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  double Mean() const;
  /// Samples strictly above the p-th percentile.
  std::size_t Beyond(double p) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void Sort() const;
};

/// Samples bucketed by when they were taken, so a statistic can be taken
/// per segment of the measured phase and the median over segments
/// reported: a burst of interference from the host then moves one
/// segment, not the result.
class SegmentedSamples {
 public:
  SegmentedSamples(double seconds, int segments);
  /// `at_s`: seconds since the start of the measured phase.
  void Add(double at_s, double value);
  void Append(const SegmentedSamples& other);
  const Samples& all() const { return all_; }
  /// Median over segments of each segment's p-th percentile, counting only
  /// segments with at least ten samples beyond it; the whole-phase
  /// percentile when no segment has that many.
  double Stat(double p) const;
  /// Median over segments of the per-second sum of the values.
  double RatePerSecond() const;
  double segment_seconds() const { return segment_s_; }
  /// "a/b/c" of each segment's p-th percentile, scaled.
  std::string SegmentList(double p, double scale) const;

 private:
  double segment_s_;
  Samples all_;
  std::vector<Samples> segments_;
  std::vector<double> sums_;
};

/// Segments of about three seconds each for a measured phase.
int SegmentsFor(double seconds);

/// Median of a small list (setup repetitions, replay repeats).
double MedianOf(std::vector<double> values);

/// Times `fn` `reps` times, one clock pair per call, and returns the
/// median in seconds.
double MedianSeconds(int reps, const std::function<void()>& fn);

/// The benchmark's result: metrics plus notes (printed as "# ..." lines
/// before the final JSON line).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line) { notes_.push_back(line); }
  /// Marks the run incorrect (the correctness gate or a health check
  /// failed) and says why.
  void Fail(const std::string& why);
  /// Note for a timing: the reported segment medians, then the median and
  /// tail percentile of the whole phase with the sample count.
  void NoteTiming(const std::string& name, const class SegmentedSamples& s,
                  double tail_pct, double scale, const std::string& unit);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints the notes and the final JSON line to stdout.
  void Print() const;

 private:
  bool correct_ = true;
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// /proc/self/status field in kB (VmRSS, VmHWM); -1 when unreadable.
long ProcStatusKb(const char* field);
/// Resets this process's peak-RSS mark (clear_refs 5); false if refused.
bool ResetPeakRss();

/// Pins the calling thread to the lowest CPU it may run on. Threads it
/// creates and processes it forks afterwards inherit the pin. Returns the
/// CPU, or -1 if the pin was refused.
int PinToOneCpu();

/// "# host ..." fingerprint: git sha (from $PERFBENCH_GIT_SHA, which
/// perfbench/run.py sets), build type, SIMD path, nproc and a 1-vs-2
/// thread spin probe of effective parallelism.
std::string HostFingerprint();

/// FNV-1a 64 over a request stream, for the reproducible-traffic digest.
class Digest {
 public:
  void Add(const void* data, std::size_t size);
  void AddU64(std::uint64_t v) { Add(&v, sizeof v); }
  std::uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Counter and histogram sum/count values parsed from a Prometheus text
/// exposition; a labeled family is summed across its series.
class Exposition {
 public:
  explicit Exposition(const std::string& text);
  Exposition() = default;
  /// Sum of every series of `name` (0 when absent).
  double Value(const std::string& name) const;
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

 private:
  std::map<std::string, double> values_;
};

/// The difference of two scrapes.
class ExpositionDelta {
 public:
  ExpositionDelta(Exposition before, Exposition after)
      : before_(std::move(before)), after_(std::move(after)) {}
  double Delta(const std::string& name) const {
    return after_.Value(name) - before_.Value(name);
  }
  /// Mean sample of histogram `name` over the window, scaled (0 if none).
  double Mean(const std::string& name, double scale) const;
  bool Has(const std::string& name) const { return after_.Has(name); }

 private:
  Exposition before_;
  Exposition after_;
};

/// What a daemon child reports when it stops.
struct DaemonExit {
  ppdm::Status status;
  double drain_s = 0.0;
  /// Peak RSS minus the RSS the child had before Server::Start, in kB.
  long rss_growth_kb = 0;
  std::size_t drained_checkpoints = 0;
};

/// `ppdm served`'s daemon (net::Server::Start) in a forked child process.
/// The parent must be single-threaded when Launch forks.
class DaemonProcess {
 public:
  static ppdm::Result<DaemonProcess> Launch(
      const ppdm::net::ServerOptions& options);
  DaemonProcess(DaemonProcess&& other) noexcept;
  DaemonProcess& operator=(DaemonProcess&&) = delete;
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  /// Kills and reaps a child that was not stopped.
  ~DaemonProcess();

  int port() const { return port_; }
  /// When the child called Server::Start (same steady clock as ours).
  Clock::time_point start_time() const { return start_time_; }

  /// Server::Stop() in the child (drain + checkpoint), then reaps it.
  DaemonExit Stop();

 private:
  DaemonProcess() = default;
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  int port_ = 0;
  Clock::time_point start_time_;
};

/// The benchmark's own spans: a dedicated ring sized for the whole run,
/// one trace id per request, written out as Chrome trace JSON.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : ring_(capacity) {}
  ppdm::obs::TraceRing* ring() { return &ring_; }
  /// Per span name: count, total and self microseconds (self = duration
  /// minus the time covered by child spans).
  std::string SelfTimeSummary() const;
  /// Writes the Chrome trace file; returns the path or an error.
  ppdm::Result<std::string> Write(const std::string& path) const;
  std::uint64_t dropped() const { return ring_.DroppedCount(); }

 private:
  ppdm::obs::TraceRing ring_;
};

/// Creates `dir` and its parents.
ppdm::Status MakeDirs(const std::string& dir);
/// Removes `dir` and everything under it (best effort).
void RemoveTree(const std::string& dir);

/// Per-attribute interval masses compared byte for byte.
bool SameBytes(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
