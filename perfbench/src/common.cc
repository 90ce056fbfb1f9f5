#include "common.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/strings.h"
#include "engine/simd.h"

namespace perfbench {

using ppdm::Result;
using ppdm::Status;
using ppdm::StrFormat;

// ------------------------------------------------------------- samples

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  Sort();
  const double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

std::size_t Samples::Beyond(double p) const {
  const double cut = Percentile(p);
  Sort();
  return static_cast<std::size_t>(
      values_.end() - std::upper_bound(values_.begin(), values_.end(), cut));
}

int SegmentsFor(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / 3.0)));
}

SegmentedSamples::SegmentedSamples(double seconds, int segments)
    : segment_s_(seconds / std::max(segments, 1)),
      segments_(static_cast<std::size_t>(std::max(segments, 1))),
      sums_(segments_.size(), 0.0) {}

void SegmentedSamples::Add(double at_s, double value) {
  const double index = std::floor(at_s / segment_s_);
  const std::size_t i = static_cast<std::size_t>(std::clamp(
      index, 0.0, static_cast<double>(segments_.size() - 1)));
  all_.Add(value);
  segments_[i].Add(value);
  sums_[i] += value;
}

void SegmentedSamples::Append(const SegmentedSamples& other) {
  all_.Append(other.all_);
  for (std::size_t i = 0; i < segments_.size() && i < other.segments_.size();
       ++i) {
    segments_[i].Append(other.segments_[i]);
    sums_[i] += other.sums_[i];
  }
}

double SegmentedSamples::Stat(double p) const {
  std::vector<double> per_segment;
  for (const Samples& segment : segments_) {
    if (segment.Beyond(p) >= 10) per_segment.push_back(segment.Percentile(p));
  }
  return per_segment.empty() ? all_.Percentile(p) : MedianOf(per_segment);
}

std::string SegmentedSamples::SegmentList(double p, double scale) const {
  std::string out;
  for (const Samples& segment : segments_) {
    out += StrFormat("%s%.3g", out.empty() ? "" : "/",
                     segment.Percentile(p) * scale);
  }
  return out;
}

double SegmentedSamples::RatePerSecond() const {
  return MedianOf(sums_) / segment_s_;
}

double MedianOf(std::vector<double> values) {
  Samples s;
  for (double v : values) s.Add(v);
  return s.Median();
}

double MedianSeconds(int reps, const std::function<void()>& fn) {
  Samples s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    s.Add(SecondsBetween(t0, Clock::now()));
  }
  return s.Median();
}

// -------------------------------------------------------------- report

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Note(StrFormat("metric %s was not finite; reported as 0", name.c_str()));
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  notes_.push_back("FAILED: " + why);
}

namespace {

std::string Deciles(const Samples& s, double scale) {
  std::string out;
  for (int d = 1; d <= 9; ++d) {
    out += StrFormat("%s%.3g", d == 1 ? "" : "/", s.Percentile(10.0 * d) * scale);
  }
  return out;
}

}  // namespace

void Report::NoteTiming(const std::string& name, const SegmentedSamples& s,
                        double tail_pct, double scale,
                        const std::string& unit) {
  const Samples& all = s.all();
  Note(StrFormat(
      "%s: segment medians p50 %.4f %s, p%g %.4f %s; whole phase median "
      "%.4f %s, p%g %.4f %s (n=%zu, %zu beyond; p50 per %.1f s segment %s; "
      "deciles %s)",
      name.c_str(), s.Stat(50.0) * scale, unit.c_str(), tail_pct,
      s.Stat(tail_pct) * scale, unit.c_str(), all.Median() * scale,
      unit.c_str(), tail_pct, all.Percentile(tail_pct) * scale, unit.c_str(),
      all.size(), all.Beyond(tail_pct), s.segment_seconds(),
      s.SegmentList(50.0, scale).c_str(), Deciles(all, scale).c_str()));
}

void Report::Print() const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct_ ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(attempted, 1)),
      static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    json += StrFormat("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics_[i].first.c_str(),
                      metrics_[i].second.first,
                      metrics_[i].second.second.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------- host

long ProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtol(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return -1;
}

bool ResetPeakRss() {
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return false;
  const bool ok = ::write(fd, "5", 1) == 1;
  ::close(fd);
  return ok;
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

namespace {

// A fixed amount of dependent integer work; returns the state so the
// loop cannot be folded away.
std::uint64_t Spin(std::uint64_t iterations) {
  std::uint64_t x = 88172645463325252ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace

std::string HostFingerprint() {
  constexpr std::uint64_t kSpin = 30000000;
  std::atomic<std::uint64_t> sink{0};
  auto t0 = Clock::now();
  sink += Spin(kSpin);
  const double one = SecondsBetween(t0, Clock::now());
  t0 = Clock::now();
  std::thread a([&] { sink += Spin(kSpin); });
  std::thread b([&] { sink += Spin(kSpin); });
  a.join();
  b.join();
  const double two = SecondsBetween(t0, Clock::now());
  // Read at run time, so a build directory reused across commits still
  // reports the commit it measures.
  const char* git = std::getenv("PERFBENCH_GIT_SHA");
  return StrFormat(
      "host: git=%s build=%s simd=%s nproc=%ld parallelism_2t=%.2f "
      "(1 thread %.1f ms, 2 threads %.1f ms, spin %llu)",
      git != nullptr && *git != '\0' ? git : "unknown", PERFBENCH_BUILD_TYPE,
      ppdm::engine::simd::PathName(ppdm::engine::simd::ActivePath()),
      sysconf(_SC_NPROCESSORS_ONLN), two > 0 ? 2.0 * one / two : 0.0,
      one * 1e3, two * 1e3,
      static_cast<unsigned long long>(sink.load() & 0xff));
}

// -------------------------------------------------------------- digest

void Digest::Add(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

std::string Digest::Hex() const {
  return StrFormat("%016llx", static_cast<unsigned long long>(h_));
}

// ---------------------------------------------------------- exposition

Exposition::Exposition(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::string name = line.substr(0, space);
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) name.resize(brace);
    values_[name] += std::strtod(line.c_str() + space + 1, nullptr);
  }
}

double Exposition::Value(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

double ExpositionDelta::Mean(const std::string& name, double scale) const {
  const double count = Delta(name + "_count");
  return count > 0 ? Delta(name + "_sum") / count * scale : 0.0;
}

// -------------------------------------------------------------- daemon

namespace {

struct ReadyMessage {
  std::int32_t code = 0;
  std::int32_t port = 0;
  std::int64_t start_ns = 0;
  char message[256] = {};
};

struct ExitMessage {
  std::int32_t code = 0;
  double drain_s = 0.0;
  std::int64_t rss_growth_kb = 0;
  std::uint64_t drained_checkpoints = 0;
  char message[256] = {};
};

bool WriteFull(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// Reads exactly `size` bytes, giving up after `timeout_ms` of silence.
bool ReadFull(int fd, void* data, std::size_t size, int timeout_ms) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t n = ::read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

void CopyMessage(const std::string& text, char* out) {
  std::snprintf(out, 256, "%s", text.c_str());
}

[[noreturn]] void DaemonChild(const ppdm::net::ServerOptions& options,
                              int from_parent, int to_parent) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  ::signal(SIGPIPE, SIG_IGN);
  const long rss_before_kb = ProcStatusKb("VmRSS");
  ReadyMessage ready;
  ready.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now().time_since_epoch())
                       .count();
  Result<std::unique_ptr<ppdm::net::Server>> server =
      ppdm::net::Server::Start(options);
  if (!server.ok()) {
    ready.code = static_cast<std::int32_t>(server.status().code());
    CopyMessage(server.status().ToString(), ready.message);
    WriteFull(to_parent, &ready, sizeof ready);
    ::_exit(1);
  }
  ready.port = server.value()->port();
  if (!WriteFull(to_parent, &ready, sizeof ready)) ::_exit(1);
  char command = 0;
  while (::read(from_parent, &command, 1) < 0 && errno == EINTR) {
  }
  ExitMessage done;
  if (command == 'S') {
    const auto t0 = Clock::now();
    const Status stopped = server.value()->Stop();
    done.drain_s = SecondsBetween(t0, Clock::now());
    done.code = static_cast<std::int32_t>(stopped.code());
    CopyMessage(stopped.ToString(), done.message);
    done.drained_checkpoints = server.value()->drained_checkpoints();
  } else {
    done.code = static_cast<std::int32_t>(ppdm::StatusCode::kCancelled);
    CopyMessage("parent went away", done.message);
  }
  done.rss_growth_kb = ProcStatusKb("VmHWM") - rss_before_kb;
  WriteFull(to_parent, &done, sizeof done);
  ::_exit(0);
}

}  // namespace

Result<DaemonProcess> DaemonProcess::Launch(
    const ppdm::net::ServerOptions& options) {
  int down[2];
  int up[2];
  if (::pipe2(down, O_CLOEXEC) != 0) {
    return Status::IoError(StrFormat("pipe: %s", std::strerror(errno)));
  }
  if (::pipe2(up, O_CLOEXEC) != 0) {
    ::close(down[0]);
    ::close(down[1]);
    return Status::IoError(StrFormat("pipe: %s", std::strerror(errno)));
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (int fd : {down[0], down[1], up[0], up[1]}) ::close(fd);
    return Status::IoError(StrFormat("fork: %s", std::strerror(errno)));
  }
  if (pid == 0) {
    ::close(down[1]);
    ::close(up[0]);
    DaemonChild(options, down[0], up[1]);
  }
  ::close(down[0]);
  ::close(up[1]);
  DaemonProcess daemon;
  daemon.pid_ = pid;
  daemon.to_child_ = down[1];
  daemon.from_child_ = up[0];
  ReadyMessage ready;
  if (!ReadFull(daemon.from_child_, &ready, sizeof ready, 30000)) {
    return Status::Unavailable("daemon child did not report ready");
  }
  if (ready.code != 0) {
    return Status::Internal(std::string("daemon failed to start: ") +
                            ready.message);
  }
  daemon.port_ = ready.port;
  daemon.start_time_ =
      Clock::time_point(std::chrono::nanoseconds(ready.start_ns));
  return Result<DaemonProcess>(std::move(daemon));
}

DaemonProcess::DaemonProcess(DaemonProcess&& other) noexcept
    : pid_(other.pid_),
      to_child_(other.to_child_),
      from_child_(other.from_child_),
      port_(other.port_),
      start_time_(other.start_time_) {
  other.pid_ = -1;
  other.to_child_ = -1;
  other.from_child_ = -1;
}

DaemonProcess::~DaemonProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (to_child_ >= 0) ::close(to_child_);
  if (from_child_ >= 0) ::close(from_child_);
}

DaemonExit DaemonProcess::Stop() {
  DaemonExit result;
  if (pid_ <= 0) {
    result.status = Status::FailedPrecondition("daemon already stopped");
    return result;
  }
  ExitMessage done;
  if (!WriteFull(to_child_, "S", 1) ||
      !ReadFull(from_child_, &done, sizeof done, 120000)) {
    result.status = Status::Unavailable("daemon child did not stop cleanly");
  } else {
    result.drain_s = done.drain_s;
    result.rss_growth_kb = static_cast<long>(done.rss_growth_kb);
    result.drained_checkpoints =
        static_cast<std::size_t>(done.drained_checkpoints);
    result.status =
        done.code == 0
            ? Status::Ok()
            : Status::Internal(std::string("daemon stop: ") + done.message);
  }
  int status = 0;
  if (!result.status.ok()) ::kill(pid_, SIGKILL);
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return result;
}

// ---------------------------------------------------------------- spans

std::string SpanLog::SelfTimeSummary() const {
  const std::vector<ppdm::obs::SpanEvent> events = ring_.Snapshot();
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].span_id != 0) by_id[events[i].span_id] = i;
  }
  std::vector<double> child_ns(events.size(), 0.0);
  for (const ppdm::obs::SpanEvent& e : events) {
    const auto parent = by_id.find(e.parent_id);
    if (e.parent_id != 0 && parent != by_id.end()) {
      child_ns[parent->second] += static_cast<double>(e.duration_ns);
    }
  }
  struct Totals {
    std::size_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < events.size(); ++i) {
    Totals& t = totals[events[i].name];
    const double duration = static_cast<double>(events[i].duration_ns);
    ++t.count;
    t.total_ns += duration;
    t.self_ns += std::max(0.0, duration - child_ns[i]);
  }
  std::string out;
  for (const auto& [name, t] : totals) {
    out += StrFormat("%s%s n=%zu total_us=%.1f self_us=%.1f",
                     out.empty() ? "" : "; ", name.c_str(), t.count,
                     t.total_ns / 1e3, t.self_ns / 1e3);
  }
  return out;
}

Result<std::string> SpanLog::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << ppdm::obs::RenderChromeTrace(ring_.Snapshot());
  out.close();
  if (!out) return Status::IoError("cannot write " + path);
  return path;
}

// ------------------------------------------------------------------ fs

Status MakeDirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("mkdir " + dir + ": " + ec.message());
  return Status::Ok();
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace perfbench
