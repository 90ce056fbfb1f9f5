// churn: many small tenants under a registry byte budget. An open loop at
// a fixed arrival rate sends 32-row ingests to 256 tenants with Zipf(1)
// popularity over 2 pipelined connections; every 2nd request of a tenant
// is followed by a reconstruct and 1 in 64 requests by a snapshot. Each
// tenant tracks 2 Gaussian and 2 uniform attributes at K=100, and the
// budget holds about a quarter of them, so the registry demotes and
// re-admits tenants through the spill store and re-admitted tenants
// rebuild their likelihood kernels. The run ends with Server::Stop(),
// which checkpoints every tenant.
//
// A tenant is a sequential client: its next request is sent only after
// the previous one is answered, so the daemon folds each tenant's batches
// in a known order and the correctness gate can replay them. Requests of
// different tenants arrive on schedule regardless of the daemon.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/random.h"
#include "common/strings.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/session_codec.h"
#include "store/snapshot_store.h"
#include "synth/generator.h"
#include "workloads.h"

namespace perfbench {

using ppdm::Result;
using ppdm::Status;
using ppdm::StrFormat;
namespace api = ppdm::api;
namespace net = ppdm::net;
namespace obs = ppdm::obs;
namespace store = ppdm::store;

namespace {

struct ChurnShape {
  std::size_t tenants = 256;
  std::size_t connections = 2;
  std::size_t workers = 2;
  std::size_t rows = 32;
  /// Offered load, requests (ingest chains) per second. The backlog grows
  /// between 600 and 900/s when the host gives the daemon two cores; this
  /// keeps up on one. perfbench/README.md says how to re-measure it.
  double rate = 150.0;
  double zipf_s = 1.0;
  std::size_t reconstruct_every = 2;
  std::size_t snapshot_every = 64;
  /// Registry budget: about a quarter of what the 256 prefilled tenants
  /// account today. A fixed number, so a change to memory accounting
  /// changes how many tenants stay resident.
  std::size_t registry_budget = 1200000;
  std::size_t max_pending = 128;
  double warmup_s = 1.0;
  /// Daemon launches timed before and again after the measured phase.
  int setup_reps = 5;
  /// Open-loop health bounds: a run whose generator ran later than this
  /// at p99, or whose backlog at the end of the measured phase exceeds
  /// the larger of these, is invalid.
  double max_lateness_p99_s = 0.020;
  std::size_t max_backlog = 16;
  double max_backlog_frac = 0.01;
};

constexpr double kIngestTail = 99.0;
constexpr double kReconstructTail = 99.0;

ChurnShape ShapeFor(const Options& options) {
  ChurnShape shape;
  if (options.smoke) {
    shape.tenants = 16;
    shape.rate = 100.0;
    shape.registry_budget = 1 << 18;
    shape.warmup_s = 0.1;
    shape.setup_reps = 2;
  }
  return shape;
}

api::DatasetSessionSpec ChurnSpec() {
  api::DatasetSessionSpec spec;
  spec.schema = ppdm::synth::BenchmarkSchema();
  // salary and age with Gaussian noise, hvalue and loan with uniform noise.
  const std::pair<std::size_t, ppdm::perturb::NoiseKind> tracked[] = {
      {0, ppdm::perturb::NoiseKind::kGaussian},
      {2, ppdm::perturb::NoiseKind::kGaussian},
      {6, ppdm::perturb::NoiseKind::kUniform},
      {8, ppdm::perturb::NoiseKind::kUniform}};
  for (const auto& [column, noise] : tracked) {
    api::AttributeSpec attribute;
    attribute.column = column;
    attribute.intervals = 100;
    attribute.noise = noise;
    attribute.privacy_fraction = 1.0;
    spec.attributes.push_back(attribute);
  }
  return spec;
}

/// One scheduled request: an ingest, maybe followed by a reconstruct
/// and a snapshot of the same tenant.
struct Arrival {
  double due_s = 0.0;  // after the start of the pass
  std::uint32_t tenant = 0;
  std::uint32_t batch = 0;  // index into the tenant's batches
  bool reconstruct = false;
  bool snapshot = false;
};

struct Schedule {
  std::vector<Arrival> arrivals;
  std::vector<std::size_t> per_tenant;  // arrivals per tenant
};

Schedule MakeSchedule(const ChurnShape& shape, std::uint64_t seed,
                      double seconds) {
  ppdm::Rng rng(seed ^ 0xC4A27E5EEDULL);
  std::vector<double> cdf(shape.tenants);
  double total = 0.0;
  for (std::size_t t = 0; t < shape.tenants; ++t) {
    total += 1.0 / std::pow(static_cast<double>(t + 1), shape.zipf_s);
    cdf[t] = total;
  }
  Schedule schedule;
  schedule.per_tenant.assign(shape.tenants, 0);
  const double horizon = shape.warmup_s + seconds;
  double at = 0.0;
  while (true) {
    at += -std::log(1.0 - rng.UniformDouble()) / shape.rate;
    if (at >= horizon) break;
    const double u = rng.UniformDouble() * total;
    const std::size_t t = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const std::size_t tenant = std::min(t, shape.tenants - 1);
    Arrival arrival;
    arrival.due_s = at;
    arrival.tenant = static_cast<std::uint32_t>(tenant);
    const std::size_t nth = schedule.per_tenant[tenant]++;
    arrival.batch = static_cast<std::uint32_t>(nth + 1);  // 0 is the prefill
    arrival.reconstruct = (nth + 1) % shape.reconstruct_every == 0;
    arrival.snapshot =
        (schedule.arrivals.size() + 1) % shape.snapshot_every == 0;
    schedule.arrivals.push_back(arrival);
  }
  return schedule;
}

net::ServerOptions ChurnServer(const ChurnShape& shape,
                              const std::string& store_dir) {
  net::ServerOptions server;
  server.num_threads = shape.workers;
  server.registry_max_bytes = shape.registry_budget;
  server.checkpoint_dir = store_dir;
  server.max_pending = shape.max_pending;
  return server;
}

// Set-up work after the opens: one ingest per tenant, its batch 0.
std::function<Status(net::Client*)> Prefill(
    const ChurnShape& shape, const api::DatasetSessionSpec& spec,
    const std::vector<TenantBatches>& batches) {
  return [&shape, &spec, &batches](net::Client* client) -> Status {
    for (std::size_t t = 0; t < shape.tenants; ++t) {
      PPDM_RETURN_IF_ERROR(client
                               ->Ingest(t, shape.rows, spec.schema.NumFields(),
                                        batches[t].perturbed[0])
                               .status());
    }
    return Status::Ok();
  };
}

struct ChurnPass {
  std::vector<double> setup_times;
  // Timings in seconds, segmented by due time.
  SegmentedSamples ingest_from_due{1.0, 1};
  SegmentedSamples ingest_from_send{1.0, 1};
  SegmentedSamples reconstruct{1.0, 1};
  SegmentedSamples lateness{1.0, 1};
  // Acknowledged rows, segmented by when the acknowledgement arrived; acks
  // after the measured phase are not counted.
  SegmentedSamples records{1.0, 1};
  std::size_t window_arrivals = 0;
  std::size_t backlog = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ingests = 0;
  std::vector<std::vector<TenantOp>> ops;
  std::vector<std::string> digests;
  Exposition before;
  Exposition after;
  DaemonExit exit;
};

/// The pipelined open loop of one pass.
class OpenLoop {
 public:
  OpenLoop(const ChurnShape& shape, const api::DatasetSessionSpec& spec,
         const Schedule& schedule, const std::vector<TenantBatches>& batches,
         SpanLog* spans, ChurnPass* pass)
      : shape_(shape),
        spec_(spec),
        schedule_(schedule),
        batches_(batches),
        spans_(spans),
        pass_(pass),
        tenants_(shape.tenants),
        done_at_(schedule.arrivals.size(), Clock::time_point::max()) {}

  Status Run(int port, double seconds);

 private:
  struct InFlight {
    std::size_t arrival = 0;
    net::Verb verb = net::Verb::kIngest;
    Clock::time_point sent;
    obs::PendingSpan span;
  };
  struct Connection {
    std::unique_ptr<net::Client> client;
    std::uint64_t next_id = 1;
    std::unordered_map<std::uint64_t, InFlight> in_flight;
    std::uint64_t requests = 0;
  };
  struct TenantState {
    bool busy = false;
    std::deque<std::size_t> waiting;
    /// The tenant's requests in send order. Tenants are sequential, so
    /// this is a function of the seed; the interleaving of tenants on a
    /// connection is not.
    Digest digest;
  };

  Status SendLocked(std::size_t arrival, net::Verb verb);
  void FinishChainLocked(std::size_t arrival, Clock::time_point now);
  void Receive(std::size_t c);
  void FailLocked(const Status& status) {
    if (status_.ok()) status_ = status;
    cv_.notify_all();
  }
  bool InWindow(std::size_t arrival) const {
    return schedule_.arrivals[arrival].due_s >= shape_.warmup_s;
  }
  // Seconds from the start of the measured phase to the arrival's due time.
  double At(std::size_t arrival) const {
    return schedule_.arrivals[arrival].due_s - shape_.warmup_s;
  }
  // Seconds from the start of the measured phase to `t`.
  double Since(Clock::time_point t) const {
    return SecondsBetween(start_, t) - shape_.warmup_s;
  }
  Clock::time_point Due(std::size_t arrival) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            schedule_.arrivals[arrival].due_s));
  }

  const ChurnShape& shape_;
  const api::DatasetSessionSpec& spec_;
  const Schedule& schedule_;
  const std::vector<TenantBatches>& batches_;
  SpanLog* const spans_;
  ChurnPass* const pass_;
  Clock::time_point start_;
  double seconds_ = 0.0;  // length of the measured phase

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Connection> connections_;  // guarded by mu_ (except client)
  std::vector<TenantState> tenants_;     // guarded by mu_
  std::vector<Clock::time_point> done_at_;  // guarded by mu_
  std::vector<std::uint64_t> trace_ids_;    // per arrival, read-only
  std::size_t completed_ = 0;               // guarded by mu_
  Status status_;                           // guarded by mu_
};

Status OpenLoop::SendLocked(std::size_t arrival, net::Verb verb) {
  const Arrival& a = schedule_.arrivals[arrival];
  Connection& conn = connections_[a.tenant % connections_.size()];
  const std::uint64_t id = conn.next_id++;
  std::string payload;
  if (verb == net::Verb::kIngest) {
    payload = IngestPayload(batches_[a.tenant].perturbed[a.batch],
                            spec_.schema.NumFields());
    ++pass_->ingests;
  }
  const std::uint64_t trace_id = trace_ids_.empty() ? 0 : trace_ids_[arrival];
  InFlight& entry = conn.in_flight[id];
  entry.arrival = arrival;
  entry.verb = verb;
  entry.span = obs::BeginSpan(verb == net::Verb::kIngest ? "client.ingest"
                              : verb == net::Verb::kReconstruct
                                  ? "client.reconstruct"
                                  : "client.snapshot",
                              obs::TraceContext{trace_id, 0});
  ++conn.requests;
  Digest& digest = tenants_[a.tenant].digest;
  digest.AddU64(static_cast<std::uint64_t>(verb));
  digest.Add(payload.data(), payload.size());
  ++pass_->attempted;
  entry.sent = Clock::now();
  return conn.client->SendRaw(
      net::EncodeFrame(verb, id, a.tenant, 0, payload, trace_id));
}

void OpenLoop::FinishChainLocked(std::size_t arrival, Clock::time_point now) {
  done_at_[arrival] = now;
  ++completed_;
  TenantState& tenant = tenants_[schedule_.arrivals[arrival].tenant];
  if (tenant.waiting.empty()) {
    tenant.busy = false;
  } else {
    const std::size_t next = tenant.waiting.front();
    tenant.waiting.pop_front();
    if (Status s = SendLocked(next, net::Verb::kIngest); !s.ok()) FailLocked(s);
  }
  if (completed_ == schedule_.arrivals.size()) cv_.notify_all();
}

void OpenLoop::Receive(std::size_t c) {
  while (true) {
    Result<net::Frame> frame = connections_[c].client->ReadFrame();
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    if (!frame.ok()) {
      // Shutdown after the last chain, or a broken connection.
      if (completed_ < schedule_.arrivals.size()) FailLocked(frame.status());
      return;
    }
    Connection& conn = connections_[c];
    auto it = conn.in_flight.find(frame.value().header.request_id);
    if (it == conn.in_flight.end()) {
      FailLocked(Status::Internal("response for an unknown request id"));
      return;
    }
    InFlight entry = std::move(it->second);
    conn.in_flight.erase(it);
    obs::EndSpan(&entry.span, spans_ != nullptr ? spans_->ring() : nullptr);
    const Arrival& a = schedule_.arrivals[entry.arrival];
    Result<net::ResponseBody> body =
        net::DecodeResponseBody(frame.value().body);
    const bool ok = body.ok() && body.value().status.ok();
    if (!ok) ++pass_->failed;
    const bool window = InWindow(entry.arrival);
    std::vector<TenantOp>& ops = pass_->ops[a.tenant];
    bool more = false;
    Status sent;
    if (entry.verb == net::Verb::kIngest) {
      if (window) {
        pass_->ingest_from_due.Add(At(entry.arrival),
                                   SecondsBetween(Due(entry.arrival), now));
        pass_->ingest_from_send.Add(At(entry.arrival),
                                    SecondsBetween(entry.sent, now));
      }
      if (ok) {
        ops.push_back(TenantOp{a.batch, {}});
        if (const double at = Since(now); at >= 0.0 && at < seconds_) {
          pass_->records.Add(at, static_cast<double>(shape_.rows));
        }
        if (a.reconstruct) {
          sent = SendLocked(entry.arrival, net::Verb::kReconstruct);
          more = true;
        } else if (a.snapshot) {
          sent = SendLocked(entry.arrival, net::Verb::kSnapshot);
          more = true;
        }
      }
    } else if (entry.verb == net::Verb::kReconstruct) {
      if (window) {
        pass_->reconstruct.Add(At(entry.arrival),
                               SecondsBetween(entry.sent, now));
      }
      if (ok) {
        Result<std::vector<net::AttributeEstimate>> estimates =
            ParseEstimates(body.value().payload);
        if (!estimates.ok()) {
          FailLocked(estimates.status());
          return;
        }
        ops.push_back(TenantOp{-1, std::move(estimates.value())});
        if (a.snapshot) {
          sent = SendLocked(entry.arrival, net::Verb::kSnapshot);
          more = true;
        }
      }
    }
    if (!sent.ok()) FailLocked(sent);
    if (!more) FinishChainLocked(entry.arrival, now);
  }
}

Status OpenLoop::Run(int port, double seconds) {
  for (std::size_t c = 0; c < shape_.connections; ++c) {
    PPDM_ASSIGN_OR_RETURN(net::Client client,
                          net::Client::Connect("127.0.0.1", port));
    connections_.emplace_back();
    connections_.back().client =
        std::make_unique<net::Client>(std::move(client));
  }
  if (spans_ != nullptr) {
    trace_ids_.resize(schedule_.arrivals.size());
    for (std::uint64_t& id : trace_ids_) id = obs::NewTraceId();
  }
  seconds_ = seconds;
  start_ = Clock::now();
  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < shape_.connections; ++c) {
    receivers.emplace_back([this, c] { Receive(c); });
  }

  // The generator: each arrival is handed over at its due time, whatever
  // the daemon is doing. Its lateness is taken once the frame is written,
  // so waiting for the lock or a full socket counts. An arrival whose
  // tenant is still busy is queued behind it and not counted: that wait
  // is the tenant's, timed by its ingest latency from due.
  for (std::size_t i = 0; i < schedule_.arrivals.size(); ++i) {
    const auto due = Due(i);
    std::this_thread::sleep_until(due);
    std::lock_guard<std::mutex> lock(mu_);
    if (!status_.ok()) break;
    TenantState& tenant = tenants_[schedule_.arrivals[i].tenant];
    if (tenant.busy) {
      tenant.waiting.push_back(i);
      continue;
    }
    tenant.busy = true;
    if (Status s = SendLocked(i, net::Verb::kIngest); !s.ok()) {
      FailLocked(s);
      break;
    }
    if (InWindow(i)) {
      pass_->lateness.Add(At(i), SecondsBetween(due, Clock::now()));
    }
  }
  const auto end = start_ + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    shape_.warmup_s + seconds));
  Status status;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, end + std::chrono::seconds(30), [&] {
      return !status_.ok() || completed_ == schedule_.arrivals.size();
    });
    status = status_;
    if (status.ok() && completed_ < schedule_.arrivals.size()) {
      status = Status::DeadlineExceeded(
          StrFormat("%zu requests still outstanding 30 s after the end",
                    schedule_.arrivals.size() - completed_));
    }
  }
  for (Connection& conn : connections_) {
    ::shutdown(conn.client->fd(), SHUT_RDWR);
  }
  for (std::thread& receiver : receivers) receiver.join();

  for (std::size_t i = 0; i < schedule_.arrivals.size(); ++i) {
    if (!InWindow(i)) continue;
    ++pass_->window_arrivals;
    if (done_at_[i] > end) ++pass_->backlog;
  }
  for (std::size_t c = 0; c < connections_.size(); ++c) {
    Digest digest;  // its tenants' request sequences, in tenant order
    for (std::size_t t = c; t < tenants_.size(); t += connections_.size()) {
      digest.AddU64(tenants_[t].digest.value());
    }
    pass_->digests.push_back(StrFormat(
        "connection %zu: %llu requests, per-tenant sequence digest %s", c,
        static_cast<unsigned long long>(connections_[c].requests),
        digest.Hex().c_str()));
  }
  return status;
}

Status RunPass(const Options& options, const ChurnShape& shape,
               const api::DatasetSessionSpec& spec, const Schedule& schedule,
               const std::vector<TenantBatches>& batches,
               const std::string& store_dir, SpanLog* spans,
               ChurnPass* pass) {
  PPDM_ASSIGN_OR_RETURN(
      DaemonProcess daemon,
      LaunchTimed(ChurnServer(shape, store_dir), spec, shape.tenants,
                  shape.setup_reps, Prefill(shape, spec, batches),
                  &pass->setup_times));
  pass->ops.assign(shape.tenants, {TenantOp{0, {}}});
  pass->attempted += 2 * shape.tenants;  // the kept launch's opens+prefill
  PPDM_ASSIGN_OR_RETURN(pass->before, Scrape(daemon.port()));

  const SegmentedSamples empty(options.seconds, SegmentsFor(options.seconds));
  pass->ingest_from_due = pass->ingest_from_send = pass->reconstruct = empty;
  pass->lateness = pass->records = empty;
  OpenLoop loop(shape, spec, schedule, batches, spans, pass);
  const Status driven = loop.Run(daemon.port(), options.seconds);
  if (!driven.ok()) {
    pass->exit = daemon.Stop();
    return driven;
  }
  PPDM_ASSIGN_OR_RETURN(pass->after, Scrape(daemon.port()));
  {
    PPDM_ASSIGN_OR_RETURN(net::Client client,
                          net::Client::Connect("127.0.0.1", daemon.port()));
    for (std::size_t t = 0; t < shape.tenants; ++t) {
      PPDM_ASSIGN_OR_RETURN(std::vector<net::AttributeEstimate> estimates,
                            client.Reconstruct(t));
      pass->ops[t].push_back(TenantOp{-1, std::move(estimates)});
    }
  }
  pass->exit = daemon.Stop();
  return pass->exit.status;
}

// Replays every tenant's acknowledged traffic in process and checks the
// captures Stop() wrote; returns the mean reconstruction accuracy.
double Gate(const Options& options, const api::DatasetSessionSpec& spec,
            const std::vector<TenantBatches>& batches, const ChurnPass& pass,
            const std::string& store_dir, Report* report) {
  Result<store::SnapshotStore> snapshots = store::SnapshotStore::Open(store_dir);
  if (!snapshots.ok()) {
    report->Fail("churn: cannot open the drain checkpoints: " +
                 snapshots.status().ToString());
    return 0.0;
  }
  if (pass.exit.drained_checkpoints != batches.size()) {
    report->Fail(StrFormat("churn: Stop() checkpointed %zu of %zu tenants",
                           pass.exit.drained_checkpoints, batches.size()));
  }
  double accuracy = 0.0;
  std::size_t failures = 0;
  for (std::size_t t = 0; t < batches.size(); ++t) {
    std::string mismatch;
    Result<std::unique_ptr<api::DatasetSession>> ref = ReplayTenant(
        spec, batches[t], pass.ops[t], options.tamper && t == 0, &mismatch);
    accuracy += ReconstructionAccuracy(batches[t], pass.ops[t]);
    if (!ref.ok()) mismatch = "reference replay: " + ref.status().ToString();
    if (mismatch.empty()) {
      // The drain capture must continue exactly like the reference.
      Result<std::string> bytes = snapshots.value().Get(net::TenantName(t));
      Result<std::unique_ptr<api::DatasetSession>> restored =
          bytes.ok() ? store::DecodeDatasetSession(bytes.value())
                     : Result<std::unique_ptr<api::DatasetSession>>(
                           bytes.status());
      if (!restored.ok()) {
        mismatch = "capture: " + restored.status().ToString();
      } else {
        auto got = restored.value()->ReconstructAll();
        auto want = ref.value()->ReconstructAll();
        bool same = got.ok() && want.ok() &&
                    got.value().size() == want.value().size();
        for (std::size_t a = 0; same && a < got.value().size(); ++a) {
          same = SameBytes(got.value()[a].masses, want.value()[a].masses);
        }
        if (!same) mismatch = "the drain capture differs from the reference";
      }
    }
    if (!mismatch.empty() && failures++ < 5) {
      report->Fail(StrFormat("churn tenant %zu: %s", t, mismatch.c_str()));
    }
  }
  if (failures > 5) {
    report->Fail(StrFormat("churn: %zu tenants failed the gate", failures));
  }
  return accuracy / static_cast<double>(batches.size());
}

// Mean client round trip over the pass's timed requests, in microseconds:
// the client-side counterpart of the daemon's mean net.request time.
double ClientMeanUs(const ChurnPass& pass) {
  const Samples& ingest = pass.ingest_from_send.all();
  const Samples& reconstruct = pass.reconstruct.all();
  const double n = static_cast<double>(ingest.size() + reconstruct.size());
  return n > 0 ? 1e6 *
                     (ingest.Mean() * ingest.size() +
                      reconstruct.Mean() * reconstruct.size()) /
                     n
               : 0.0;
}

}  // namespace

Status RunChurn(const Options& options, Values* values, Report* report) {
  const ChurnShape shape = ShapeFor(options);
  const api::DatasetSessionSpec spec = ChurnSpec();
  const Schedule schedule = MakeSchedule(shape, options.seed, options.seconds);
  PPDM_ASSIGN_OR_RETURN(std::unique_ptr<api::DatasetSession> model,
                        api::DatasetSession::Open(spec));
  std::vector<TenantBatches> batches;
  for (std::size_t t = 0; t < shape.tenants; ++t) {
    batches.push_back(MakeTenantBatches(*model, options.seed, t, shape.rows,
                                        1 + schedule.per_tenant[t]));
  }
  {
    PPDM_ASSIGN_OR_RETURN(std::unique_ptr<api::DatasetSession> one,
                          api::DatasetSession::Open(spec));
    PPDM_RETURN_IF_ERROR(one->Ingest(ppdm::data::RowBatch(
        batches[0].perturbed[0].data(), shape.rows, spec.schema.NumFields())));
    report->Note(StrFormat(
        "churn: %zu tenants, Zipf(%.1f), %.0f requests/s open loop over %zu "
        "connections, %zu workers, %zu-row ingests, %zu arrivals; a prefilled "
        "tenant accounts %zu bytes, %zu for all, registry budget %zu bytes",
        shape.tenants, shape.zipf_s, shape.rate, shape.connections,
        shape.workers, shape.rows, schedule.arrivals.size(),
        one->ApproxMemoryBytes(), one->ApproxMemoryBytes() * shape.tenants,
        shape.registry_budget));
  }
  const std::string store_dir =
      options.out_dir + StrFormat("/churn-store-%d", getpid());

  auto finish = [&](ChurnPass& pass, const char* label) {
    report->attempted += pass.attempted;
    report->failed += pass.failed;
    for (const std::string& line : pass.digests) {
      report->Note(std::string(label) + " traffic " + line);
    }
    report->NoteTiming(std::string(label) + " ingest from due",
                       pass.ingest_from_due, kIngestTail, 1e3, "ms");
    report->NoteTiming(std::string(label) + " ingest from send",
                       pass.ingest_from_send, kIngestTail, 1e3, "ms");
    report->NoteTiming(std::string(label) + " reconstruct", pass.reconstruct,
                       kReconstructTail, 1e3, "ms");
    report->NoteTiming(std::string(label) + " generator lateness",
                       pass.lateness, 99.0, 1e3, "ms");
    const std::size_t backlog_bound = std::max<std::size_t>(
        shape.max_backlog,
        static_cast<std::size_t>(shape.max_backlog_frac *
                                 static_cast<double>(pass.window_arrivals)));
    report->Note(StrFormat(
        "%s open-loop health: backlog %zu of %zu arrivals at the end "
        "(bound %zu), lateness p99 %.3f ms (bound %.1f ms)",
        label, pass.backlog, pass.window_arrivals, backlog_bound,
        pass.lateness.all().Percentile(99.0) * 1e3,
        shape.max_lateness_p99_s * 1e3));
    if (pass.backlog > backlog_bound ||
        pass.lateness.all().Percentile(99.0) > shape.max_lateness_p99_s) {
      report->Fail(std::string(label) +
                   " run invalid: the open loop fell behind its schedule");
    }
    const double accuracy =
        Gate(options, spec, batches, pass, store_dir, report);
    RemoveTree(store_dir);
    return accuracy;
  };

  obs::SetTimingEnabled(false);
  ChurnPass plain;
  Status ran = RunPass(options, shape, spec, schedule, batches, store_dir,
                       nullptr, &plain);
  if (!ran.ok()) {
    RemoveTree(store_dir);
    return ran;
  }
  const double accuracy = finish(plain, "untraced");
  Values& out = *values;
  if (!options.trace) {
    const Status timed =
        TimeSetups(ChurnServer(shape, store_dir), spec, shape.tenants,
                   shape.setup_reps, Prefill(shape, spec, batches),
                   &plain.setup_times);
    RemoveTree(store_dir);
    PPDM_RETURN_IF_ERROR(timed);
    out["setup_s"] = MedianOf(plain.setup_times);
    out["records_per_s"] = plain.records.RatePerSecond();
    out["peak_rss_mb"] =
        static_cast<double>(plain.exit.rss_growth_kb) / 1024.0;
    out["accuracy"] = accuracy;
    return Status::Ok();
  }
  out["ingest_p50_ms"] = plain.ingest_from_due.Stat(50.0) * 1e3;
  out["ingest_tail_ms"] = plain.ingest_from_due.Stat(kIngestTail) * 1e3;
  out["reconstruct_p50_ms"] = plain.reconstruct.Stat(50.0) * 1e3;
  out["reconstruct_tail_ms"] = plain.reconstruct.Stat(kReconstructTail) * 1e3;

  obs::SetTimingEnabled(true);
  SpanLog spans(1 << 17);
  ChurnPass traced;
  ran = RunPass(options, shape, spec, schedule, batches, store_dir, &spans,
                &traced);
  if (!ran.ok()) {
    RemoveTree(store_dir);
    return ran;
  }
  finish(traced, "traced");
  const ExpositionDelta delta(traced.before, traced.after);
  DaemonLayerMetrics(delta, values, report);
  const double client_p50_us = traced.ingest_from_send.Stat(50.0) * 1e6;
  out["net.rtt_gap_us"] = ClientMeanUs(traced) - out["net.request_us"];
  out["net.bytes_in_per_ingest"] =
      traced.ingests > 0 ? delta.Delta("ppdm_net_bytes_read_total") /
                               static_cast<double>(traced.ingests)
                         : 0.0;
  out["drain_s"] = traced.exit.drain_s;
  out["failed_frac"] = static_cast<double>(traced.failed) /
                       static_cast<double>(std::max<std::uint64_t>(
                           traced.attempted, 1));
  out["churn.lateness_p99_ms"] = traced.lateness.all().Percentile(99.0) * 1e3;
  out["churn.backlog"] = static_cast<double>(traced.backlog);

  // Replays on the busiest tenant's traffic, registry under churn's budget.
  ReplayInputs replay;
  replay.spec = spec;
  replay.batches = &batches[0];
  replay.registry_tenants = shape.tenants;
  replay.registry_budget = shape.registry_budget;
  replay.store_dir = options.out_dir + StrFormat("/churn-replay-%d", getpid());
  const Status replayed = ReplayServedLayers(replay, &spans, values, report);
  RemoveTree(replay.store_dir);
  PPDM_RETURN_IF_ERROR(replayed);
  const double stages_us =
      out["net.encode_frame_us"] + out["net.decode_frame_us"] +
      out["store.write_doubles_us"] + out["store.read_doubles_us"] +
      out["registry.lookup_us"] + out["session.ingest_us"];
  out["budget.coverage"] = client_p50_us > 0 ? stages_us / client_p50_us : 0.0;
  out["obs.trace_overhead_frac"] =
      traced.ingest_from_send.Stat(50.0) / plain.ingest_from_send.Stat(50.0) -
      1.0;
  report->Note(StrFormat(
      "budget: replayed stages %.1f us of a %.1f us client ingest p50 from "
      "send (daemon net.request %.1f us)",
      stages_us, client_p50_us, out["net.request_us"]));
  report->Note("self time: " + spans.SelfTimeSummary());
  PPDM_ASSIGN_OR_RETURN(
      const std::string path,
      spans.Write(options.out_dir +
                  StrFormat("/trace-churn-%llu.json",
                            static_cast<unsigned long long>(options.seed))));
  report->Note(StrFormat("chrome trace: %s (%llu spans dropped)", path.c_str(),
                         static_cast<unsigned long long>(spans.dropped())));
  return Status::Ok();
}

}  // namespace perfbench
