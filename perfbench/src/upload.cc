// upload: data providers streaming large perturbed batches. A closed loop
// on 1 connection drives 4 tenants with 1024-row x 9-column ingest frames
// (2 tracked uniform-noise attributes, K=30) against a daemon with 2
// workers; each tenant asks for a reconstruct every 16th batch. Frame
// encode, CRC32 and decode dominate, so this loads `net` and the `store`
// codec.
//
// The client and the daemon run pinned to one CPU. With one request in
// flight they take turns anyway, and unpinned the throughput followed
// where the host happened to place the two processes: over eight seeds
// run alternately on a shared 4-vCPU VM, records_per_s spread
// (IQR/median) 0.29 unpinned and 0.05 pinned (perfbench/README.md).

#include <unistd.h>

#include <algorithm>
#include <thread>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/codec.h"
#include "synth/generator.h"
#include "workloads.h"

namespace perfbench {

using ppdm::Result;
using ppdm::Status;
using ppdm::StrFormat;
namespace api = ppdm::api;
namespace net = ppdm::net;
namespace obs = ppdm::obs;

namespace {

struct UploadShape {
  std::size_t tenants = 4;
  /// One request in flight. With two connections, throughput followed the
  /// host's momentary core count and the runs of one build disagreed.
  std::size_t connections = 1;
  std::size_t workers = 2;
  std::size_t rows = 1024;
  /// Distinct batches per tenant, sent in rotation.
  std::size_t pool = 32;
  std::size_t reconstruct_every = 16;
  double warmup_s = 1.0;
  /// Daemon launches timed before and again after the measured phase.
  int setup_reps = 15;
};

/// Tail percentiles, fixed so every run reports the same statistic: an
/// upload run has thousands of ingests but only hundreds of reconstructs.
constexpr double kIngestTail = 99.0;
constexpr double kReconstructTail = 90.0;

UploadShape ShapeFor(const Options& options) {
  UploadShape shape;
  if (options.smoke) {
    shape.rows = 64;
    shape.pool = 4;
    shape.warmup_s = 0.1;
    shape.setup_reps = 2;
  }
  return shape;
}

net::ServerOptions UploadServer(const UploadShape& shape) {
  net::ServerOptions server;
  server.num_threads = shape.workers;
  return server;
}

api::DatasetSessionSpec UploadSpec() {
  api::DatasetSessionSpec spec;
  spec.schema = ppdm::synth::BenchmarkSchema();
  for (std::size_t column : {0, 1}) {
    api::AttributeSpec attribute;
    attribute.column = column;
    attribute.intervals = 30;
    attribute.noise = ppdm::perturb::NoiseKind::kUniform;
    attribute.privacy_fraction = 1.0;
    spec.attributes.push_back(attribute);
  }
  return spec;
}

struct UploadPass {
  std::vector<double> setup_times;
  SegmentedSamples ingest{1.0, 1};       // seconds, from send
  SegmentedSamples reconstruct{1.0, 1};  // seconds, from send
  SegmentedSamples records{1.0, 1};      // acknowledged rows
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ingests = 0;  // every ingest sent, warm-up included
  std::vector<std::vector<TenantOp>> ops;  // per tenant
  std::vector<std::string> digests;        // per connection
  Exposition before;
  Exposition after;
  DaemonExit exit;
};

struct ConnectionResult {
  Status status;
  SegmentedSamples ingest{1.0, 1};
  SegmentedSamples reconstruct{1.0, 1};
  SegmentedSamples records{1.0, 1};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ingests = 0;
  Digest prefix_digest;  // first kDigestRequests requests
  std::uint64_t requests = 0;
};

constexpr std::uint64_t kDigestRequests = 256;

Status RunPass(const Options& options, const UploadShape& shape,
               const api::DatasetSessionSpec& spec,
               const std::vector<TenantBatches>& batches,
               const std::vector<std::vector<std::uint64_t>>& batch_ids,
               SpanLog* spans, UploadPass* pass) {
  PPDM_ASSIGN_OR_RETURN(
      DaemonProcess daemon,
      LaunchTimed(UploadServer(shape), spec, shape.tenants, shape.setup_reps,
                  nullptr, &pass->setup_times));
  PPDM_ASSIGN_OR_RETURN(pass->before, Scrape(daemon.port()));

  const std::size_t cols = spec.schema.NumFields();
  pass->ops.assign(shape.tenants, {});
  const SegmentedSamples empty(options.seconds, SegmentsFor(options.seconds));
  pass->ingest = pass->reconstruct = pass->records = empty;
  std::vector<ConnectionResult> results(shape.connections);
  for (ConnectionResult& r : results) r.ingest = r.reconstruct = r.records = empty;
  const auto start = Clock::now();
  const auto warm_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(shape.warmup_s));
  const auto end = warm_end + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      options.seconds));
  const bool traced = spans != nullptr;

  auto connection = [&](std::size_t c) {
    ConnectionResult& r = results[c];
    Result<net::Client> connected =
        net::Client::Connect("127.0.0.1", daemon.port());
    if (!connected.ok()) {
      r.status = connected.status();
      return;
    }
    net::Client& client = connected.value();
    std::vector<std::uint64_t> tenants;
    for (std::size_t t = c; t < shape.tenants; t += shape.connections) {
      tenants.push_back(t);
    }
    std::vector<std::uint64_t> sent(shape.tenants, 0);
    auto note_request = [&](std::uint64_t tenant, net::Verb verb,
                            std::uint64_t content) {
      if (r.requests++ < kDigestRequests) {
        r.prefix_digest.AddU64(tenant);
        r.prefix_digest.AddU64(static_cast<std::uint64_t>(verb));
        r.prefix_digest.AddU64(content);
      }
      ++r.attempted;
    };
    for (std::size_t turn = 0; Clock::now() < end; ++turn) {
      const std::uint64_t t = tenants[turn % tenants.size()];
      const std::size_t b = sent[t]++ % shape.pool;
      note_request(t, net::Verb::kIngest, batch_ids[t][b]);
      ++r.ingests;
      Result<std::uint64_t> acked = Status::Ok();
      const std::uint64_t trace_id = traced ? obs::NewTraceId() : 0;
      client.set_trace_id(trace_id);
      const auto t0 = Clock::now();
      {
        obs::ScopedTraceContext context(obs::TraceContext{trace_id, 0});
        obs::ScopedSpan span("client.ingest", nullptr,
                             traced ? spans->ring() : nullptr);
        acked = client.Ingest(t, shape.rows, cols, batches[t].perturbed[b]);
      }
      const auto t1 = Clock::now();
      if (!acked.ok()) {
        ++r.failed;
        r.status = acked.status();
        return;  // the gate cannot tell whether the daemon folded it
      }
      pass->ops[t].push_back(TenantOp{static_cast<std::int64_t>(b), {}});
      if (t0 >= warm_end && t1 <= end) {
        r.ingest.Add(SecondsBetween(warm_end, t0), SecondsBetween(t0, t1));
        r.records.Add(SecondsBetween(warm_end, t0),
                      static_cast<double>(shape.rows));
      }
      if (sent[t] % shape.reconstruct_every != 0) continue;
      note_request(t, net::Verb::kReconstruct, 0);
      const auto t2 = Clock::now();
      Result<std::vector<net::AttributeEstimate>> estimates = Status::Ok();
      {
        obs::ScopedTraceContext context(obs::TraceContext{trace_id, 0});
        obs::ScopedSpan span("client.reconstruct", nullptr,
                             traced ? spans->ring() : nullptr);
        estimates = client.Reconstruct(t);
      }
      const auto t3 = Clock::now();
      if (!estimates.ok()) {
        ++r.failed;
        r.status = estimates.status();
        return;
      }
      pass->ops[t].push_back(TenantOp{-1, std::move(estimates.value())});
      if (t2 >= warm_end && t3 <= end) {
        r.reconstruct.Add(SecondsBetween(warm_end, t2), SecondsBetween(t2, t3));
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < shape.connections; ++c) {
    threads.emplace_back(connection, c);
  }
  for (std::thread& thread : threads) thread.join();

  Status status;
  for (std::size_t c = 0; c < shape.connections; ++c) {
    const ConnectionResult& r = results[c];
    if (status.ok() && !r.status.ok()) status = r.status;
    pass->ingest.Append(r.ingest);
    pass->reconstruct.Append(r.reconstruct);
    pass->records.Append(r.records);
    pass->attempted += r.attempted;
    pass->failed += r.failed;
    pass->ingests += r.ingests;
    pass->digests.push_back(StrFormat(
        "connection %zu: %llu requests, first %llu digest %s", c,
        static_cast<unsigned long long>(r.requests),
        static_cast<unsigned long long>(
            std::min<std::uint64_t>(r.requests, kDigestRequests)),
        r.prefix_digest.Hex().c_str()));
  }
  if (!status.ok()) {
    pass->exit = daemon.Stop();
    return status;
  }
  PPDM_ASSIGN_OR_RETURN(pass->after, Scrape(daemon.port()));
  {
    // The gate's final answer per tenant.
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

// Replays every tenant's acknowledged traffic in process; returns the
// mean reconstruction accuracy.
double Gate(const Options& options, const api::DatasetSessionSpec& spec,
            const std::vector<TenantBatches>& batches, const UploadPass& pass,
            Report* report) {
  double accuracy = 0.0;
  for (std::size_t t = 0; t < batches.size(); ++t) {
    std::string mismatch;
    Result<std::unique_ptr<api::DatasetSession>> ref = ReplayTenant(
        spec, batches[t], pass.ops[t], options.tamper && t == 0, &mismatch);
    if (!ref.ok()) {
      report->Fail(StrFormat("upload tenant %zu: reference replay: %s", t,
                             ref.status().ToString().c_str()));
    } else if (!mismatch.empty()) {
      report->Fail(StrFormat("upload tenant %zu: %s", t, mismatch.c_str()));
    }
    accuracy += ReconstructionAccuracy(batches[t], pass.ops[t]);
  }
  return accuracy / static_cast<double>(batches.size());
}

// Mean client round trip over the pass's timed requests, in microseconds:
// the client-side counterpart of the daemon's mean net.request time.
double ClientMeanUs(const UploadPass& pass) {
  const Samples& ingest = pass.ingest.all();
  const Samples& reconstruct = pass.reconstruct.all();
  const double n = static_cast<double>(ingest.size() + reconstruct.size());
  return n > 0 ? 1e6 *
                     (ingest.Mean() * ingest.size() +
                      reconstruct.Mean() * reconstruct.size()) /
                     n
               : 0.0;
}

}  // namespace

Status RunUpload(const Options& options, Values* values, Report* report) {
  const int cpu = PinToOneCpu();
  if (cpu < 0) return Status::Internal("upload: cannot pin to one CPU");
  const UploadShape shape = ShapeFor(options);
  const api::DatasetSessionSpec spec = UploadSpec();
  PPDM_ASSIGN_OR_RETURN(std::unique_ptr<api::DatasetSession> model,
                        api::DatasetSession::Open(spec));
  std::vector<TenantBatches> batches;
  std::vector<std::vector<std::uint64_t>> batch_ids(shape.tenants);
  for (std::size_t t = 0; t < shape.tenants; ++t) {
    batches.push_back(
        MakeTenantBatches(*model, options.seed, t, shape.rows, shape.pool));
    for (const std::vector<double>& batch : batches.back().perturbed) {
      Digest digest;
      digest.Add(batch.data(), batch.size() * sizeof(double));
      batch_ids[t].push_back(digest.value());
    }
  }
  const std::size_t body_bytes =
      IngestPayload(batches[0].perturbed[0], spec.schema.NumFields()).size();
  report->Note(StrFormat(
      "upload: %zu tenants, %zu connections, %zu workers, %zu-row ingest "
      "bodies of %zu bytes, reconstruct every %zu batches, %.1f s warm-up; "
      "client and daemon pinned to CPU %d",
      shape.tenants, shape.connections, shape.workers, shape.rows, body_bytes,
      shape.reconstruct_every, shape.warmup_s, cpu));

  auto finish = [&](UploadPass& pass, const char* label) {
    report->attempted += pass.attempted;
    report->failed += pass.failed;
    for (const std::string& line : pass.digests) {
      report->Note(std::string(label) + " traffic " + line);
    }
    report->NoteTiming(std::string(label) + " ingest", pass.ingest,
                       kIngestTail, 1e3, "ms");
    report->NoteTiming(std::string(label) + " reconstruct", pass.reconstruct,
                       kReconstructTail, 1e3, "ms");
    if (pass.ingest.all().Beyond(kIngestTail) < 10 ||
        pass.reconstruct.all().Beyond(kReconstructTail) < 10) {
      report->Note("fewer than ten samples beyond a reported tail percentile");
    }
    return Gate(options, spec, batches, pass, report);
  };

  obs::SetTimingEnabled(false);
  UploadPass plain;
  PPDM_RETURN_IF_ERROR(
      RunPass(options, shape, spec, batches, batch_ids, nullptr, &plain));
  const double accuracy = finish(plain, "untraced");
  Values& out = *values;
  if (!options.trace) {
    PPDM_RETURN_IF_ERROR(TimeSetups(UploadServer(shape), spec, shape.tenants,
                                    shape.setup_reps, nullptr,
                                    &plain.setup_times));
    out["setup_s"] = MedianOf(plain.setup_times);
    out["records_per_s"] = plain.records.RatePerSecond();
    out["peak_rss_mb"] =
        static_cast<double>(plain.exit.rss_growth_kb) / 1024.0;
    out["accuracy"] = accuracy;
    return Status::Ok();
  }
  out["ingest_p50_ms"] = plain.ingest.Stat(50.0) * 1e3;
  out["ingest_tail_ms"] = plain.ingest.Stat(kIngestTail) * 1e3;
  out["reconstruct_p50_ms"] = plain.reconstruct.Stat(50.0) * 1e3;
  out["reconstruct_tail_ms"] = plain.reconstruct.Stat(kReconstructTail) * 1e3;

  // Traced run: same seed and schedule, timing on, spans recorded.
  obs::SetTimingEnabled(true);
  SpanLog spans(1 << 17);
  UploadPass traced;
  PPDM_RETURN_IF_ERROR(
      RunPass(options, shape, spec, batches, batch_ids, &spans, &traced));
  finish(traced, "traced");
  const ExpositionDelta delta(traced.before, traced.after);
  DaemonLayerMetrics(delta, values, report);
  const double client_p50_us = traced.ingest.Stat(50.0) * 1e6;
  out["net.rtt_gap_us"] = ClientMeanUs(traced) - out["net.request_us"];
  out["net.bytes_in_per_ingest"] =
      traced.ingests > 0 ? delta.Delta("ppdm_net_bytes_read_total") /
                               static_cast<double>(traced.ingests)
                         : 0.0;
  out["drain_s"] = traced.exit.drain_s;
  out["failed_frac"] = static_cast<double>(traced.failed) /
                       static_cast<double>(std::max<std::uint64_t>(
                           traced.attempted, 1));
  ReplayInputs replay;
  replay.spec = spec;
  replay.batches = &batches[0];
  replay.registry_tenants = shape.tenants;
  replay.store_dir = options.out_dir + StrFormat("/upload-store-%d", getpid());
  const Status replayed = ReplayServedLayers(replay, &spans, values, report);
  RemoveTree(replay.store_dir);
  PPDM_RETURN_IF_ERROR(replayed);
  const double stages_us =
      out["net.encode_frame_us"] + out["net.decode_frame_us"] +
      out["store.write_doubles_us"] + out["store.read_doubles_us"] +
      out["registry.lookup_us"] + out["session.ingest_us"];
  out["budget.coverage"] = client_p50_us > 0 ? stages_us / client_p50_us : 0.0;
  out["obs.trace_overhead_frac"] =
      traced.ingest.Stat(50.0) / plain.ingest.Stat(50.0) - 1.0;
  report->Note(StrFormat(
      "budget: replayed stages %.1f us of a %.1f us client ingest p50 "
      "(daemon net.request %.1f us)",
      stages_us, client_p50_us, out["net.request_us"]));
  report->Note("self time: " + spans.SelfTimeSummary());
  PPDM_ASSIGN_OR_RETURN(
      const std::string path,
      spans.Write(options.out_dir +
                  StrFormat("/trace-upload-%llu.json",
                            static_cast<unsigned long long>(options.seed))));
  report->Note(StrFormat("chrome trace: %s (%llu spans dropped)", path.c_str(),
                         static_cast<unsigned long long>(spans.dropped())));
  return Status::Ok();
}

}  // namespace perfbench
