#include "served.h"

#include <cmath>
#include <cstring>

#include "common/random.h"
#include "common/strings.h"
#include "engine/simd.h"
#include "net/frame.h"
#include "reconstruct/reconstructor.h"
#include "store/codec.h"
#include "store/session_codec.h"
#include "store/snapshot_store.h"
#include "synth/generator.h"

namespace perfbench {

using ppdm::Result;
using ppdm::Status;
using ppdm::StrFormat;
namespace api = ppdm::api;
namespace net = ppdm::net;
namespace obs = ppdm::obs;
namespace store = ppdm::store;

TenantBatches MakeTenantBatches(const api::DatasetSession& model,
                                std::uint64_t seed, std::uint64_t tenant,
                                std::size_t rows, std::size_t count) {
  const api::DatasetSessionSpec& spec = model.spec();
  const std::size_t cols = spec.schema.NumFields();
  ppdm::synth::GeneratorOptions gen;
  gen.num_records = rows * count;
  gen.function = ppdm::synth::Function::kF1;
  gen.seed = seed + tenant * 1000003ULL;
  ppdm::synth::RecordStream stream(gen);
  ppdm::Rng noise(gen.seed ^ 0x9E3779B97F4A7C15ULL);

  TenantBatches out;
  out.perturbed.resize(count);
  out.truth.resize(count);
  for (std::size_t b = 0; b < count; ++b) {
    const ppdm::data::RowBatch batch = stream.Next(rows);
    std::vector<double>& values = out.perturbed[b];
    values.assign(batch.values(), batch.values() + batch.num_rows() * cols);
    out.truth[b].resize(spec.attributes.size());
    for (std::size_t a = 0; a < spec.attributes.size(); ++a) {
      out.truth[b][a].assign(model.partition(a).intervals(), 0);
    }
    for (std::size_t r = 0; r < batch.num_rows(); ++r) {
      double* row = values.data() + r * cols;
      for (std::size_t a = 0; a < spec.attributes.size(); ++a) {
        const std::size_t col = spec.attributes[a].column;
        ++out.truth[b][a][model.partition(a).IntervalOf(row[col])];
        row[col] += model.noise_model(a).Sample(&noise);
      }
    }
  }
  return out;
}

std::string IngestPayload(const std::vector<double>& values,
                          std::size_t cols) {
  store::Writer writer;
  writer.PutU64(values.size() / cols);
  writer.PutU64(cols);
  writer.PutDoubleArray(values);
  return writer.Take();
}

Result<std::vector<net::AttributeEstimate>> ParseEstimates(
    std::string_view payload) {
  store::Reader reader(payload);
  PPDM_ASSIGN_OR_RETURN(const std::uint64_t count, reader.ReadU64());
  std::vector<net::AttributeEstimate> estimates;
  for (std::uint64_t a = 0; a < count; ++a) {
    net::AttributeEstimate estimate;
    PPDM_ASSIGN_OR_RETURN(estimate.iterations, reader.ReadU64());
    PPDM_ASSIGN_OR_RETURN(estimate.sample_count, reader.ReadU64());
    PPDM_ASSIGN_OR_RETURN(estimate.masses, reader.ReadDoubleArray());
    estimates.push_back(std::move(estimate));
  }
  return estimates;
}

Result<std::unique_ptr<api::DatasetSession>> ReplayTenant(
    const api::DatasetSessionSpec& spec, const TenantBatches& batches,
    const std::vector<TenantOp>& ops, bool tamper, std::string* mismatch) {
  PPDM_ASSIGN_OR_RETURN(std::unique_ptr<api::DatasetSession> ref,
                        api::DatasetSession::Open(spec));
  const std::size_t cols = spec.schema.NumFields();
  std::size_t last_reconstruct = ops.size();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].batch < 0) last_reconstruct = i;
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const TenantOp& op = ops[i];
    if (op.batch >= 0) {
      const std::vector<double>& values =
          batches.perturbed[static_cast<std::size_t>(op.batch)];
      PPDM_RETURN_IF_ERROR(ref->Ingest(ppdm::data::RowBatch(
          values.data(), values.size() / cols, cols)));
      continue;
    }
    PPDM_ASSIGN_OR_RETURN(std::vector<ppdm::reconstruct::Reconstruction> want,
                          ref->ReconstructAll());
    if (tamper && i == last_reconstruct && !want.empty() &&
        !want[0].masses.empty()) {
      want[0].masses[0] = std::nextafter(want[0].masses[0], 2.0);
    }
    bool same = want.size() == op.estimates.size();
    for (std::size_t a = 0; same && a < want.size(); ++a) {
      same = want[a].iterations == op.estimates[a].iterations &&
             want[a].sample_count == op.estimates[a].sample_count &&
             SameBytes(want[a].masses, op.estimates[a].masses);
    }
    if (!same) {
      *mismatch = StrFormat("reconstruct #%zu differs from the reference", i);
      return ref;
    }
  }
  return ref;
}

double ReconstructionAccuracy(const TenantBatches& batches,
                              const std::vector<TenantOp>& ops) {
  std::size_t last = ops.size();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].batch < 0) last = i;
  }
  if (last == ops.size() || ops[last].estimates.empty()) return -1.0;
  const std::size_t attrs = ops[last].estimates.size();
  double accuracy = 0.0;
  for (std::size_t a = 0; a < attrs; ++a) {
    const std::vector<double>& masses = ops[last].estimates[a].masses;
    std::vector<double> truth(masses.size(), 0.0);
    double total = 0.0;
    for (std::size_t i = 0; i < last; ++i) {
      if (ops[i].batch < 0) continue;
      const auto& counts =
          batches.truth[static_cast<std::size_t>(ops[i].batch)][a];
      for (std::size_t k = 0; k < counts.size(); ++k) {
        truth[k] += counts[k];
        total += counts[k];
      }
    }
    double tv = 0.0;
    for (std::size_t k = 0; k < masses.size(); ++k) {
      tv += std::fabs(masses[k] - (total > 0 ? truth[k] / total : 0.0));
    }
    accuracy += 1.0 - 0.5 * tv;
  }
  return accuracy / static_cast<double>(attrs);
}

Result<DaemonProcess> LaunchTimed(
    const net::ServerOptions& options, const api::DatasetSessionSpec& spec,
    std::size_t tenants, int reps,
    const std::function<Status(net::Client*)>& prefill,
    std::vector<double>* setup_times) {
  for (int rep = 0; rep < reps; ++rep) {
    if (!options.checkpoint_dir.empty()) {
      RemoveTree(options.checkpoint_dir);
      PPDM_RETURN_IF_ERROR(MakeDirs(options.checkpoint_dir));
    }
    PPDM_ASSIGN_OR_RETURN(DaemonProcess daemon,
                          DaemonProcess::Launch(options));
    {
      PPDM_ASSIGN_OR_RETURN(net::Client client,
                            net::Client::Connect("127.0.0.1", daemon.port()));
      for (std::size_t t = 0; t < tenants; ++t) {
        PPDM_RETURN_IF_ERROR(client.Open(t, spec).status());
      }
      if (prefill) PPDM_RETURN_IF_ERROR(prefill(&client));
    }
    setup_times->push_back(SecondsBetween(daemon.start_time(), Clock::now()));
    if (rep + 1 == reps) return Result<DaemonProcess>(std::move(daemon));
    PPDM_RETURN_IF_ERROR(daemon.Stop().status);
  }
  return Status::InvalidArgument("LaunchTimed needs reps >= 1");
}

Status TimeSetups(const net::ServerOptions& options,
                  const api::DatasetSessionSpec& spec, std::size_t tenants,
                  int reps, const std::function<Status(net::Client*)>& prefill,
                  std::vector<double>* setup_times) {
  PPDM_ASSIGN_OR_RETURN(DaemonProcess daemon,
                        LaunchTimed(options, spec, tenants, reps, prefill,
                                    setup_times));
  return daemon.Stop().status;
}

Result<Exposition> Scrape(int port) {
  PPDM_ASSIGN_OR_RETURN(net::Client client,
                        net::Client::Connect("127.0.0.1", port));
  PPDM_ASSIGN_OR_RETURN(const std::string text, client.Stats());
  return Exposition(text);
}

void DaemonLayerMetrics(const ExpositionDelta& d, Values* v, Report* report) {
  Values& out = *v;
  out["net.request_us"] = d.Mean("ppdm_net_request_seconds", 1e6);
  out["net.read_pauses"] = d.Delta("ppdm_net_read_pauses_total");
  out["store.puts"] = d.Delta("ppdm_store_puts_total");
  out["store.put_bytes"] = d.Delta("ppdm_store_put_bytes_total");
  out["service.queue_wait_us"] =
      d.Mean("ppdm_service_queue_wait_seconds", 1e6);
  out["service.run_us"] = d.Mean("ppdm_service_run_seconds", 1e6);
  out["service.shed"] = d.Delta("ppdm_service_shed_jobs_total");
  const double lookups = d.Delta("ppdm_registry_lookups_total");
  const double hits = d.Delta("ppdm_registry_hits_total");
  out["registry.lookups"] = lookups;
  out["registry.hits"] = hits;
  out["registry.readmissions"] = d.Delta("ppdm_registry_readmissions_total");
  // The registry counts a re-admission as a hit; the ratio counts only
  // lookups served from RAM.
  out["registry.hit_ratio"] =
      lookups > 0 ? (hits - out["registry.readmissions"]) / lookups : 0.0;
  out["registry.spills"] = d.Delta("ppdm_registry_spills_total");
  out["registry.readmit_us"] = d.Mean("ppdm_registry_readmit_seconds", 1e6);
  out["em.fits"] = d.Delta("ppdm_em_fit_seconds_count");
  out["em.fit_us"] = d.Mean("ppdm_em_fit_seconds", 1e6);
  out["em.iterations"] = d.Mean("ppdm_em_iterations", 1.0);
  if (d.Has("ppdm_kernel_cache_builds_total")) {
    out["kernel.builds"] = d.Delta("ppdm_kernel_cache_builds_total");
  } else {
    report->Note("kernel.builds absent: the daemon exports no "
                 "ppdm_kernel_cache_builds_total");
  }
  out["engine.tasks"] = d.Delta("ppdm_engine_tasks_total");
  report->Note(StrFormat(
      "registry: %.0f hits (re-admissions included) of %.0f lookups, %.0f "
      "spills, %.0f readmissions",
      hits, lookups, out["registry.spills"], out["registry.readmissions"]));
}

namespace {

// Keeps replayed results observable so no call is optimized away.
std::size_t g_sink = 0;

}  // namespace

Status ReplayServedLayers(const ReplayInputs& in, SpanLog* spans,
                          Values* values, Report* report) {
  Values& out = *values;
  const std::vector<double>& batch = in.batches->perturbed.at(0);
  const std::size_t cols = in.spec.schema.NumFields();
  const std::size_t rows = batch.size() / cols;
  const std::string body = IngestPayload(batch, cols);
  const std::string frame = net::EncodeFrame(net::Verb::kIngest, 1, 0, 0, body);
  constexpr int kFast = 201;  // repeats of the microsecond calls
  constexpr int kSlow = 31;   // repeats of the millisecond calls

  obs::ScopedTraceContext trace(obs::TraceContext{obs::NewTraceId(), 0});
  obs::ScopedSpan root("replay", nullptr, spans->ring());
  // One span per replayed call group, child of the replay root.
  auto timed = [&](const char* name, int reps,
                   const std::function<void()>& fn) {
    obs::ScopedSpan span(name, nullptr, spans->ring());
    return MedianSeconds(reps, fn);
  };

  out["net.encode_frame_us"] = 1e6 * timed("net.EncodeFrame", kFast, [&] {
    g_sink += net::EncodeFrame(net::Verb::kIngest, 1, 0, 0, body).size();
  });
  out["net.decode_frame_us"] = 1e6 * timed("net.DecodeFrame", kFast, [&] {
    g_sink += net::DecodeFrame(frame).ok();
  });
  const double crc_s = timed("store.Crc32", kFast, [&] {
    g_sink += store::Crc32(body);
  });
  out["store.crc32_MBps"] = static_cast<double>(body.size()) / crc_s / 1e6;
  out["store.read_doubles_us"] =
      1e6 * timed("store.ReadDoubleArray", kFast, [&] {
        store::Reader reader(body);
        g_sink += reader.ReadU64().value_or(0) + reader.ReadU64().value_or(0);
        g_sink += reader.ReadDoubleArray().value_or({}).size();
      });
  out["store.write_doubles_us"] =
      1e6 * timed("store.PutDoubleArray", kFast,
                  [&] { g_sink += IngestPayload(batch, cols).size(); });

  // Registry lookup of a resident tenant, in a registry holding the
  // workload's tenants under the workload's budget.
  {
    api::SessionRegistryOptions options;
    options.max_bytes = in.registry_budget;
    api::SessionRegistry registry(options);
    std::string resident;
    for (std::size_t t = 0; t < in.registry_tenants; ++t) {
      resident = net::TenantName(t);
      PPDM_ASSIGN_OR_RETURN(std::shared_ptr<api::DatasetSession> session,
                            registry.Open(resident, in.spec));
      PPDM_RETURN_IF_ERROR(
          session->Ingest(ppdm::data::RowBatch(batch.data(), rows, cols)));
      // Ingest grows the session; a registry touch re-applies the budget.
      PPDM_RETURN_IF_ERROR(registry.TryLookup(resident).status());
    }
    out["registry.lookup_us"] =
        1e6 * timed("api.SessionRegistry.TryLookup", kFast,
                    [&] { g_sink += registry.TryLookup(resident).ok(); });
    const api::SessionRegistry::Stats stats = registry.GetStats();
    out["registry.accounted_mb"] =
        static_cast<double>(stats.approx_bytes) / (1 << 20);
    report->Note(StrFormat(
        "replay registry: %zu of %zu tenants resident, %zu bytes accounted "
        "under a %zu-byte budget",
        stats.open_sessions, in.registry_tenants, stats.approx_bytes,
        in.registry_budget));
  }

  PPDM_ASSIGN_OR_RETURN(std::unique_ptr<api::DatasetSession> session,
                        api::DatasetSession::Open(in.spec));
  out["session.ingest_us"] = 1e6 * timed("api.DatasetSession.Ingest", kFast, [&] {
    g_sink += session->Ingest(ppdm::data::RowBatch(batch.data(), rows, cols))
                  .ok();
  });
  for (std::size_t b = 1; b < in.batches->perturbed.size(); ++b) {
    const std::vector<double>& more = in.batches->perturbed[b];
    PPDM_RETURN_IF_ERROR(session->Ingest(
        ppdm::data::RowBatch(more.data(), more.size() / cols, cols)));
  }
  PPDM_RETURN_IF_ERROR(session->ReconstructAll().status());
  out["session.reconstruct_warm_us"] =
      1e6 * timed("api.DatasetSession.ReconstructAll.warm", kSlow, [&] {
        g_sink += session->ReconstructAll().ok();
      });

  const std::string capture = store::EncodeDatasetSession(*session);
  out["store.encode_session_us"] =
      1e6 * timed("store.EncodeDatasetSession", kFast, [&] {
        g_sink += store::EncodeDatasetSession(*session).size();
      });
  out["store.decode_session_us"] =
      1e6 * timed("store.DecodeDatasetSession", kFast, [&] {
        g_sink += store::DecodeDatasetSession(capture).ok();
      });
  {
    // Cold: a session just restored from its capture has no kernel tables.
    obs::ScopedSpan span("api.DatasetSession.ReconstructAll.cold", nullptr,
                         spans->ring());
    Samples cold;
    for (int i = 0; i < kSlow; ++i) {
      PPDM_ASSIGN_OR_RETURN(std::unique_ptr<api::DatasetSession> restored,
                            store::DecodeDatasetSession(capture));
      const auto t0 = Clock::now();
      g_sink += restored->ReconstructAll().ok();
      cold.Add(SecondsBetween(t0, Clock::now()));
    }
    out["session.reconstruct_cold_us"] = 1e6 * cold.Median();
  }

  PPDM_RETURN_IF_ERROR(MakeDirs(in.store_dir));
  PPDM_ASSIGN_OR_RETURN(const store::SnapshotStore snapshots,
                        store::SnapshotStore::Open(in.store_dir));
  Status put_status;
  out["store.put_us"] = 1e6 * timed("store.SnapshotStore.Put", kSlow, [&] {
    put_status = snapshots.Put("replay", capture);
  });
  PPDM_RETURN_IF_ERROR(put_status);
  out["store.get_us"] = 1e6 * timed("store.SnapshotStore.Get", kSlow, [&] {
    g_sink += snapshots.Get("replay").ok();
  });

  bool gaussian = false;
  for (std::size_t a = 0; a < in.spec.attributes.size() && !gaussian; ++a) {
    if (in.spec.attributes[a].noise != ppdm::perturb::NoiseKind::kGaussian) {
      continue;
    }
    gaussian = true;
    const ppdm::reconstruct::BayesReconstructor reconstructor(
        session->noise_model(a), in.spec.attributes[a].reconstruction);
    out["kernel.build_gauss_us"] =
        1e6 * timed("reconstruct.BuildKernelTable.gaussian", kSlow, [&] {
          g_sink += reconstructor.BuildKernelTable(session->partition(a),
                                                   nullptr)
                        .wbins;
        });
  }
  if (!gaussian) {
    report->Note("kernel.build_gauss_us absent: this workload tracks no "
                 "Gaussian-noise attribute");
  }

  // Binning one tracked column of the batch with its perturbed layout.
  {
    const ppdm::reconstruct::BayesReconstructor reconstructor(
        session->noise_model(0), in.spec.attributes[0].reconstruction);
    const ppdm::stats::Histogram layout =
        reconstructor.PerturbedBinning(session->partition(0));
    std::vector<double> column(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      column[r] = batch[r * cols + in.spec.attributes[0].column];
    }
    std::vector<std::uint32_t> bins(rows);
    const double bin_s = timed("engine.simd.BinIndices", kFast, [&] {
      ppdm::engine::simd::BinIndices(column.data(), rows, layout.lo(),
                                     layout.hi(), layout.width(),
                                     layout.bins(), bins.data());
      g_sink += bins[rows / 2];
    });
    out["engine.bin_ns_per_value"] = 1e9 * bin_s / static_cast<double>(rows);
  }
  report->Note(StrFormat("replay body: %zu rows x %zu cols, %zu bytes "
                         "(sink %zu)",
                         rows, cols, body.size(), g_sink & 1));
  return Status::Ok();
}

}  // namespace perfbench
