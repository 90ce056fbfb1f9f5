// Pieces the two served workloads (upload, churn) share: seeded provider
// streams, the reference replay behind the correctness gate, daemon set-up
// timing, the daemon-counter layer metrics and the layer replays.

#ifndef PERFBENCH_SERVED_H_
#define PERFBENCH_SERVED_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/dataset_session.h"
#include "api/registry.h"
#include "common.h"
#include "net/client.h"
#include "net/server.h"

namespace perfbench {

using Values = std::map<std::string, double>;

/// One tenant's provider-side input: perturbed row-major batches and, per
/// batch, the true (unperturbed) interval counts of every tracked
/// attribute, for the reconstruction-accuracy metric.
struct TenantBatches {
  std::vector<std::vector<double>> perturbed;
  /// truth[batch][attribute][interval]
  std::vector<std::vector<std::vector<std::uint32_t>>> truth;
};

/// `count` batches of `rows` records for `tenant`, seeded the way
/// `ppdm loadgen` seeds its per-tenant streams (record stream seed
/// seed + tenant * 1000003, noise stream seed ^ golden ratio) and
/// perturbed with the noise models of `model` (a session of the spec
/// the daemon serves).
TenantBatches MakeTenantBatches(const ppdm::api::DatasetSession& model,
                                std::uint64_t seed, std::uint64_t tenant,
                                std::size_t rows, std::size_t count);

/// The ingest verb's request payload (what net::Client::Ingest sends).
std::string IngestPayload(const std::vector<double>& values,
                          std::size_t cols);

/// Parses a reconstruct response payload (what net::Client::Reconstruct
/// decodes).
ppdm::Result<std::vector<ppdm::net::AttributeEstimate>> ParseEstimates(
    std::string_view payload);

/// One acknowledged request of a tenant, in the order the daemon ran it.
struct TenantOp {
  /// Index into the tenant's batches for an ingest; -1 for a reconstruct.
  std::int64_t batch = -1;
  std::vector<ppdm::net::AttributeEstimate> estimates;
};

/// Correctness gate for one tenant: feeds a fresh in-process session
/// `prefix` batches then the acknowledged ops in order, and checks every
/// reconstruct answer byte for byte. With `tamper` the reference's last
/// answer is moved by one ulp first, so a working gate must fail. On
/// success returns the reference session (for capture checks); on a
/// mismatch sets `*mismatch`.
ppdm::Result<std::unique_ptr<ppdm::api::DatasetSession>> ReplayTenant(
    const ppdm::api::DatasetSessionSpec& spec, const TenantBatches& batches,
    const std::vector<TenantOp>& ops, bool tamper, std::string* mismatch);

/// 1 - total variation distance between the tenant's last reconstruct and
/// the true interval distribution of its acknowledged batches, averaged
/// over attributes; -1 when the tenant has no reconstruct.
double ReconstructionAccuracy(const TenantBatches& batches,
                              const std::vector<TenantOp>& ops);

/// Launches the daemon `reps` times, each time opening every tenant (and
/// running `prefill` when given) and timing Server::Start until then; the
/// times are appended to `*setup_times`. Every launch but the last is
/// stopped; the last one is returned.
ppdm::Result<DaemonProcess> LaunchTimed(
    const ppdm::net::ServerOptions& options,
    const ppdm::api::DatasetSessionSpec& spec, std::size_t tenants, int reps,
    const std::function<ppdm::Status(ppdm::net::Client*)>& prefill,
    std::vector<double>* setup_times);

/// LaunchTimed that stops every launch. Runs once more after the measured
/// phase, so the reported set-up median spans the run's whole length
/// instead of one moment of the host's load.
ppdm::Status TimeSetups(
    const ppdm::net::ServerOptions& options,
    const ppdm::api::DatasetSessionSpec& spec, std::size_t tenants, int reps,
    const std::function<ppdm::Status(ppdm::net::Client*)>& prefill,
    std::vector<double>* setup_times);

/// Scrapes the daemon's metrics exposition (the stats verb).
ppdm::Result<Exposition> Scrape(int port);

/// Layer metrics read from the daemon's own counters and histogram sums
/// over a scrape window.
void DaemonLayerMetrics(const ExpositionDelta& delta, Values* values,
                        Report* report);

/// Inputs of the bench-timed layer replays of a served workload.
struct ReplayInputs {
  ppdm::api::DatasetSessionSpec spec;
  /// Batches of one tenant: [0] is the replayed ingest batch, all of them
  /// fill the session the reconstruct replays use.
  const TenantBatches* batches = nullptr;
  /// Registry the lookup replay fills: tenant count and byte budget.
  std::size_t registry_tenants = 1;
  std::size_t registry_budget = 0;
  /// Directory for the SnapshotStore put/get replay.
  std::string store_dir;
};

/// Times each layer's public call on the workload's inputs (median of
/// repeats), recording one span per call under one replay trace, and
/// fills the matching per-layer metrics.
ppdm::Status ReplayServedLayers(const ReplayInputs& in, SpanLog* spans,
                                Values* values, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVED_H_
