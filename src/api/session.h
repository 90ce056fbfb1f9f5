// Session-oriented streaming reconstruction — the serving shape of the
// paper's server: perturbed records arrive from providers in batches over
// time, and the miner wants an estimate of the true distribution at any
// point, not only after the last record.
//
// A ReconstructionSession folds arriving batches into the engine's
// mergeable per-bin counts (ShardStats) as they arrive — binning each
// perturbed value once, on arrival — and runs EM on demand. Because the
// folded counts are integers, the accumulated statistics are identical for
// every batching of the same records, so a session's first Reconstruct()
// is byte-identical to the batch BayesReconstructor::Fit over the
// concatenated column, for every pool size. Subsequent Reconstruct() calls
// warm-start EM from the previous estimate, which is what makes periodic
// re-estimation cheap as the stream grows.
//
// Thread safety: Ingest() and Reconstruct() may be called concurrently
// from different service jobs. Ingestion folds under a lock; Reconstruct()
// snapshots the counts under the lock and runs EM outside it, so a long
// EM never stalls the ingest path.

#ifndef PPDM_API_SESSION_H_
#define PPDM_API_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "api/attribute_state.h"
#include "common/status.h"
#include "engine/thread_pool.h"
#include "perturb/noise_model.h"
#include "reconstruct/partition.h"
#include "reconstruct/reconstructor.h"

namespace ppdm::api {

/// Everything a streaming reconstruction session needs to know up front:
/// the attribute domain, the (public) noise the providers applied, and the
/// EM tuning. Validated on Open.
struct SessionSpec {
  /// Attribute domain [lo, hi), partitioned into `intervals` equal cells.
  double lo = 0.0;
  double hi = 1.0;
  std::size_t intervals = 30;

  /// The providers' noise: kind plus the privacy it was calibrated to
  /// offer over this attribute's range at `confidence`.
  perturb::NoiseKind noise = perturb::NoiseKind::kUniform;
  double privacy_fraction = 1.0;
  double confidence = 0.95;

  /// EM tuning. `reconstruction.binned` must stay true: a session folds
  /// binned counts on arrival, so the per-sample exact path is not
  /// available (Validate rejects binned == false).
  reconstruct::ReconstructionOptions reconstruction;

  /// Records per ingestion shard when a batch is folded over the pool.
  /// Affects only ingestion throughput, never the counts.
  std::size_t shard_size = 16384;

  /// Warm-start each Reconstruct() after the first from the previous
  /// estimate. Off, every call runs cold from the uniform prior (and so
  /// stays byte-identical to the batch path at any point in the stream).
  bool warm_start = true;

  /// kOk, or kInvalidArgument naming the offending field.
  Status Validate() const;
};

/// A server-side streaming reconstruction of one attribute.
class ReconstructionSession {
 public:
  /// Validates `spec` and opens a session. `pool` (borrowed, may be null)
  /// parallelizes ingestion and the EM E-step; the session's results are
  /// identical for every pool.
  static Result<std::unique_ptr<ReconstructionSession>> Open(
      const SessionSpec& spec, engine::ThreadPool* pool = nullptr);

  /// Folds one batch of perturbed observations into the session counts.
  /// Safe to call concurrently with Reconstruct(). Rejects non-finite
  /// values with kInvalidArgument (nothing from the batch is folded).
  Status Ingest(const double* values, std::size_t count);
  Status Ingest(const std::vector<double>& values);

  /// Runs EM over everything ingested so far and returns the estimate.
  /// The first call (or every call with warm_start off) starts from the
  /// uniform prior and is byte-identical to Fit over the
  /// concatenated batches; later calls warm-start from the previous
  /// estimate. An empty session yields the uniform distribution.
  Result<reconstruct::Reconstruction> Reconstruct();

  /// Records ingested so far.
  std::uint64_t record_count() const;

  /// Batches ingested so far.
  std::uint64_t batch_count() const;

  /// True once Reconstruct() has produced an estimate.
  bool has_estimate() const;

  /// Approximate resident bytes of the session (state plus counts) — the
  /// unit registry byte budgets account in.
  std::size_t ApproxMemoryBytes() const;

  const SessionSpec& spec() const { return spec_; }
  const reconstruct::Partition& partition() const {
    return state_.partition();
  }
  const perturb::NoiseModel& noise_model() const {
    return state_.noise_model();
  }

 private:
  ReconstructionSession(const SessionSpec& spec, perturb::NoiseModel model,
                        engine::ThreadPool* pool);

  const SessionSpec spec_;
  engine::ThreadPool* const pool_;

  mutable std::mutex mu_;
  AttributeState state_;       // counts + warm masses guarded by mu_
  std::uint64_t batches_ = 0;  // guarded by mu_
};

}  // namespace ppdm::api

#endif  // PPDM_API_SESSION_H_
