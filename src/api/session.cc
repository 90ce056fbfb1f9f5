#include "api/session.h"

#include <cmath>
#include <utility>

#include "api/spec.h"
#include "common/strings.h"

namespace ppdm::api {

Status SessionSpec::Validate() const {
  PPDM_RETURN_IF_ERROR(ValidateDomain(lo, hi, intervals));
  perturb::RandomizerOptions as_noise;
  as_noise.kind = noise;
  as_noise.privacy_fraction = privacy_fraction;
  as_noise.confidence = confidence;
  PPDM_RETURN_IF_ERROR(ValidateNoise(as_noise));
  if (!reconstruction.binned) {
    // Streaming folds binned counts on arrival; the per-sample FitExact
    // path needs every raw observation and cannot be honoured here. Reject
    // rather than silently diverge from the batch result.
    return Status::InvalidArgument(
        "streaming sessions require reconstruction.binned (the per-sample "
        "exact path needs the full column)");
  }
  return ValidateReconstruction(reconstruction);
}

ReconstructionSession::ReconstructionSession(const SessionSpec& spec,
                                             perturb::NoiseModel model,
                                             engine::ThreadPool* pool)
    : spec_(spec),
      pool_(pool),
      state_(spec.lo, spec.hi, spec.intervals, std::move(model),
             spec.reconstruction) {}

Result<std::unique_ptr<ReconstructionSession>> ReconstructionSession::Open(
    const SessionSpec& spec, engine::ThreadPool* pool) {
  PPDM_RETURN_IF_ERROR(spec.Validate());
  const perturb::NoiseModel model = perturb::NoiseForPrivacy(
      spec.noise, spec.privacy_fraction, spec.hi - spec.lo, spec.confidence);
  return std::unique_ptr<ReconstructionSession>(
      new ReconstructionSession(spec, model, pool));
}

Status ReconstructionSession::Ingest(const double* values,
                                     std::size_t count) {
  if (values == nullptr && count > 0) {
    return Status::InvalidArgument("null batch with nonzero count");
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::isfinite(values[i])) {
      return Status::InvalidArgument(StrFormat(
          "batch value %zu is not finite; batch rejected", i));
    }
  }

  // Bin the batch on arrival, sharded over the pool, outside the session
  // lock: each shard accumulates its own integer counts, so the merged
  // result is identical for every pool size and every batching. The
  // equi-width fast path computes bin indices with the dispatched batch
  // kernel — identical indices to BinOf on every SIMD path.
  const stats::Histogram& layout = state_.layout();
  engine::ShardStats binned = engine::IngestBinnedColumn(
      values, count, layout.lo(), layout.hi(), layout.width(), layout.bins(),
      pool_, spec_.shard_size);

  std::lock_guard<std::mutex> lock(mu_);
  state_.stats().MergeFrom(binned);
  ++batches_;
  return Status::Ok();
}

Status ReconstructionSession::Ingest(const std::vector<double>& values) {
  return Ingest(values.data(), values.size());
}

Result<reconstruct::Reconstruction> ReconstructionSession::Reconstruct() {
  // Snapshot under the lock; run EM outside it so ingestion continues
  // while the estimate is refreshed.
  std::vector<double> weights;
  double total_weight = 0.0;
  std::vector<double> initial;
  bool warm = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    weights = state_.stats().BinWeights();
    total_weight = static_cast<double>(state_.stats().record_count());
    if (spec_.warm_start && state_.has_estimate()) {
      initial = state_.last_masses();
      warm = true;
    }
  }

  reconstruct::Reconstruction recon = state_.reconstructor().FitFromCounts(
      weights, total_weight, state_.partition(), pool_,
      warm ? &initial : nullptr);

  {
    std::lock_guard<std::mutex> lock(mu_);
    state_.set_last_masses(recon.masses);
  }
  return recon;
}

std::uint64_t ReconstructionSession::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.stats().record_count();
}

std::uint64_t ReconstructionSession::batch_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

bool ReconstructionSession::has_estimate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.has_estimate();
}

std::size_t ReconstructionSession::ApproxMemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  // state_ is embedded by value, so sizeof(*this) already covers it.
  return sizeof(*this) + state_.ApproxHeapBytes();
}

}  // namespace ppdm::api
