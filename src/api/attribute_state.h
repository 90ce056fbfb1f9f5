// Per-attribute streaming reconstruction state — the unit both session
// shapes are built from. A ReconstructionSession owns one AttributeState;
// a DatasetSession owns one per tracked attribute and folds a record
// batch into all of them in a single pass.
//
// An AttributeState bundles the fixed layout of one attribute's streaming
// reconstruction (interval partition, noise-aware reconstructor, the
// perturbed-value bin layout) with its mutable accumulation (mergeable
// ShardStats counts and the warm-start masses of the last fit). It is NOT
// thread-safe: the owning session guards the mutable parts with its own
// mutex and keeps EM outside the lock by snapshotting the counts.

#ifndef PPDM_API_ATTRIBUTE_STATE_H_
#define PPDM_API_ATTRIBUTE_STATE_H_

#include <cstddef>
#include <vector>

#include "engine/shard_stats.h"
#include "perturb/noise_model.h"
#include "reconstruct/partition.h"
#include "reconstruct/reconstructor.h"
#include "stats/histogram.h"

namespace ppdm::api {

/// Streaming reconstruction state of one attribute: fixed layout plus
/// accumulated counts and warm-start masses (owner-synchronized).
class AttributeState {
 public:
  AttributeState(double lo, double hi, std::size_t intervals,
                 perturb::NoiseModel model,
                 const reconstruct::ReconstructionOptions& options);

  // Fixed layout — immutable after construction, safe to read without the
  // owner's lock.
  const reconstruct::Partition& partition() const { return partition_; }
  const reconstruct::BayesReconstructor& reconstructor() const {
    return reconstructor_;
  }
  const perturb::NoiseModel& noise_model() const {
    return reconstructor_.noise();
  }
  const stats::Histogram& layout() const { return layout_; }
  std::size_t num_bins() const { return layout_.bins(); }

  /// Perturbed-value bin of one arriving observation.
  std::size_t BinOf(double value) const { return layout_.BinOf(value); }

  // Mutable accumulation — owner's lock required.
  engine::ShardStats& stats() { return stats_; }
  const engine::ShardStats& stats() const { return stats_; }

  bool has_estimate() const { return !last_masses_.empty(); }
  const std::vector<double>& last_masses() const { return last_masses_; }
  void set_last_masses(std::vector<double> masses);

  /// Installs restored accumulation (snapshot decode / registry
  /// re-admission). Preconditions — validated by the decoding caller,
  /// which surfaces violations as Status errors: `stats` shaped
  /// num_bins() x 1 class; `masses` empty or partition().intervals()
  /// entries. Owner's lock required.
  void RestoreAccumulation(engine::ShardStats stats,
                           std::vector<double> masses);

  /// Approximate heap bytes behind this state (counts, layout, warm-start
  /// masses) — everything it keeps between requests. Excludes
  /// sizeof(AttributeState) so owners embedding the state by value don't
  /// double-count it. Owner's lock required.
  std::size_t ApproxHeapBytes() const;

  /// Heap bytes plus the struct itself — the per-state unit a session
  /// registry's byte budget accounts in. Owner's lock required.
  std::size_t ApproxMemoryBytes() const {
    return sizeof(*this) + ApproxHeapBytes();
  }

 private:
  const reconstruct::Partition partition_;
  const reconstruct::BayesReconstructor reconstructor_;
  /// Perturbed-value bin layout; fixed for the state's lifetime.
  const stats::Histogram layout_;

  engine::ShardStats stats_;
  std::vector<double> last_masses_;  // empty until first fit
};

}  // namespace ppdm::api

#endif  // PPDM_API_ATTRIBUTE_STATE_H_
