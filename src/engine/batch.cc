#include "engine/batch.h"

#include "common/check.h"
#include "stats/histogram.h"

namespace ppdm::engine {

Batch::Batch(const BatchOptions& options) : options_(options) {
  if (options_.num_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

ShardStats Batch::IngestShards(const std::vector<double>& values,
                               const std::vector<int>& labels,
                               std::size_t num_classes, double lo, double hi,
                               std::size_t num_bins) const {
  const stats::Histogram binning(lo, hi, num_bins);
  return IngestSharded(
      values, labels.empty() ? nullptr : &labels,
      labels.empty() ? 1 : num_classes,
      [&binning](double v) { return binning.BinOf(v); }, num_bins, pool(),
      options_.shard_size);
}

data::Dataset Batch::PerturbShards(const perturb::Randomizer& randomizer,
                                   const data::Dataset& dataset) const {
  return randomizer.Perturb(dataset, pool(), options_.shard_size);
}

reconstruct::Reconstruction Batch::ReconstructParallel(
    const std::vector<double>& perturbed,
    const reconstruct::Partition& partition,
    const reconstruct::BayesReconstructor& reconstructor) const {
  return reconstructor.Fit(perturbed, partition, pool(),
                           options_.shard_size);
}

std::vector<reconstruct::Reconstruction> Batch::ReconstructByClassParallel(
    const data::Dataset& perturbed, std::size_t col,
    const reconstruct::Partition& partition,
    const reconstruct::BayesReconstructor& reconstructor) const {
  return reconstruct::ReconstructByClassParallel(perturbed, col, partition,
                                                 reconstructor, pool());
}

}  // namespace ppdm::engine
