// Reconstruction of an original value distribution from perturbed samples
// and the known noise density — the heart of the paper (§4).
//
// The iterative Bayes update of §4 is, in the interval-partitioned form of
// §4.3, exactly the EM algorithm for a finite mixture with known component
// densities f_Y(w − m_k) and unknown weights p_k (the observation made by
// Agrawal & Aggarwal, PODS '01). This implementation therefore exposes the
// log-likelihood trace, whose monotone increase is EM's signature and is
// property-tested in tests/reconstruct_test.cc.

#ifndef PPDM_RECONSTRUCT_RECONSTRUCTOR_H_
#define PPDM_RECONSTRUCT_RECONSTRUCTOR_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "engine/thread_pool.h"
#include "perturb/noise_model.h"
#include "reconstruct/partition.h"
#include "stats/histogram.h"

namespace ppdm::reconstruct {

/// Tuning knobs for the iterative reconstruction.
struct ReconstructionOptions {
  /// Hard cap on EM iterations.
  std::size_t max_iterations = 500;

  /// Stop when the χ² statistic between successive mass vectors drops
  /// below this threshold (the paper's stopping criterion: iterate until
  /// the estimate stops changing). EM deconvolution overfits if run to
  /// full convergence — the ML estimate itself grows spiky artifacts
  /// (exactly the Richardson–Lucy "night sky" effect) — so this default
  /// deliberately stops at the χ² level where reconstruction error
  /// bottoms out empirically across noise kinds and levels.
  double chi_square_epsilon = 1e-4;

  /// Use the paper's O(K²)-per-iteration accelerated form that bins the
  /// perturbed values first (§4.3). When false, iterate over every sample
  /// (O(N·K) per iteration) — numerically the reference implementation.
  bool binned = true;
};

/// Output of a reconstruction run.
struct Reconstruction {
  /// Estimated P(X ∈ I_k) per interval; sums to 1.
  std::vector<double> masses;

  /// Number of EM iterations performed.
  std::size_t iterations = 0;

  /// χ² between successive iterates, one entry per iteration.
  std::vector<double> chi_square_trace;

  /// Log-likelihood of the perturbed sample under the estimate, one entry
  /// per iteration; non-decreasing (EM).
  std::vector<double> log_likelihood_trace;

  /// Number of perturbed samples the estimate was fitted from.
  std::size_t sample_count = 0;

  /// Estimated cumulative mass strictly below interval `k`'s upper edge.
  double CdfAtEdge(std::size_t k) const;
};

/// Component-likelihood table of the binned EM in compact Toeplitz form.
/// Row j, entry k is P(W ∈ w-bin j | X = m_k), integrated exactly over
/// the w bin via the noise CDF. The w bins share the partition's width
/// and sit `extension` bins below its lower edge, so an interior entry
/// depends only on the offset d = j − k − extension:
///   T[j, k] = c[d] − c[d − 1],  with c[m] = F((m + ½) · width).
/// The two outermost rows also absorb the clamped tails (their lower or
/// upper CDF is 0 or 1), so they are stored beside the diagonal.
///
/// `diagonal[i]` holds the entry at offset k − j = i − (wbins − 1), so
/// interior row j is the contiguous slice starting at wbins − 1 − j. Every
/// row is read `stride` wide (intervals padded to a SIMD lane multiple);
/// the padding lanes hold finite values that multiply a zero mass, so the
/// blocked E-step kernels run without a remainder tail. The table costs
/// O(wbins + intervals) CDF evaluations and is built inside every fit.
struct KernelTable {
  std::size_t wbins = 0;      ///< perturbed-value bins (table rows)
  std::size_t intervals = 0;  ///< partition intervals (logical columns)
  std::size_t stride = 0;     ///< row width: intervals padded to a lane multiple
  std::size_t extension = 0;  ///< w bins below the partition's lower edge
  std::vector<double> diagonal;  ///< wbins + stride − 1 entries
  std::vector<double> edges;     ///< first row, then last row; stride each

  /// Row j, readable `stride` entries wide.
  const double* Row(std::size_t j) const {
    if (j == 0) return edges.data();
    if (j + 1 == wbins) return edges.data() + stride;
    return diagonal.data() + (wbins - 1 - j);
  }

  /// The interval absorbing w-bin j if every component density vanishes
  /// there: the interval under the bin, clamped to the partition.
  std::size_t Fallback(std::size_t j) const {
    if (j < extension) return 0;
    return std::min(j - extension, intervals - 1);
  }

  /// Heap bytes behind the table.
  std::size_t ApproxHeapBytes() const;
};

/// Fits interval masses to perturbed samples by iterated Bayes / EM.
class BayesReconstructor {
 public:
  BayesReconstructor(perturb::NoiseModel noise, ReconstructionOptions options);

  /// Reconstructs the distribution of X over `partition` from the
  /// perturbed values w_i = x_i + y_i. With kNone noise this degenerates
  /// to the exact histogram of the samples. An empty sample yields the
  /// uniform distribution (the EM prior).
  ///
  /// The binned path ingests the column into PerturbedBinning(partition)
  /// counts (sharded at `shard_size` values, 0 = one shard) and fits them
  /// with FitFromCounts; the exact path (options().binned == false) is
  /// the per-sample reference. The counts are integers and the E-step
  /// runs at a fixed chunk grain folded in chunk order, so the result is
  /// bit-identical for every pool size (nullptr runs inline), shard size
  /// and SIMD path.
  Reconstruction Fit(const std::vector<double>& perturbed,
                     const Partition& partition,
                     engine::ThreadPool* pool = nullptr,
                     std::size_t shard_size = 0) const;

  /// The perturbed-value binning the binned path uses for `partition`:
  /// the partition's grid extended on each side by
  /// ceil(EffectiveHalfWidth / width) bins, so overshooting perturbed
  /// values land in aligned edge bins. Streaming ingestion bins arriving
  /// observations with exactly this layout (the counts it accumulates are
  /// the ones Fit would ingest from the full column).
  stats::Histogram PerturbedBinning(const Partition& partition) const;

  /// Fits from pre-binned perturbed-value counts — `weights[j]`
  /// observations fell in bin j of PerturbedBinning(partition),
  /// `total_weight` observations in all. Counts are integers, so any
  /// ingestion split (one batch, many batches, sharded) yields the same
  /// weights, and with `initial == nullptr` the result is byte-identical
  /// to Fit on the equivalent raw column for every pool size.
  /// A non-null `initial` (length partition.intervals(), summing to ~1)
  /// warm-starts EM from a previous estimate instead of the uniform prior:
  /// masses are floored at a tiny positive value and renormalized so a
  /// zero in the old estimate can never absorb an interval permanently.
  Reconstruction FitFromCounts(const std::vector<double>& weights,
                               double total_weight,
                               const Partition& partition,
                               engine::ThreadPool* pool,
                               const std::vector<double>* initial =
                                   nullptr) const;

  /// Builds the binned-EM likelihood table for `partition` — what every
  /// binned fit does first. Depends only on the reconstructor's noise
  /// model and the partition layout. The build is O(wbins + intervals)
  /// and runs inline; `pool` is accepted for call-site symmetry with the
  /// fits and never changes the table.
  KernelTable BuildKernelTable(const Partition& partition,
                               engine::ThreadPool* pool) const;

  const perturb::NoiseModel& noise() const { return noise_; }
  const ReconstructionOptions& options() const { return options_; }

 private:
  Reconstruction FitExact(const std::vector<double>& perturbed,
                          const Partition& partition,
                          engine::ThreadPool* pool) const;

  perturb::NoiseModel noise_;
  ReconstructionOptions options_;
};

}  // namespace ppdm::reconstruct

#endif  // PPDM_RECONSTRUCT_RECONSTRUCTOR_H_
