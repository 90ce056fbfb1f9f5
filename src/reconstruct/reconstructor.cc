#include "reconstruct/reconstructor.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/check.h"
#include "engine/shard_stats.h"
#include "engine/simd.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "stats/histogram.h"

namespace ppdm::reconstruct {
namespace {

namespace simd = engine::simd;

constexpr double kTinyDensity = 1e-300;

// EM telemetry: wall time per fit and iterations-to-converge, recorded
// once per RunEm call (never inside the iteration loop — the hot path
// stays untouched and the output bits cannot depend on the telemetry).
obs::Histogram& EmFitSecondsHistogram() {
  static obs::Histogram& histogram =
      *obs::MetricsRegistry::Global().GetHistogram(
          "ppdm_em_fit_seconds", obs::Histogram::LatencyBucketsSeconds());
  return histogram;
}

obs::Histogram& EmIterationsHistogram() {
  static obs::Histogram& histogram =
      *obs::MetricsRegistry::Global().GetHistogram(
          "ppdm_em_iterations", obs::Histogram::IterationBuckets());
  return histogram;
}

// Every likelihood-table build. The name predates the removal of the
// per-session table cache; dashboards and the benchmark read it as is.
obs::Counter& KernelTableBuildsCounter() {
  static obs::Counter& counter = *obs::MetricsRegistry::Global().GetCounter(
      "ppdm_kernel_cache_builds_total");
  return counter;
}

// E-step grain: table rows per chunk. Fixed (never derived from the thread
// count) so the partial-sum tree — and therefore every output bit — is
// invariant under the pool size.
constexpr std::size_t kEmChunkBins = 32;

// Row grain for embarrassingly parallel per-row work (exact-path rows).
constexpr std::size_t kKernelChunkRows = 64;

// Floor applied to warm-start masses before renormalization: EM can never
// resurrect an exactly-zero component, so a stale zero in a previous
// session estimate must not permanently absorb an interval.
constexpr double kWarmStartFloor = 1e-12;

// Perturbed-value bins added on each side of the partition so the noise
// support fits: ceil(EffectiveHalfWidth / width).
std::size_t ExtensionBins(const perturb::NoiseModel& noise,
                          const Partition& partition) {
  return static_cast<std::size_t>(
      std::ceil(noise.EffectiveHalfWidth() / partition.width()));
}

std::vector<double> UniformMasses(std::size_t k) {
  return std::vector<double>(k, 1.0 / static_cast<double>(k));
}

// Exact histogram — the degenerate reconstruction when there is no noise.
// An empty sample yields the uniform distribution (the EM prior).
Reconstruction HistogramMasses(const std::vector<double>& values,
                               const Partition& partition) {
  Reconstruction out;
  out.sample_count = values.size();
  if (values.empty()) {
    out.masses = UniformMasses(partition.intervals());
    return out;
  }
  std::vector<double> counts(partition.intervals(), 0.0);
  for (double v : values) counts[partition.IntervalOf(v)] += 1.0;
  for (double& c : counts) c /= static_cast<double>(values.size());
  out.masses = std::move(counts);
  return out;
}

// Shared EM loop over a likelihood table: `weights[j]` perturbed
// observations sit in table row j (Table::Row(j), read `stride` wide;
// Table::Fallback(j) absorbs the row when no component reaches it). The
// E-step is decomposed into fixed chunks of kEmChunkBins rows; per-chunk
// partial sums are folded in ascending chunk order, so the output is
// bit-identical regardless of `pool` (nullptr runs the identical
// decomposition inline).
//
// The inner product and scale-accumulate run on the dispatched SIMD path
// (engine::simd::ActivePath()); kScalar and kAvx2 share one lane-blocked
// decomposition and are byte-identical to each other. Mass vectors live in
// stride-wide buffers whose padding lanes hold exact zeros, so the blocked
// kernels never need a remainder tail (the padded products are +0.0 —
// exact).
//
// `initial` (optional) seeds the iteration in place of the uniform prior —
// the warm-start path of streaming sessions. Floored and renormalized so no
// component starts at exactly zero.
template <typename Table>
Reconstruction RunEm(const std::vector<double>& weights, const Table& table,
                     double total_weight, const ReconstructionOptions& options,
                     engine::ThreadPool* pool,
                     const std::vector<double>* initial = nullptr) {
  obs::ScopedTimer fit_timer(&EmFitSecondsHistogram());
  PPDM_CHECK_EQ(weights.size(), table.wbins);
  const std::size_t num_intervals = table.intervals;
  const std::size_t stride = table.stride;
  const simd::Path path = simd::ActivePath();

  Reconstruction out;
  out.sample_count = static_cast<std::size_t>(total_weight + 0.5);
  std::vector<double> p(stride, 0.0);
  if (initial != nullptr) {
    PPDM_CHECK_EQ(initial->size(), num_intervals);
    double start_mass = 0.0;
    for (std::size_t k = 0; k < num_intervals; ++k) {
      p[k] = std::max((*initial)[k], kWarmStartFloor);
      start_mass += p[k];
    }
    for (std::size_t k = 0; k < num_intervals; ++k) p[k] /= start_mass;
  } else {
    const double uniform = 1.0 / static_cast<double>(num_intervals);
    for (std::size_t k = 0; k < num_intervals; ++k) p[k] = uniform;
  }
  std::vector<double> next(stride, 0.0);

  const std::vector<engine::ChunkRange> chunks =
      engine::MakeChunks(weights.size(), kEmChunkBins);
  // Per-chunk accumulators in one arena, each chunk's slice rounded up to
  // a whole number of cache lines and the arena 64-byte-aligned, so pool
  // threads never write into each other's cache lines (no false sharing).
  const std::size_t acc_stride = (stride + 7) / 8 * 8;
  simd::AlignedDoubles partial_arena(chunks.size() * acc_stride);
  std::vector<double> partial_ll(chunks.size(), 0.0);

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    engine::ParallelFor(pool, chunks.size(), [&](std::size_t c) {
      double* local = partial_arena.data() + c * acc_stride;
      std::fill(local, local + acc_stride, 0.0);
      double ll = 0.0;
      for (std::size_t j = chunks[c].begin; j < chunks[c].end; ++j) {
        if (weights[j] == 0.0) continue;
        const double* row = table.Row(j);
        const double denom = simd::Dot(row, p.data(), stride, path);
        if (denom <= kTinyDensity) {
          // No component reaches this observation (clamped edge bin under
          // bounded noise): attribute it wholly to the nearest interval.
          local[table.Fallback(j)] += weights[j];
          ll += weights[j] * std::log(kTinyDensity);
          continue;
        }
        ll += weights[j] * std::log(denom);
        simd::ScaleAdd(local, row, p.data(), weights[j] / denom, stride,
                       path);
      }
      partial_ll[c] = ll;
    });
    // Ordered fold of the chunk partials — the only place chunk results
    // meet, and it is sequential in chunk index by construction.
    std::fill(next.begin(), next.end(), 0.0);
    double log_likelihood = 0.0;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const double* local = partial_arena.data() + c * acc_stride;
      for (std::size_t k = 0; k < num_intervals; ++k) {
        next[k] += local[k];
      }
      log_likelihood += partial_ll[c];
    }
    for (std::size_t k = 0; k < num_intervals; ++k) next[k] /= total_weight;

    // Numerical safety: renormalize so the masses stay a distribution.
    double mass = 0.0;
    for (std::size_t k = 0; k < num_intervals; ++k) mass += next[k];
    PPDM_CHECK_GT(mass, 0.0);
    for (std::size_t k = 0; k < num_intervals; ++k) next[k] /= mass;

    const double chi2 = stats::ChiSquareDistance(next, p);
    out.log_likelihood_trace.push_back(log_likelihood);
    out.chi_square_trace.push_back(chi2);
    p.swap(next);
    ++out.iterations;
    if (chi2 < options.chi_square_epsilon) break;
  }
  out.masses.assign(p.begin(), p.begin() + num_intervals);
  EmIterationsHistogram().Observe(static_cast<double>(out.iterations));
  return out;
}

// Per-sample likelihood table of the exact path: row j holds
// f_Y(w_j − m_k), padded like KernelTable so RunEm's blocked kernels apply.
struct SampleTable {
  std::size_t wbins = 0;
  std::size_t intervals = 0;
  std::size_t stride = 0;
  std::vector<double> kernel;         // wbins × stride, padding zero
  std::vector<std::size_t> fallback;  // interval under each sample

  const double* Row(std::size_t j) const { return &kernel[j * stride]; }
  std::size_t Fallback(std::size_t j) const { return fallback[j]; }
};

}  // namespace

std::size_t KernelTable::ApproxHeapBytes() const {
  return (diagonal.capacity() + edges.capacity()) * sizeof(double);
}

double Reconstruction::CdfAtEdge(std::size_t k) const {
  PPDM_CHECK_LE(k, masses.size());
  double c = 0.0;
  for (std::size_t i = 0; i < k; ++i) c += masses[i];
  return c;
}

BayesReconstructor::BayesReconstructor(perturb::NoiseModel noise,
                                       ReconstructionOptions options)
    : noise_(noise), options_(options) {
  PPDM_CHECK_GT(options.max_iterations, 0u);
  PPDM_CHECK_GE(options.chi_square_epsilon, 0.0);
}

Reconstruction BayesReconstructor::Fit(const std::vector<double>& perturbed,
                                       const Partition& partition,
                                       engine::ThreadPool* pool,
                                       std::size_t shard_size) const {
  if (noise_.kind() == perturb::NoiseKind::kNone) {
    return HistogramMasses(perturbed, partition);
  }
  if (perturbed.empty()) {
    Reconstruction out;
    out.masses = UniformMasses(partition.intervals());
    return out;
  }
  if (!options_.binned) return FitExact(perturbed, partition, pool);
  // Sharded ingestion: per-shard integer bin counts merged in shard order
  // are exactly the sequential histogram, for every pool size. The bin
  // index is computed by the dispatched batch kernel, which reproduces
  // Histogram::BinOf exactly on every path (integer outputs — no rounding
  // freedom).
  const stats::Histogram whist = PerturbedBinning(partition);
  const engine::ShardStats ingested = engine::IngestBinnedColumn(
      perturbed.data(), perturbed.size(), whist.lo(), whist.hi(),
      whist.width(), whist.bins(), pool, shard_size);
  return FitFromCounts(ingested.BinWeights(),
                       static_cast<double>(perturbed.size()), partition,
                       pool);
}

stats::Histogram BayesReconstructor::PerturbedBinning(
    const Partition& partition) const {
  // Perturbed values live on a range widened by the noise support; bin them
  // with the same width so kernel evaluations use aligned midpoints.
  const double width = partition.width();
  const std::size_t extension = ExtensionBins(noise_, partition);
  return stats::Histogram(
      partition.lo() - width * static_cast<double>(extension),
      partition.hi() + width * static_cast<double>(extension),
      partition.intervals() + 2 * extension);
}

KernelTable BayesReconstructor::BuildKernelTable(
    const Partition& partition, engine::ThreadPool* /*pool*/) const {
  KernelTableBuildsCounter().Increment();
  KernelTable table;
  table.intervals = partition.intervals();
  table.extension = ExtensionBins(noise_, partition);
  table.wbins = table.intervals + 2 * table.extension;
  table.stride = simd::PadLanes(table.intervals);

  // The CDF sequence c[m] = F((m + ½)·width) for m in [−reach, reach),
  // reach = intervals + extension: every offset the table needs.
  const auto reach =
      static_cast<std::ptrdiff_t>(table.intervals + table.extension);
  std::vector<double> cdf(2 * static_cast<std::size_t>(reach));
  const double width = partition.width();
  for (std::ptrdiff_t m = -reach; m < reach; ++m) {
    cdf[static_cast<std::size_t>(m + reach)] =
        noise_.Cdf((static_cast<double>(m) + 0.5) * width);
  }
  const auto c = [&](std::ptrdiff_t m) {
    return cdf[static_cast<std::size_t>(m + reach)];
  };

  // diagonal[i] sits at offset d = j − k − extension = reach − 1 − i;
  // the entries past the last real offset are zero padding.
  const std::size_t num_offsets = table.wbins + table.intervals - 1;
  table.diagonal.assign(table.wbins + table.stride - 1, 0.0);
  for (std::size_t i = 0; i < num_offsets; ++i) {
    const std::ptrdiff_t d = reach - 1 - static_cast<std::ptrdiff_t>(i);
    table.diagonal[i] = c(d) - c(d - 1);
  }
  // The outermost bins also absorb the clamped tails: row 0 integrates
  // from −∞ (it keeps only the upper CDF of offset d = −k − extension),
  // the last row to +∞ (it keeps 1 − the lower CDF of d = reach − 1 − k).
  table.edges.assign(2 * table.stride, 0.0);
  const auto ext = static_cast<std::ptrdiff_t>(table.extension);
  for (std::size_t k = 0; k < table.intervals; ++k) {
    const auto sk = static_cast<std::ptrdiff_t>(k);
    table.edges[k] = c(-sk - ext);
    table.edges[table.stride + k] = 1.0 - c(reach - 2 - sk);
  }
  return table;
}

Reconstruction BayesReconstructor::FitFromCounts(
    const std::vector<double>& weights, double total_weight,
    const Partition& partition, engine::ThreadPool* pool,
    const std::vector<double>* initial) const {
  PPDM_CHECK_EQ(weights.size(),
                partition.intervals() + 2 * ExtensionBins(noise_, partition));
  if (total_weight <= 0.0) {
    Reconstruction out;
    out.masses = UniformMasses(partition.intervals());
    return out;
  }
  if (noise_.kind() == perturb::NoiseKind::kNone) {
    // No noise: the w bins are the partition intervals and the estimate is
    // the exact histogram — the same degenerate path Fit takes.
    Reconstruction out;
    out.sample_count = static_cast<std::size_t>(total_weight + 0.5);
    out.masses.assign(weights.begin(), weights.end());
    for (double& m : out.masses) m /= total_weight;
    return out;
  }
  return RunEm(weights, BuildKernelTable(partition, pool), total_weight,
               options_, pool, initial);
}

Reconstruction BayesReconstructor::FitExact(
    const std::vector<double>& perturbed, const Partition& partition,
    engine::ThreadPool* pool) const {
  const std::size_t num_intervals = partition.intervals();
  std::vector<double> weights(perturbed.size(), 1.0);
  SampleTable table;
  table.wbins = perturbed.size();
  table.intervals = num_intervals;
  table.stride = simd::PadLanes(num_intervals);
  table.kernel.assign(table.wbins * table.stride, 0.0);
  table.fallback.resize(table.wbins);
  const std::vector<engine::ChunkRange> rows =
      engine::MakeChunks(perturbed.size(), kKernelChunkRows);
  engine::ParallelFor(pool, rows.size(), [&](std::size_t c) {
    for (std::size_t j = rows[c].begin; j < rows[c].end; ++j) {
      table.fallback[j] = partition.IntervalOf(perturbed[j]);
      double* row = &table.kernel[j * table.stride];
      for (std::size_t k = 0; k < num_intervals; ++k) {
        row[k] = noise_.Pdf(perturbed[j] - partition.Mid(k));
      }
    }
  });
  return RunEm(weights, table, static_cast<double>(perturbed.size()),
               options_, pool);
}

}  // namespace ppdm::reconstruct
