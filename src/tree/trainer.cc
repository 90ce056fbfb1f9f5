#include "tree/trainer.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/random.h"
#include "reconstruct/assign.h"
#include "reconstruct/by_class.h"
#include "tree/gini.h"
#include "tree/prune.h"

namespace ppdm::tree {
namespace {

using reconstruct::AssignByOrderStatistics;
using reconstruct::BayesReconstructor;
using reconstruct::Partition;
using reconstruct::Reconstruction;

// Per-attribute interval range [first, second) still possible at a node;
// used by Local to restrict per-node reconstruction to the node's domain.
using Bounds = std::vector<std::pair<std::size_t, std::size_t>>;

// Row indices of the training records at a node.
using Rows = std::vector<std::uint32_t>;

class Builder {
 public:
  Builder(const data::Dataset& dataset, TrainingMode mode,
          const TreeOptions& options, const perturb::Randomizer* randomizer,
          engine::ThreadPool* pool)
      : dataset_(dataset),
        mode_(mode),
        options_(options),
        randomizer_(randomizer),
        pool_(pool),
        num_classes_(static_cast<std::size_t>(dataset.num_classes())),
        num_cols_(dataset.NumCols()),
        intervals_(options.intervals) {
    PPDM_CHECK_GT(dataset.NumRows(), 0u);
    PPDM_CHECK_LE(dataset.NumRows(), std::size_t{UINT32_MAX});
    PPDM_CHECK_GT(options.intervals, 1u);
    PPDM_CHECK_LE(options.intervals, std::size_t{UINT16_MAX} + 1);
    PPDM_CHECK_LE(num_classes_, std::size_t{UINT16_MAX} + 1);
    PPDM_CHECK_GT(options.max_depth, 0u);
    if (ModeUsesReconstruction(mode_)) {
      PPDM_CHECK_MSG(randomizer_ != nullptr,
                     "reconstruction modes need the noise models");
    }
    partitions_.reserve(num_cols_);
    for (std::size_t c = 0; c < num_cols_; ++c) {
      partitions_.push_back(Partition::ForField(dataset.schema().Field(c),
                                                options.intervals));
    }
    labels_.assign(dataset.labels().begin(), dataset.labels().end());
    // Local also precomputes ByClass root assignments: small nodes fall
    // back to them, and every node routes by them.
    PrecomputeAssignments();
  }

  DecisionTree Build() {
    Rows rows(dataset_.NumRows());
    std::iota(rows.begin(), rows.end(), 0u);

    Rows holdout;
    if (options_.pruning == PruningMode::kReducedError &&
        options_.holdout_fraction > 0.0 && dataset_.NumRows() >= 8) {
      Rng rng(options_.holdout_seed);
      rng.Shuffle(&rows);
      auto holdout_size = static_cast<std::size_t>(
          options_.holdout_fraction * static_cast<double>(rows.size()));
      holdout_size = std::min(holdout_size, rows.size() - 1);
      holdout.assign(rows.end() - static_cast<std::ptrdiff_t>(holdout_size),
                     rows.end());
      rows.resize(rows.size() - holdout_size);
    }

    Bounds bounds(num_cols_, {0, options_.intervals});
    std::vector<double> class_counts(num_classes_, 0.0);
    for (std::uint32_t r : rows) class_counts[labels_[r]] += 1.0;
    std::vector<std::uint32_t> counts(CountsSize(), 0);
    CountRows(rows, counts.data());
    BuildNode(std::move(rows), bounds, 1, std::move(class_counts),
              std::move(counts));

    switch (options_.pruning) {
      case PruningMode::kNone:
        break;
      case PruningMode::kPessimistic:
        nodes_ = PruneNodes(std::move(nodes_), misclassified_,
                            options_.pruning_z);
        break;
      case PruningMode::kReducedError: {
        if (holdout.empty()) break;
        std::vector<std::vector<double>> records;
        std::vector<int> labels;
        records.reserve(holdout.size());
        labels.reserve(holdout.size());
        for (std::uint32_t r : holdout) {
          records.push_back(RoutingValues(r));
          labels.push_back(dataset_.Label(r));
        }
        nodes_ = ReducedErrorPrune(std::move(nodes_), records, labels);
        break;
      }
    }
    return DecisionTree(std::move(nodes_));
  }

 private:
  // ------------------------------------------------------------------
  // Root-time interval association for every mode.
  void PrecomputeAssignments() {
    codes_.assign(dataset_.NumRows() * num_cols_, 0);
    std::vector<Rows> by_class;
    if (mode_ == TrainingMode::kByClass || mode_ == TrainingMode::kLocal) {
      Rows all(dataset_.NumRows());
      std::iota(all.begin(), all.end(), 0u);
      by_class = SplitByClass(all);
    }
    // Fan the per-attribute reconstructions out over the pool: each column
    // writes only its own codes and runs the sequential reference
    // reconstruction, so the result is independent of the pool size.
    engine::ParallelFor(pool_, num_cols_, [&](std::size_t col) {
      PrecomputeColumn(col, by_class);
    });
  }

  void PrecomputeColumn(std::size_t col, const std::vector<Rows>& by_class) {
    const std::vector<double>& column = dataset_.Column(col);
    switch (mode_) {
      case TrainingMode::kOriginal:
      case TrainingMode::kRandomized:
        // Values used as-is: clamp into the domain partition.
        for (std::size_t r = 0; r < column.size(); ++r) {
          SetCode(r, col, partitions_[col].IntervalOf(column[r]));
        }
        break;
      case TrainingMode::kGlobal: {
        const BayesReconstructor reconstructor(randomizer_->ModelFor(col),
                                               options_.reconstruction);
        const Reconstruction recon = reconstruct::ReconstructCombined(
            dataset_, col, partitions_[col], reconstructor);
        const std::vector<std::size_t> assignment =
            AssignByOrderStatistics(column, recon.masses);
        for (std::size_t r = 0; r < assignment.size(); ++r) {
          SetCode(r, col, assignment[r]);
        }
        break;
      }
      case TrainingMode::kByClass:
      case TrainingMode::kLocal: {
        // Reconstruct each class's values, then deal that class's records
        // into intervals by order statistics. (Local uses these ByClass
        // codes for its small nodes and for routing.)
        const BayesReconstructor reconstructor(randomizer_->ModelFor(col),
                                               options_.reconstruction);
        std::vector<double> values;
        for (const Rows& rows : by_class) {
          Gather(column, rows, &values);
          const Reconstruction recon =
              reconstructor.Fit(values, partitions_[col]);
          const std::vector<std::size_t> assignment =
              AssignByOrderStatistics(values, recon.masses);
          for (std::size_t i = 0; i < rows.size(); ++i) {
            SetCode(rows[i], col, assignment[i]);
          }
        }
        break;
      }
    }
  }

  void SetCode(std::size_t row, std::size_t col, std::size_t interval) {
    codes_[row * num_cols_ + col] = static_cast<std::uint16_t>(interval);
  }

  std::size_t Code(std::size_t row, std::size_t col) const {
    return codes_[row * num_cols_ + col];
  }

  // Attribute values used to route a record during reduced-error pruning:
  // raw values for the baselines, assignment-denoised interval midpoints
  // for the reconstruction modes.
  std::vector<double> RoutingValues(std::size_t row) const {
    std::vector<double> values(num_cols_);
    if (mode_ == TrainingMode::kOriginal ||
        mode_ == TrainingMode::kRandomized) {
      for (std::size_t c = 0; c < values.size(); ++c) {
        values[c] = dataset_.At(row, c);
      }
    } else {
      for (std::size_t c = 0; c < values.size(); ++c) {
        values[c] = partitions_[c].Mid(Code(row, c));
      }
    }
    return values;
  }

  // ------------------------------------------------------------------
  // A node's integer class counts, [col][class][interval] over the full
  // interval range of every attribute.
  std::size_t CountsSize() const {
    return num_cols_ * num_classes_ * intervals_;
  }

  std::size_t Cell(std::size_t col, std::size_t klass, std::size_t k) const {
    return (col * num_classes_ + klass) * intervals_ + k;
  }

  // Adds every column's count of `rows` in one pass over the rows.
  void CountRows(const Rows& rows, std::uint32_t* counts) const {
    const std::size_t stride = num_classes_ * intervals_;
    for (std::uint32_t r : rows) {
      const std::uint16_t* code = &codes_[std::size_t{r} * num_cols_];
      std::uint32_t* at = counts + std::size_t{labels_[r]} * intervals_;
      for (std::size_t col = 0; col < num_cols_; ++col, at += stride) {
        ++at[code[col]];
      }
    }
  }

  // The node's rows split by class, each list in the node's row order.
  std::vector<Rows> SplitByClass(const Rows& rows) const {
    std::vector<Rows> by_class(num_classes_);
    for (std::uint32_t r : rows) by_class[labels_[r]].push_back(r);
    return by_class;
  }

  static void Gather(const std::vector<double>& column, const Rows& rows,
                     std::vector<double>* values) {
    values->resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      (*values)[i] = column[rows[i]];
    }
  }

  static int Majority(const std::vector<double>& counts) {
    return static_cast<int>(std::max_element(counts.begin(), counts.end()) -
                            counts.begin());
  }

  static bool IsPure(const std::vector<double>& counts) {
    int nonzero = 0;
    for (double c : counts) {
      if (c > 0.0) ++nonzero;
    }
    return nonzero <= 1;
  }

  // True when a node with these records may be split at all.
  bool MaySplit(std::size_t depth, std::size_t num_records,
                const std::vector<double>& class_counts) const {
    return depth < options_.max_depth && !IsPure(class_counts) &&
           num_records >= options_.min_records_to_split;
  }

  // Sub-partition of attribute `col` covering interval range [lo, hi).
  Partition SubPartition(std::size_t col, std::size_t lo,
                         std::size_t hi) const {
    const Partition& full = partitions_[col];
    return Partition(full.lo() + full.width() * static_cast<double>(lo),
                     full.lo() + full.width() * static_cast<double>(hi),
                     hi - lo);
  }

  // True when this node should run Local's per-node reconstruction rather
  // than reuse the frozen root assignments.
  bool UseLocalReconstruction(const Rows& rows) const {
    return mode_ == TrainingMode::kLocal &&
           rows.size() >= options_.local_min_records_to_reconstruct;
  }

  // Per-interval class counts for one attribute at one node, over the
  // node's interval range for that attribute: a slice of the node's
  // counts. Routing uses the same codes, so every record at the node has
  // its code inside the node's bounds; the slice loses no record and no
  // code needs clamping into the range.
  std::vector<std::vector<double>> CountsTable(
      const std::vector<std::uint32_t>& counts, std::size_t col,
      const std::pair<std::size_t, std::size_t>& range) const {
    std::vector<std::vector<double>> table(
        num_classes_, std::vector<double>(range.second - range.first));
    for (std::size_t klass = 0; klass < num_classes_; ++klass) {
      for (std::size_t k = range.first; k < range.second; ++k) {
        table[klass][k - range.first] = counts[Cell(col, klass, k)];
      }
    }
    return table;
  }

  // Expected per-interval class counts for one attribute at a large Local
  // node: each class's perturbed values at the node are reconstructed over
  // the node's restricted domain, yielding fractional expected counts.
  std::vector<std::vector<double>> LocalTable(
      std::size_t col, const std::vector<Rows>& by_class,
      const std::vector<double>& class_counts,
      const std::pair<std::size_t, std::size_t>& range) const {
    const std::size_t span = range.second - range.first;
    std::vector<std::vector<double>> table(num_classes_,
                                           std::vector<double>(span, 0.0));
    const BayesReconstructor reconstructor(randomizer_->ModelFor(col),
                                           options_.reconstruction);
    const Partition sub = SubPartition(col, range.first, range.second);
    std::vector<double> values;
    for (std::size_t klass = 0; klass < num_classes_; ++klass) {
      if (by_class[klass].empty()) continue;
      Gather(dataset_.Column(col), by_class[klass], &values);
      const Reconstruction recon = reconstructor.Fit(values, sub);
      for (std::size_t k = 0; k < span; ++k) {
        table[klass][k] = class_counts[klass] * recon.masses[k];
      }
    }
    return table;
  }

  // Partitions `rows` into children for a chosen split at interval
  // `edge` of `col`. Every mode — including Local — routes by the frozen
  // root assignments: Local's per-node reconstruction informs only *split
  // selection*. Re-dealing records at each node would let a record land
  // on different sides of the same value boundary at different depths,
  // scrambling subtree membership (and it measurably wrecks deep
  // structure); frozen assignments keep the routed record sets consistent
  // with one denoised value per record.
  void Route(std::size_t col, std::size_t edge, const Rows& rows, Rows* left,
             Rows* right) const {
    for (std::uint32_t r : rows) {
      (Code(r, col) < edge ? left : right)->push_back(r);
    }
  }

  // ------------------------------------------------------------------
  // Grows the subtree of `rows`. `class_counts` holds the records per
  // class; `counts` holds their interval counts when MaySplit.
  int BuildNode(Rows rows, const Bounds& bounds, std::size_t depth,
                std::vector<double> class_counts,
                std::vector<std::uint32_t> counts) {
    const int index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    misclassified_.push_back(0.0);
    const int majority = Majority(class_counts);
    nodes_[static_cast<std::size_t>(index)].label = majority;
    nodes_[static_cast<std::size_t>(index)].num_records = rows.size();
    misclassified_[static_cast<std::size_t>(index)] =
        static_cast<double>(rows.size()) -
        class_counts[static_cast<std::size_t>(majority)];

    if (!MaySplit(depth, rows.size(), class_counts)) return index;

    // Search every attribute for the best boundary split. Building the
    // per-attribute tables dominates a Local node that re-reconstructs (one
    // EM fit per class per attribute), so those fan out over the pool:
    // each column computes an independent table into its own slot from the
    // shared per-class row lists, and the selection scan stays sequential
    // in column order, so the chosen split is identical for every pool
    // size. Every other node slices its tables out of `counts`.
    std::vector<std::vector<std::vector<double>>> tables(num_cols_);
    if (UseLocalReconstruction(rows)) {
      const std::vector<Rows> by_class = SplitByClass(rows);
      engine::ParallelFor(pool_, num_cols_, [&](std::size_t col) {
        if (bounds[col].second - bounds[col].first < 2) return;
        tables[col] = LocalTable(col, by_class, class_counts, bounds[col]);
      });
    } else {
      for (std::size_t col = 0; col < num_cols_; ++col) {
        if (bounds[col].second - bounds[col].first < 2) continue;
        tables[col] = CountsTable(counts, col, bounds[col]);
      }
    }
    SplitCandidate best;
    std::size_t best_col = 0;
    for (std::size_t col = 0; col < num_cols_; ++col) {
      if (bounds[col].second - bounds[col].first < 2) continue;
      const SplitCandidate candidate =
          BestBoundarySplit(tables[col], options_.min_leaf_records);
      if (candidate.valid && (!best.valid || candidate.gain > best.gain)) {
        best = candidate;
        best_col = col;
      }
    }
    tables.clear();
    if (!best.valid || best.gain < options_.min_gain) return index;

    // The children's class counts and sizes come from the node's counts.
    const std::size_t absolute_edge = bounds[best_col].first + best.edge;
    std::vector<double> left_classes(num_classes_, 0.0);
    std::vector<double> right_classes = class_counts;
    std::size_t left_size = 0;
    for (std::size_t klass = 0; klass < num_classes_; ++klass) {
      std::size_t n = 0;
      for (std::size_t k = bounds[best_col].first; k < absolute_edge; ++k) {
        n += counts[Cell(best_col, klass, k)];
      }
      left_classes[klass] = static_cast<double>(n);
      right_classes[klass] -= static_cast<double>(n);
      left_size += n;
    }
    if (left_size == 0 || left_size == rows.size()) return index;

    Rows left_rows, right_rows;
    left_rows.reserve(left_size);
    right_rows.reserve(rows.size() - left_size);
    Route(best_col, absolute_edge, rows, &left_rows, &right_rows);
    rows = Rows();

    // Count only the smaller child; the larger one's counts are the
    // node's minus the smaller's (exact: the counts are integers).
    std::vector<std::uint32_t> left_counts, right_counts;
    const bool left_splits =
        MaySplit(depth + 1, left_rows.size(), left_classes);
    const bool right_splits =
        MaySplit(depth + 1, right_rows.size(), right_classes);
    if (left_splits || right_splits) {
      const bool left_smaller = left_rows.size() <= right_rows.size();
      std::vector<std::uint32_t>& smaller =
          left_smaller ? left_counts : right_counts;
      std::vector<std::uint32_t>& larger =
          left_smaller ? right_counts : left_counts;
      smaller.assign(CountsSize(), 0);
      CountRows(left_smaller ? left_rows : right_rows, smaller.data());
      if (left_smaller ? right_splits : left_splits) {
        larger = std::move(counts);
        for (std::size_t i = 0; i < larger.size(); ++i) {
          larger[i] -= smaller[i];
        }
      }
    }
    counts = std::vector<std::uint32_t>();

    const double threshold = partitions_[best_col].Lo(absolute_edge);
    Bounds left_bounds = bounds;
    left_bounds[best_col].second = absolute_edge;
    Bounds right_bounds = bounds;
    right_bounds[best_col].first = absolute_edge;

    const int left =
        BuildNode(std::move(left_rows), left_bounds, depth + 1,
                  std::move(left_classes), std::move(left_counts));
    const int right =
        BuildNode(std::move(right_rows), right_bounds, depth + 1,
                  std::move(right_classes), std::move(right_counts));
    Node& node = nodes_[static_cast<std::size_t>(index)];
    node.attribute = static_cast<int>(best_col);
    node.threshold = threshold;
    node.left = left;
    node.right = right;
    return index;
  }

  const data::Dataset& dataset_;
  const TrainingMode mode_;
  const TreeOptions options_;
  const perturb::Randomizer* randomizer_;
  engine::ThreadPool* pool_;
  const std::size_t num_classes_;
  const std::size_t num_cols_;
  const std::size_t intervals_;
  std::vector<Partition> partitions_;
  std::vector<std::uint16_t> labels_;  // [row]
  std::vector<std::uint16_t> codes_;   // [row * num_cols_ + col]
  std::vector<Node> nodes_;
  std::vector<double> misclassified_;  // parallel to nodes_
};

}  // namespace

std::string TrainingModeName(TrainingMode mode) {
  switch (mode) {
    case TrainingMode::kOriginal:
      return "Original";
    case TrainingMode::kRandomized:
      return "Randomized";
    case TrainingMode::kGlobal:
      return "Global";
    case TrainingMode::kByClass:
      return "ByClass";
    case TrainingMode::kLocal:
      return "Local";
  }
  return "?";
}

bool ModeUsesReconstruction(TrainingMode mode) {
  return mode == TrainingMode::kGlobal || mode == TrainingMode::kByClass ||
         mode == TrainingMode::kLocal;
}

DecisionTree TrainDecisionTree(const data::Dataset& dataset,
                               TrainingMode mode, const TreeOptions& options,
                               const perturb::Randomizer* randomizer,
                               engine::ThreadPool* pool) {
  Builder builder(dataset, mode, options, randomizer, pool);
  return builder.Build();
}

}  // namespace ppdm::tree
