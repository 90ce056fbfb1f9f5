// Decision-tree induction over randomized data — paper §5.
//
// Five training modes share one gini/interval split engine and differ only
// in how records are associated with intervals:
//
//   kOriginal    true values (upper baseline; no privacy).
//   kRandomized  perturbed values used as if they were true (lower
//                baseline; no reconstruction).
//   kGlobal      reconstruct each attribute once over all classes, then
//                associate records by order statistics.
//   kByClass     reconstruct each attribute per class at the root, then
//                associate each class's records by order statistics.
//   kLocal       like ByClass, but reconstruction is repeated at every
//                tree node from the records in that node.
//
// Training keeps each record's interval codes row-major ([row][col], one
// uint16 per attribute) beside a per-row label. A node's split search
// reads its integer class counts per (attribute, class, interval), built
// for every attribute in one pass over the node's records. Only the
// smaller child of a split is counted; the larger child's counts are the
// parent's minus the smaller's (the SPRINT classifier the paper builds on,
// with LightGBM's histogram subtraction). Records are routed by the same
// codes, so every record at a node has codes inside the node's interval
// bounds, and a table sliced to those bounds needs no clamping.

#ifndef PPDM_TREE_TRAINER_H_
#define PPDM_TREE_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "engine/thread_pool.h"
#include "perturb/randomizer.h"
#include "reconstruct/reconstructor.h"
#include "tree/decision_tree.h"

namespace ppdm::tree {

/// Which of the paper's algorithms to train with.
enum class TrainingMode { kOriginal, kRandomized, kGlobal, kByClass, kLocal };

/// "Original" / "Randomized" / "Global" / "ByClass" / "Local".
std::string TrainingModeName(TrainingMode mode);

/// True iff the mode runs distribution reconstruction.
bool ModeUsesReconstruction(TrainingMode mode);

/// Post-growth pruning strategy.
enum class PruningMode {
  kNone,
  /// C4.5 pessimistic bound on the training error. Cheap, but blind to
  /// noise-fitting: splits that fit perturbation noise genuinely reduce
  /// training error.
  kPessimistic,
  /// Reduced-error pruning against a held-out slice of the training
  /// records (the default). Perturbation noise is independent across
  /// records, so noise-fitted structure shows no holdout benefit and is
  /// removed — the pruning that actually matters under randomization.
  kReducedError,
};

/// Induction parameters. The defaults follow the grow-deep-then-prune
/// recipe of the paper's SPRINT-style classifier. Growing through weak
/// splits matters doubly under randomization — greedy induction over noisy
/// interval assignments often must pass an apparently gain-free
/// (XOR-shaped) node to reach real structure below it.
struct TreeOptions {
  /// Intervals per attribute: reconstruction resolution and the candidate
  /// split boundaries.
  std::size_t intervals = 30;

  /// Maximum tree depth (root has depth 1).
  std::size_t max_depth = 14;

  /// Do not split nodes with fewer records than this.
  std::size_t min_records_to_split = 20;

  /// Each side of a split must keep at least this many records.
  double min_leaf_records = 10.0;

  /// Minimum gini gain for a split to be accepted while growing.
  double min_gain = 1e-5;

  /// Post-growth pruning strategy.
  PruningMode pruning = PruningMode::kReducedError;

  /// z of the pessimistic error bound; 0.6745 is C4.5's CF = 25%.
  double pruning_z = 0.6745;

  /// Fraction of training records held out for reduced-error pruning.
  double holdout_fraction = 0.25;

  /// Seed of the deterministic holdout selection.
  std::uint64_t holdout_seed = 0xC0FFEEULL;

  /// Local only: nodes with fewer records than this reuse the root's
  /// ByClass interval assignments instead of re-reconstructing. Per-node
  /// EM on small samples is unstable, and re-dealing records at every
  /// level compounds rank noise; freezing small nodes keeps Local's
  /// deep structure as reliable as ByClass's.
  std::size_t local_min_records_to_reconstruct = 1500;

  /// Reconstruction tuning (Global / ByClass / Local only).
  reconstruct::ReconstructionOptions reconstruction;
};

/// Trains a decision tree.
///
/// `dataset` is the original data for kOriginal and the *perturbed* data
/// for every other mode. `randomizer` supplies the per-attribute noise
/// models and is required exactly for the reconstruction modes.
///
/// `pool` parallelizes the root-time per-attribute reconstruction fan-out
/// (the dominant cost of the reconstruction modes) and, for kLocal, the
/// per-node split search: every node large enough to re-reconstruct splits
/// its records by class once and fans its per-attribute reconstructions
/// out over those shared lists. Each unit of work is independent and
/// internally sequential, so the trained tree is bit-identical for every
/// pool size (nullptr = inline).
DecisionTree TrainDecisionTree(const data::Dataset& dataset,
                               TrainingMode mode, const TreeOptions& options,
                               const perturb::Randomizer* randomizer =
                                   nullptr,
                               engine::ThreadPool* pool = nullptr);

}  // namespace ppdm::tree

#endif  // PPDM_TREE_TRAINER_H_
