// Order-statistics association of perturbed records with intervals
// (paper §5): once a reconstruction says interval k holds fraction p̂_k of
// the values, sort the records by perturbed value and deal the first
// round(N·p̂_1) into interval 1, the next round(N·p̂_2) into interval 2, …
// Rank statistics are far more stable under additive noise than the raw
// values, which is why this beats simply clamping each perturbed value.

#ifndef PPDM_RECONSTRUCT_ASSIGN_H_
#define PPDM_RECONSTRUCT_ASSIGN_H_

#include <cstddef>
#include <vector>

namespace ppdm::reconstruct {

/// Integer apportionment of `total` items proportional to `masses`
/// (largest-remainder method). The result sums to exactly `total`.
std::vector<std::size_t> ApportionCounts(const std::vector<double>& masses,
                                         std::size_t total);

/// Assigns each record (identified by position in `perturbed_values`) an
/// interval index in [0, masses.size()): records are ranked by perturbed
/// value and intervals filled in order with their apportioned counts.
/// Ties are broken by original position (-0.0 and +0.0 tie), making the
/// result deterministic.
///
/// The result is that rank-then-deal, computed without a full sort: the
/// values are bucketed by a monotone map of [min, max], and only the few
/// buckets whose ranks straddle an interval boundary are sorted. When the
/// map is undefined (an infinite value, or a range whose width overflows
/// or is zero) every record is sorted instead.
std::vector<std::size_t> AssignByOrderStatistics(
    const std::vector<double>& perturbed_values,
    const std::vector<double>& masses);

}  // namespace ppdm::reconstruct

#endif  // PPDM_RECONSTRUCT_ASSIGN_H_
