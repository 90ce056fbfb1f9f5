#include "reconstruct/assign.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/check.h"

namespace ppdm::reconstruct {

std::vector<std::size_t> ApportionCounts(const std::vector<double>& masses,
                                         std::size_t total) {
  PPDM_CHECK(!masses.empty());
  double mass_total = 0.0;
  for (double m : masses) {
    PPDM_CHECK_GE(m, 0.0);
    mass_total += m;
  }
  if (total == 0) return std::vector<std::size_t>(masses.size(), 0);
  PPDM_CHECK_MSG(mass_total > 0.0, "cannot apportion against zero mass");

  const auto n = static_cast<double>(total);
  std::vector<std::size_t> counts(masses.size());
  std::vector<std::pair<double, std::size_t>> remainders(masses.size());
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < masses.size(); ++k) {
    const double ideal = masses[k] / mass_total * n;
    counts[k] = static_cast<std::size_t>(std::floor(ideal));
    assigned += counts[k];
    remainders[k] = {ideal - std::floor(ideal), k};
  }
  PPDM_CHECK_LE(assigned, total);
  // Hand the leftover items to the largest fractional remainders; tie-break
  // on index for determinism.
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (std::size_t i = 0; i < total - assigned; ++i) {
    ++counts[remainders[i % remainders.size()].second];
  }
  return counts;
}

std::vector<std::size_t> AssignByOrderStatistics(
    const std::vector<double>& perturbed_values,
    const std::vector<double>& masses) {
  const std::size_t n = perturbed_values.size();
  std::vector<std::size_t> assignment(n, 0);
  if (n == 0) return assignment;
  PPDM_CHECK_LE(n, std::size_t{0x7fffffff});

  // Rank r goes to the first interval whose cumulative count exceeds r.
  std::vector<std::size_t> cumulative = ApportionCounts(masses, n);
  std::partial_sum(cumulative.begin(), cumulative.end(), cumulative.begin());
  const auto interval_of_rank = [&cumulative](std::size_t rank,
                                              std::size_t from) {
    while (cumulative[from] <= rank) ++from;
    return from;
  };

  // Bucket the values by a monotone map of [lo, hi] onto [0, buckets), so
  // bucket order agrees with value order and equal values share a bucket.
  // When the map is undefined (infinite ends, or a width that overflows or
  // is zero) everything falls into one bucket, which is then fully sorted.
  const auto [lo_it, hi_it] =
      std::minmax_element(perturbed_values.begin(), perturbed_values.end());
  const double lo = *lo_it;
  const double width = *hi_it - lo;
  double scale = static_cast<double>(n) / width;
  const bool mapped = std::isfinite(lo) && std::isfinite(*hi_it) &&
                      std::isfinite(width) && std::isfinite(scale);
  const std::size_t buckets = mapped ? n : 1;
  if (!mapped) scale = 0.0;
  const auto top = static_cast<double>(buckets - 1);
  std::vector<std::uint32_t> bucket_of(n);
  std::vector<std::uint32_t> code(buckets, 0);  // first the bucket sizes
  for (std::size_t i = 0; i < n; ++i) {
    const double x = (perturbed_values[i] - lo) * scale;
    bucket_of[i] = static_cast<std::uint32_t>(x < top ? x : top);
    ++code[bucket_of[i]];
  }

  // Walk the buckets in rank order. A bucket whose ranks all fall in one
  // interval gets that interval as its code; one that straddles a boundary
  // is flagged for an exact sort and gets a slot in `members`.
  struct Straddle {
    std::size_t first_rank, size, offset, filled;
  };
  constexpr std::uint32_t kStraddles = 0x80000000u;
  std::vector<Straddle> straddles;
  std::size_t first_rank = 0, interval = 0, members_size = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t size = code[b];
    if (size == 0) continue;
    interval = interval_of_rank(first_rank, interval);
    if (first_rank + size <= cumulative[interval]) {
      code[b] = static_cast<std::uint32_t>(interval);
    } else {
      code[b] = kStraddles | static_cast<std::uint32_t>(straddles.size());
      straddles.push_back({first_rank, size, members_size, 0});
      members_size += size;
    }
    first_rank += size;
  }

  std::vector<std::uint32_t> members(members_size);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t c = code[bucket_of[i]];
    if ((c & kStraddles) == 0) {
      assignment[i] = c;
    } else {
      Straddle& s = straddles[c & ~kStraddles];
      members[s.offset + s.filled++] = static_cast<std::uint32_t>(i);
    }
  }

  // Inside a straddling bucket, rank by (value, index) exactly as a full
  // sort would; -0.0 and +0.0 compare equal and fall back to the index.
  for (const Straddle& s : straddles) {
    const auto begin = members.begin() + static_cast<std::ptrdiff_t>(s.offset);
    std::sort(begin, begin + static_cast<std::ptrdiff_t>(s.size),
              [&](std::uint32_t a, std::uint32_t b) {
                if (perturbed_values[a] != perturbed_values[b]) {
                  return perturbed_values[a] < perturbed_values[b];
                }
                return a < b;
              });
    std::size_t k = 0;
    for (std::size_t j = 0; j < s.size; ++j) {
      k = interval_of_rank(s.first_rank + j, k);
      assignment[members[s.offset + j]] = k;
    }
  }
  return assignment;
}

}  // namespace ppdm::reconstruct
