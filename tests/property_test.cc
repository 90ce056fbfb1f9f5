// Cross-cutting property suites: invariants that must hold over the whole
// (training mode × noise kind × privacy) matrix and over randomized
// inputs, beyond the targeted unit tests.

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/infotheory.h"
#include "reconstruct/assign.h"
#include "reconstruct/partition.h"
#include "stats/histogram.h"

namespace ppdm {
namespace {

// ----------------------------------------------- mode × noise invariants

struct PipelineCase {
  tree::TrainingMode mode;
  perturb::NoiseKind noise;
  double privacy;
};

std::string CaseName(const ::testing::TestParamInfo<PipelineCase>& info) {
  return tree::TrainingModeName(info.param.mode) +
         perturb::NoiseKindName(info.param.noise) +
         std::to_string(static_cast<int>(100 * info.param.privacy));
}

class PipelineInvariants : public ::testing::TestWithParam<PipelineCase> {
 protected:
  core::ExperimentConfig Config() const {
    core::ExperimentConfig config;
    config.function = synth::Function::kF1;
    config.train_records = 4000;
    config.test_records = 1000;
    config.noise = GetParam().noise;
    config.privacy_fraction = GetParam().privacy;
    config.seed = 1234;
    return config;
  }
};

TEST_P(PipelineInvariants, BeatsOrMatchesMajorityBaseline) {
  const core::ExperimentConfig config = Config();
  const core::ExperimentData data = core::PrepareData(config);
  const core::ModeResult result =
      core::RunMode(data, GetParam().mode, config);
  // Majority class of Fn1 is Group A at ~2/3.
  const auto counts = data.test.ClassCounts();
  const double majority =
      static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
      static_cast<double>(data.test.NumRows());
  EXPECT_GE(result.accuracy, majority - 0.2)
      << "far below even the majority baseline";
}

TEST_P(PipelineInvariants, TreeShapeIsBounded) {
  const core::ExperimentConfig config = Config();
  const core::ExperimentData data = core::PrepareData(config);
  const core::ModeResult result =
      core::RunMode(data, GetParam().mode, config);
  EXPECT_GE(result.tree_nodes, 1u);
  EXPECT_LE(result.tree_depth, config.tree.max_depth);
  EXPECT_LE(result.tree_nodes, 2 * config.train_records);
}

TEST_P(PipelineInvariants, DeterministicAcrossRuns) {
  const core::ExperimentConfig config = Config();
  const core::ModeResult a =
      core::RunMode(core::PrepareData(config), GetParam().mode, config);
  const core::ModeResult b =
      core::RunMode(core::PrepareData(config), GetParam().mode, config);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.tree_nodes, b.tree_nodes);
}

INSTANTIATE_TEST_SUITE_P(
    ModeNoiseMatrix, PipelineInvariants,
    ::testing::Values(
        PipelineCase{tree::TrainingMode::kOriginal,
                     perturb::NoiseKind::kUniform, 0.5},
        PipelineCase{tree::TrainingMode::kRandomized,
                     perturb::NoiseKind::kUniform, 0.5},
        PipelineCase{tree::TrainingMode::kGlobal,
                     perturb::NoiseKind::kUniform, 0.5},
        PipelineCase{tree::TrainingMode::kByClass,
                     perturb::NoiseKind::kUniform, 0.5},
        PipelineCase{tree::TrainingMode::kLocal,
                     perturb::NoiseKind::kUniform, 0.5},
        PipelineCase{tree::TrainingMode::kRandomized,
                     perturb::NoiseKind::kGaussian, 1.0},
        PipelineCase{tree::TrainingMode::kGlobal,
                     perturb::NoiseKind::kGaussian, 1.0},
        PipelineCase{tree::TrainingMode::kByClass,
                     perturb::NoiseKind::kGaussian, 1.0},
        PipelineCase{tree::TrainingMode::kLocal,
                     perturb::NoiseKind::kGaussian, 1.0},
        PipelineCase{tree::TrainingMode::kByClass,
                     perturb::NoiseKind::kUniform, 2.0}),
    CaseName);

// --------------------------------------------------- partition properties

class PartitionProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionProperty, IntervalOfAgreesWithEdges) {
  const std::size_t k = GetParam();
  const reconstruct::Partition p(-3.0, 11.0, k);
  Rng rng(k);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.UniformReal(-3.0, 11.0);
    const std::size_t bin = p.IntervalOf(x);
    EXPECT_LE(p.Lo(bin), x + 1e-9);
    EXPECT_GE(p.Hi(bin), x - 1e-9);
  }
}

TEST_P(PartitionProperty, MidpointsAreInsideTheirIntervals) {
  const std::size_t k = GetParam();
  const reconstruct::Partition p(0.0, 1.0, k);
  for (std::size_t bin = 0; bin < k; ++bin) {
    EXPECT_EQ(p.IntervalOf(p.Mid(bin)), bin);
  }
}

TEST_P(PartitionProperty, EdgesTileTheDomain) {
  const std::size_t k = GetParam();
  const reconstruct::Partition p(5.0, 25.0, k);
  const auto edges = p.Edges();
  ASSERT_EQ(edges.size(), k + 1);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_NEAR(edges[i] - edges[i - 1], p.width(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, PartitionProperty,
                         ::testing::Values(2u, 3u, 7u, 10u, 30u, 100u));

// -------------------------------------------------- assignment properties

class AssignProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AssignProperty, CountsAlwaysMatchApportionment) {
  Rng rng(GetParam());
  const std::size_t bins = 1 + static_cast<std::size_t>(rng.UniformInt(1, 12));
  std::vector<double> masses(bins);
  double total = 0.0;
  for (double& m : masses) {
    m = rng.UniformDouble();
    total += m;
  }
  for (double& m : masses) m /= total;

  const std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 500));
  std::vector<double> values(n);
  for (double& v : values) v = rng.Gaussian();

  const auto assignment = reconstruct::AssignByOrderStatistics(values,
                                                               masses);
  const auto expected = reconstruct::ApportionCounts(masses, n);
  std::vector<std::size_t> got(bins, 0);
  for (std::size_t a : assignment) ++got[a];
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u));

// The reference the fast assignment must reproduce exactly: a full
// argsort by (value, index), then the intervals dealt in rank order.
std::vector<std::size_t> ReferenceAssign(const std::vector<double>& values,
                                         const std::vector<double>& masses) {
  const std::size_t n = values.size();
  std::vector<std::size_t> assignment(n, 0);
  if (n == 0) return assignment;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
    return a < b;
  });
  const std::vector<std::size_t> counts =
      reconstruct::ApportionCounts(masses, n);
  std::size_t interval = 0;
  std::size_t used_in_interval = 0;
  for (std::size_t rank = 0; rank < n; ++rank) {
    while (interval + 1 < counts.size() &&
           used_in_interval >= counts[interval]) {
      ++interval;
      used_in_interval = 0;
    }
    assignment[order[rank]] = interval;
    ++used_in_interval;
  }
  return assignment;
}

// One seeded case: a value shape (ties, signed zeros, infinities, a range
// whose width overflows, constants, plain noise), a size from empty to a
// few thousand, and masses that may hold zeros or a single interval.
void DrawAssignCase(Rng* rng, std::vector<double>* values,
                    std::vector<double>* masses) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::int64_t size_kind = rng->UniformInt(0, 9);
  std::size_t n = 0;
  if (size_kind == 0) {
    n = static_cast<std::size_t>(rng->UniformInt(0, 1));
  } else if (size_kind <= 2) {
    n = static_cast<std::size_t>(rng->UniformInt(2, 12));
  } else if (size_kind <= 8) {
    n = static_cast<std::size_t>(rng->UniformInt(13, 600));
  } else {
    n = static_cast<std::size_t>(rng->UniformInt(601, 5000));
  }
  const std::int64_t shape = rng->UniformInt(0, 6);
  values->assign(n, 0.0);
  for (double& v : *values) {
    switch (shape) {
      case 0:  // continuous
        v = rng->Gaussian(3.0, 10.0);
        break;
      case 1:  // heavy ties on a few levels
        v = static_cast<double>(rng->UniformInt(-3, 3)) * 0.5;
        break;
      case 2:  // signed zeros among ties
        v = rng->Bernoulli(0.5) ? (rng->Bernoulli(0.5) ? -0.0 : 0.0)
                                : static_cast<double>(rng->UniformInt(-2, 2));
        break;
      case 3:  // infinities at either end
        v = rng->Bernoulli(0.1) ? (rng->Bernoulli(0.5) ? -kInf : kInf)
                                : rng->Gaussian();
        break;
      case 4:  // a range whose width overflows a double
        v = rng->Bernoulli(0.1) ? (rng->Bernoulli(0.5) ? -1e308 : 1e308)
                                : rng->Gaussian();
        break;
      case 5:  // all equal
        v = 4.25;
        break;
      default:  // a dense cluster plus far outliers
        v = rng->Bernoulli(0.02) ? rng->Gaussian(0.0, 1e6)
                                 : rng->UniformReal(0.0, 1e-3);
        break;
    }
  }
  const std::int64_t mass_kind = rng->UniformInt(0, 3);
  const std::size_t bins =
      mass_kind == 0 ? 1 : static_cast<std::size_t>(rng->UniformInt(2, 40));
  masses->assign(bins, 0.0);
  for (double& m : *masses) {
    m = (mass_kind == 1 && rng->Bernoulli(0.4)) ? 0.0 : rng->UniformDouble();
  }
  (*masses)[static_cast<std::size_t>(
      rng->UniformInt(0, static_cast<std::int64_t>(bins) - 1))] += 0.5;
}

TEST(AssignReference, MatchesArgsortAndDealOverSeededCases) {
  Rng rng(20260417);
  std::vector<double> values, masses;
  for (int c = 0; c < 3000; ++c) {
    DrawAssignCase(&rng, &values, &masses);
    ASSERT_EQ(reconstruct::AssignByOrderStatistics(values, masses),
              ReferenceAssign(values, masses))
        << "case " << c << ": n " << values.size() << ", K "
        << masses.size();
  }
}

TEST(AssignReference, EdgeShapes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> shapes = {
      {},
      {1.0},
      {-0.0, 0.0, -0.0, 0.0, 0.0, -0.0},
      {kInf, -kInf, 0.0, kInf, -kInf},
      {-1e308, 1e308, 0.0, -1e308, 1e308, 5.0, -5.0},
      {-kInf, -kInf, -kInf},
      {kInf, 1.0},
      {2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0},
      {std::numeric_limits<double>::max(),
       std::numeric_limits<double>::lowest(),
       std::numeric_limits<double>::denorm_min(), -0.0}};
  const std::vector<std::vector<double>> mass_sets = {
      {1.0}, {0.0, 1.0}, {1.0, 0.0, 0.0, 2.0}, {0.2, 0.3, 0.5},
      {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0}};
  for (const auto& values : shapes) {
    for (const auto& masses : mass_sets) {
      EXPECT_EQ(reconstruct::AssignByOrderStatistics(values, masses),
                ReferenceAssign(values, masses))
          << "n " << values.size() << ", K " << masses.size();
    }
  }
}

// ------------------------------------------------ information inequalities

TEST(InfoInequalities, MutualInformationBoundedByEntropy) {
  const reconstruct::Partition p(0.0, 1.0, 16);
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> masses(16);
    double total = 0.0;
    for (double& m : masses) {
      m = rng.UniformDouble() + 1e-3;
      total += m;
    }
    for (double& m : masses) m /= total;
    const double h = core::DiscreteEntropyBits(masses);
    for (double scale : {0.05, 0.2, 0.6}) {
      const double mi = core::MutualInformationBits(
          masses, p, perturb::NoiseModel::Uniform(scale));
      EXPECT_GE(mi, -1e-9);
      EXPECT_LE(mi, h + 1e-9);
    }
  }
}

TEST(InfoInequalities, MoreNoiseNeverMoreInformation) {
  const reconstruct::Partition p(0.0, 1.0, 16);
  const std::vector<double> masses(16, 1.0 / 16.0);
  double previous = 1e9;
  for (double sigma : {0.02, 0.05, 0.1, 0.2, 0.4, 0.8}) {
    const double mi = core::MutualInformationBits(
        masses, p, perturb::NoiseModel::Gaussian(sigma));
    EXPECT_LE(mi, previous + 1e-6) << "sigma " << sigma;
    previous = mi;
  }
}

// --------------------------------------------------- histogram properties

TEST(HistogramProperty, MassConservedUnderAnyInput) {
  Rng rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t bins =
        1 + static_cast<std::size_t>(rng.UniformInt(0, 30));
    stats::Histogram h(-1.0, 1.0, bins);
    const int n = static_cast<int>(rng.UniformInt(0, 300));
    for (int i = 0; i < n; ++i) h.Add(rng.Gaussian() * 3.0);  // outliers too
    EXPECT_EQ(h.total(), static_cast<std::size_t>(n));
    double total_mass = 0.0;
    for (double m : h.Masses()) total_mass += m;
    if (n > 0) {
      EXPECT_NEAR(total_mass, 1.0, 1e-9);
    } else {
      EXPECT_DOUBLE_EQ(total_mass, 0.0);
    }
  }
}

}  // namespace
}  // namespace ppdm
