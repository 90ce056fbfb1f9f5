// mine: the paper's own workload in batch. The Figure 3 cells at paper
// scale: 100k training and 5k test records for Fn1-Fn5, uniform noise at
// 100% privacy, each trained ByClass and Local and evaluated, with the
// default engine configuration (threads=0) that `ppdm train` uses. Loads
// perturb, reconstruct, tree and engine; bypasses net, api and store.

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/strings.h"
#include "core/experiment.h"
#include "core/metrics.h"
#include "engine/batch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perturb/randomizer.h"
#include "synth/generator.h"
#include "tree/trainer.h"
#include "workloads.h"

namespace perfbench {

using ppdm::Result;
using ppdm::Status;
using ppdm::StrFormat;
namespace obs = ppdm::obs;
namespace tree = ppdm::tree;

namespace {

struct MineShape {
  std::size_t train_records = 100000;
  std::size_t test_records = 5000;
  std::vector<ppdm::synth::Function> functions = {
      ppdm::synth::Function::kF1, ppdm::synth::Function::kF2,
      ppdm::synth::Function::kF3, ppdm::synth::Function::kF4,
      ppdm::synth::Function::kF5};
  std::vector<tree::TrainingMode> modes = {tree::TrainingMode::kByClass,
                                           tree::TrainingMode::kLocal};
  int min_passes = 2;
  int setup_reps = 41;
  int setup_batch = 5000;  // constructions timed together per repeat
};

MineShape ShapeFor(const Options& options) {
  MineShape shape;
  if (options.smoke) {
    shape.train_records = 3000;
    shape.test_records = 500;
    shape.functions = {ppdm::synth::Function::kF1,
                       ppdm::synth::Function::kF2};
    shape.setup_reps = 5;
  }
  return shape;
}

/// One function's inputs, derived the way core::PrepareData derives them
/// from a cell seed.
struct FunctionInputs {
  ppdm::core::ExperimentConfig config;
  ppdm::data::Dataset train;
  ppdm::data::Dataset test;
  ppdm::perturb::RandomizerOptions noise;
};

struct Cell {
  double accuracy = 0.0;
  std::size_t nodes = 0;
  bool operator==(const Cell& other) const {
    return std::memcmp(&accuracy, &other.accuracy, sizeof accuracy) == 0 &&
           nodes == other.nodes;
  }
};

struct MinePass {
  double seconds = 0.0;
  std::vector<double> perturb_s;  // per function
  std::vector<double> train_s;    // per cell (train + evaluate)
  std::vector<double> em_s;       // per cell, EM time inside training
  std::vector<double> evaluate_s;  // per cell
  std::vector<Cell> cells;
  std::uint64_t perturbed_digest = 0;
};

MinePass RunPass(const MineShape& shape,
                 const std::vector<FunctionInputs>& inputs, SpanLog* spans) {
  obs::Histogram* em = obs::MetricsRegistry::Global().GetHistogram(
      "ppdm_em_fit_seconds", obs::Histogram::LatencyBucketsSeconds());
  obs::TraceRing* ring = spans != nullptr ? spans->ring() : nullptr;
  MinePass pass;
  Digest digest;
  obs::ScopedTraceContext trace(obs::TraceContext{obs::NewTraceId(), 0});
  obs::ScopedSpan root("mine.pass", nullptr, ring);
  const auto start = Clock::now();
  for (const FunctionInputs& in : inputs) {
    const ppdm::perturb::Randomizer randomizer(in.train.schema(), in.noise);
    auto t0 = Clock::now();
    ppdm::data::Dataset perturbed = [&] {
      obs::ScopedSpan span("perturb.Randomizer.Perturb", nullptr, ring);
      return randomizer.Perturb(in.train);
    }();
    pass.perturb_s.push_back(SecondsBetween(t0, Clock::now()));
    for (std::size_t c = 0; c < perturbed.NumCols(); ++c) {
      const std::vector<double>& column = perturbed.Column(c);
      digest.Add(column.data(), column.size() * sizeof(double));
    }
    for (tree::TrainingMode mode : shape.modes) {
      const double em_before = em->Sum();
      t0 = Clock::now();
      const tree::DecisionTree model = [&] {
        obs::ScopedSpan span("tree.TrainDecisionTree", nullptr, ring);
        return tree::TrainDecisionTree(perturbed, mode, in.config.tree,
                                       &randomizer, nullptr);
      }();
      const auto t1 = Clock::now();
      const double em_inside = em->Sum() - em_before;
      const ppdm::core::ConfusionMatrix confusion = [&] {
        obs::ScopedSpan span("core.EvaluateTree", nullptr, ring);
        return ppdm::core::EvaluateTree(model, in.test);
      }();
      const auto t2 = Clock::now();
      pass.train_s.push_back(SecondsBetween(t0, t2));
      pass.em_s.push_back(em_inside);
      pass.evaluate_s.push_back(SecondsBetween(t1, t2));
      pass.cells.push_back(Cell{confusion.Accuracy(), model.NumNodes()});
    }
  }
  pass.seconds = SecondsBetween(start, Clock::now());
  pass.perturbed_digest = digest.value();
  return pass;
}

struct MineRun {
  std::vector<MinePass> passes;
  Exposition before;
  Exposition after;
};

MineRun RunPasses(const Options& options, const MineShape& shape,
                  const std::vector<FunctionInputs>& inputs, SpanLog* spans) {
  MineRun run;
  run.before = Exposition(obs::MetricsRegistry::Global().RenderText());
  const auto start = Clock::now();
  while (static_cast<int>(run.passes.size()) < shape.min_passes ||
         SecondsBetween(start, Clock::now()) < options.seconds) {
    run.passes.push_back(RunPass(shape, inputs, spans));
  }
  run.after = Exposition(obs::MetricsRegistry::Global().RenderText());
  return run;
}

// Every repeat must reproduce the first pass exactly.
void Gate(const Options& options, const MineRun& run, Report* report) {
  std::vector<Cell> reference = run.passes.front().cells;
  if (options.tamper) {
    reference[0].accuracy = std::nextafter(reference[0].accuracy, 2.0);
  }
  for (std::size_t p = 0; p < run.passes.size(); ++p) {
    const MinePass& pass = run.passes[p];
    if (pass.perturbed_digest != run.passes.front().perturbed_digest) {
      report->Fail(StrFormat("mine pass %zu perturbed differently", p));
    }
    for (std::size_t c = 0; c < pass.cells.size(); ++c) {
      if (!(pass.cells[c] == reference[c])) {
        report->Fail(StrFormat(
            "mine pass %zu cell %zu: accuracy %.17g nodes %zu, reference "
            "%.17g nodes %zu",
            p, c, pass.cells[c].accuracy, pass.cells[c].nodes,
            reference[c].accuracy, reference[c].nodes));
        return;
      }
    }
  }
}

// Per-cell (or per-function) medians across passes.
std::vector<double> MedianPerSlot(
    const MineRun& run, std::vector<double> MinePass::*field) {
  std::vector<double> out;
  const std::size_t slots = (run.passes.front().*field).size();
  for (std::size_t i = 0; i < slots; ++i) {
    std::vector<double> v;
    for (const MinePass& pass : run.passes) v.push_back((pass.*field)[i]);
    out.push_back(MedianOf(v));
  }
  return out;
}

double PassMedian(const MineRun& run) {
  std::vector<double> v;
  for (const MinePass& pass : run.passes) v.push_back(pass.seconds);
  return MedianOf(v);
}

}  // namespace

Status RunMine(const Options& options, Values* values, Report* report) {
  const MineShape shape = ShapeFor(options);
  std::vector<FunctionInputs> inputs;
  for (std::size_t f = 0; f < shape.functions.size(); ++f) {
    ppdm::core::ExperimentConfig config;
    config.function = shape.functions[f];
    config.train_records = shape.train_records;
    config.test_records = shape.test_records;
    config.seed = options.seed * 1000003ULL + f;
    ppdm::synth::GeneratorOptions train_gen;
    train_gen.num_records = shape.train_records;
    train_gen.function = config.function;
    train_gen.seed = config.seed;
    ppdm::synth::GeneratorOptions test_gen = train_gen;
    test_gen.num_records = shape.test_records;
    test_gen.seed = config.seed + 0x5EED0FF5E7ULL;
    ppdm::perturb::RandomizerOptions noise;
    noise.kind = config.noise;
    noise.privacy_fraction = config.privacy_fraction;
    noise.confidence = config.confidence;
    noise.seed = config.seed + 0x9E1517BULL;
    inputs.push_back(FunctionInputs{config, ppdm::synth::Generate(train_gen),
                                    ppdm::synth::Generate(test_gen), noise});
  }
  report->Note(StrFormat(
      "mine: %zu functions x %zu modes, %zu training / %zu test records, "
      "uniform noise at 100%% privacy, threads=0",
      shape.functions.size(), shape.modes.size(), shape.train_records,
      shape.test_records));

  // Set-up: what a mining run constructs before touching data.
  std::vector<double> setups;
  for (int rep = 0; rep < shape.setup_reps; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < shape.setup_batch; ++i) {
      const ppdm::perturb::Randomizer randomizer(inputs[0].train.schema(),
                                                 inputs[0].noise);
      const ppdm::engine::Batch batch(inputs[0].config.batch);
      if (batch.pool() != nullptr) report->Note("unexpected engine pool");
    }
    setups.push_back(SecondsBetween(t0, Clock::now()) / shape.setup_batch);
  }

  obs::SetTimingEnabled(false);
  const bool peak_reset = ResetPeakRss();
  const long rss_before_kb = ProcStatusKb("VmRSS");
  const MineRun plain = RunPasses(options, shape, inputs, nullptr);
  const long peak_kb = ProcStatusKb("VmHWM");
  if (!peak_reset) {
    report->Note("peak RSS could not be reset after input generation; "
                 "peak_rss_mb may include it");
  }
  Gate(options, plain, report);
  const std::size_t cells = plain.passes.front().cells.size();
  report->attempted += plain.passes.size() * cells;
  std::vector<double> train = MedianPerSlot(plain, &MinePass::train_s);
  std::string pass_list;
  for (const MinePass& pass : plain.passes) {
    pass_list +=
        StrFormat("%s%.3f", pass_list.empty() ? "" : "/", pass.seconds);
  }
  report->Note(StrFormat("untraced: %zu passes, median pass %.3f s (%s s)",
                         plain.passes.size(), PassMedian(plain),
                         pass_list.c_str()));
  for (std::size_t c = 0; c < cells; ++c) {
    report->Note(StrFormat(
        "cell F%zu %s: accuracy %.4f, %zu nodes, train+evaluate %.1f ms",
        c / shape.modes.size() + 1,
        tree::TrainingModeName(shape.modes[c % shape.modes.size()]).c_str(),
        plain.passes.front().cells[c].accuracy,
        plain.passes.front().cells[c].nodes, train[c] * 1e3));
  }
  if (!options.trace) {
    double accuracy = 0.0;
    for (const Cell& cell : plain.passes.front().cells) {
      accuracy += cell.accuracy;
    }
    Values& out = *values;
    out["setup_s"] = MedianOf(setups);
    out["records_per_s"] = static_cast<double>(cells * shape.train_records) /
                           PassMedian(plain);
    out["peak_rss_mb"] = static_cast<double>(peak_kb - rss_before_kb) / 1024.0;
    out["accuracy"] = accuracy / static_cast<double>(cells);
    return Status::Ok();
  }

  obs::SetTimingEnabled(true);
  SpanLog spans(1 << 14);
  const MineRun traced = RunPasses(options, shape, inputs, &spans);
  Gate(options, traced, report);
  report->attempted += traced.passes.size() * cells;
  Values& out = *values;
  const ExpositionDelta delta(traced.before, traced.after);
  out["em.fits"] = delta.Delta("ppdm_em_fit_seconds_count");
  out["em.fit_us"] = delta.Mean("ppdm_em_fit_seconds", 1e6);
  out["em.iterations"] = delta.Mean("ppdm_em_iterations", 1.0);
  if (delta.Has("ppdm_kernel_cache_builds_total")) {
    out["kernel.builds"] = delta.Delta("ppdm_kernel_cache_builds_total");
  } else {
    report->Note("kernel.builds absent: no ppdm_kernel_cache_builds_total");
  }
  out["engine.tasks"] = delta.Delta("ppdm_engine_tasks_total");
  const std::vector<double> traced_perturb =
      MedianPerSlot(traced, &MinePass::perturb_s);
  const std::vector<double> traced_train =
      MedianPerSlot(traced, &MinePass::train_s);
  const std::vector<double> traced_em = MedianPerSlot(traced, &MinePass::em_s);
  const std::vector<double> traced_eval =
      MedianPerSlot(traced, &MinePass::evaluate_s);
  double perturb_sum = 0.0, train_sum = 0.0, self_sum = 0.0, eval_sum = 0.0;
  for (double s : traced_perturb) perturb_sum += s;
  for (std::size_t c = 0; c < cells; ++c) {
    train_sum += traced_train[c] - traced_eval[c];
    self_sum += traced_train[c] - traced_eval[c] - traced_em[c];
    eval_sum += traced_eval[c];
  }
  const double values_perturbed =
      static_cast<double>(shape.train_records * inputs[0].train.NumCols());
  out["perturb.ns_per_value"] =
      1e9 * perturb_sum / static_cast<double>(traced_perturb.size()) /
      values_perturbed;
  out["tree.train_s"] = train_sum / static_cast<double>(cells);
  out["tree.self_s"] = self_sum / static_cast<double>(cells);
  out["mine_s"] = PassMedian(plain);
  const double traced_pass = PassMedian(traced);
  out["budget.coverage"] = (perturb_sum + train_sum + eval_sum) / traced_pass;
  out["obs.trace_overhead_frac"] = traced_pass / PassMedian(plain) - 1.0;
  out["failed_frac"] = 0.0;
  report->Note(StrFormat(
      "budget: perturb %.3f s + train %.3f s (EM %.3f s) + evaluate %.3f s "
      "of a %.3f s traced pass",
      perturb_sum, train_sum, train_sum - self_sum, eval_sum, traced_pass));
  report->Note("self time: " + spans.SelfTimeSummary());
  PPDM_ASSIGN_OR_RETURN(
      const std::string path,
      spans.Write(options.out_dir +
                  StrFormat("/trace-mine-%llu.json",
                            static_cast<unsigned long long>(options.seed))));
  report->Note(StrFormat("chrome trace: %s (%llu spans dropped)", path.c_str(),
                         static_cast<unsigned long long>(spans.dropped())));
  return Status::Ok();
}

}  // namespace perfbench
