// perfbench: the repository benchmark. Usage:
//   perfbench --workload upload|churn|mine --seed N --seconds S --trace 0|1
//             [--smoke 1] [--tamper 1] [--out-dir DIR]
// Prints "# ..." note lines and, last, one JSON object with the run's
// correctness, request counts and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. perfbench/run.py builds
// this binary and runs it; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "common/strings.h"
#include "engine/simd.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the smoke test checks it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"records_per_s", "records/s"},
    {"peak_rss_mb", "MB"},
    {"accuracy", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"ingest_p50_ms", "ms"},
    {"ingest_tail_ms", "ms"},
    {"reconstruct_p50_ms", "ms"},
    {"reconstruct_tail_ms", "ms"},
    {"net.request_us", "us"},
    {"net.rtt_gap_us", "us"},
    {"net.bytes_in_per_ingest", "B"},
    {"net.read_pauses", "count"},
    {"net.encode_frame_us", "us"},
    {"net.decode_frame_us", "us"},
    {"store.crc32_MBps", "MB/s"},
    {"store.read_doubles_us", "us"},
    {"store.write_doubles_us", "us"},
    {"store.encode_session_us", "us"},
    {"store.decode_session_us", "us"},
    {"store.put_us", "us"},
    {"store.get_us", "us"},
    {"store.puts", "count"},
    {"store.put_bytes", "B"},
    {"service.queue_wait_us", "us"},
    {"service.run_us", "us"},
    {"service.shed", "count"},
    {"registry.hits", "count"},
    {"registry.lookups", "count"},
    {"registry.hit_ratio", "ratio"},
    {"registry.readmissions", "count"},
    {"registry.spills", "count"},
    {"registry.readmit_us", "us"},
    {"registry.lookup_us", "us"},
    {"registry.accounted_mb", "MB"},
    {"session.ingest_us", "us"},
    {"session.reconstruct_warm_us", "us"},
    {"session.reconstruct_cold_us", "us"},
    {"em.fits", "count"},
    {"em.fit_us", "us"},
    {"em.iterations", "count"},
    {"kernel.builds", "count"},
    {"kernel.build_gauss_us", "us"},
    {"engine.bin_ns_per_value", "ns"},
    {"engine.tasks", "count"},
    {"perturb.ns_per_value", "ns"},
    {"tree.train_s", "s"},
    {"tree.self_s", "s"},
    {"drain_s", "s"},
    {"failed_frac", "ratio"},
    {"mine_s", "s"},
    {"churn.lateness_p99_ms", "ms"},
    {"churn.backlog", "count"},
    {"budget.coverage", "ratio"},
    {"obs.trace_overhead_frac", "ratio"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload upload|churn|mine "
               "--seed N --seconds S --trace 0|1 [--smoke 1] [--tamper 1] "
               "[--out-dir DIR]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage("every flag takes a value");
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--smoke") {
      options.smoke = value == "1";
    } else if (flag == "--tamper") {
      options.tamper = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

#ifndef NDEBUG
  return Usage("refusing to report from a build with assertions enabled");
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return Usage("refusing to report from a non-Release build");
  }
  if (const ppdm::Status s = ppdm::engine::simd::InitFromEnv(); !s.ok()) {
    return Usage(s.ToString().c_str());
  }
  if (const ppdm::Status s = MakeDirs(options.out_dir); !s.ok()) {
    return Usage(s.ToString().c_str());
  }

  Report report;
  report.Note(HostFingerprint());
  report.Note(ppdm::StrFormat(
      "run: workload=%s seed=%llu seconds=%g trace=%d%s%s",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, options.smoke ? " smoke" : "",
      options.tamper ? " tamper" : ""));
  Values values;
  ppdm::Status status;
  if (options.workload == "upload") {
    status = RunUpload(options, &values, &report);
  } else if (options.workload == "churn") {
    status = RunChurn(options, &values, &report);
  } else if (options.workload == "mine") {
    status = RunMine(options, &values, &report);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s run failed: %s\n",
                 options.workload.c_str(), status.ToString().c_str());
    return 1;
  }

  // Every metric of the selected table is printed, by name, with its
  // unit. A per-layer metric of a layer this workload does not exercise
  // reads 0 and is listed; an end-to-end metric must always be measured.
  std::string absent;
  std::set<std::string> known;
  const MetricDef* begin = options.trace ? std::begin(kPerLayer)
                                         : std::begin(kEndToEnd);
  const MetricDef* end =
      options.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const MetricDef* def = begin; def != end; ++def) {
    known.insert(def->name);
    const auto it = values.find(def->name);
    if (it != values.end()) {
      report.Metric(def->name, it->second, def->unit);
      continue;
    }
    if (!options.trace) {
      report.Fail(std::string("end-to-end metric not measured: ") + def->name);
    }
    absent += absent.empty() ? def->name : std::string(", ") + def->name;
    report.Metric(def->name, 0.0, def->unit);
  }
  for (const auto& [name, value] : values) {
    if (known.count(name) == 0) {
      report.Note(ppdm::StrFormat("unlisted metric %s = %.6g", name.c_str(),
                                  value));
    }
  }
  if (!absent.empty()) {
    report.Note("not exercised by " + options.workload + " (reported as 0): " +
                absent);
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
