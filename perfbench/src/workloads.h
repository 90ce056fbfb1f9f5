// The benchmark's workloads. Each fills `values` with every metric it
// measures (end-to-end metrics without --trace, per-layer metrics with
// it) and records correctness failures and notes in `report`. A returned
// error means the run could not be carried out; no result is printed then.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "served.h"

namespace perfbench {

/// Closed loop, 1 connection, 4 tenants, 1024-row ingest frames.
ppdm::Status RunUpload(const Options& options, Values* values,
                       Report* report);

/// Open loop at a fixed rate over 256 Zipf-popular tenants with small
/// ingests, reconstructs and snapshots under a registry byte budget.
ppdm::Status RunChurn(const Options& options, Values* values, Report* report);

/// The paper's Figure 3 cells in batch: Fn1-Fn5 x ByClass/Local.
ppdm::Status RunMine(const Options& options, Values* values, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
