// The benchmark's workloads (README.md, "Workloads") and the one entry
// point main.cc calls: set the stack up from a seed, drive it, check
// every answer, and turn what was seen into named metrics.

#ifndef SQP_PERFBENCH_WORKLOADS_H_
#define SQP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct RunConfig {
  std::string workload;  // knn-disk | knn-hot | ingest-mixed
  uint64_t seed = 1;
  double seconds = 10.0;  // length of each measured window
  // false: end-to-end metrics from an untraced stack (set up five or
  // more times, median set-up time reported). true: per-layer metrics from an
  // untraced and a traced pass plus the peeled passes.
  bool trace = false;
  std::string workdir;  // scratch space for file-backed indexes
  // Open-loop read arrivals per second; 0 keeps the workload's own rate.
  // Only knee.py sets it, to find the rate where the stack saturates.
  double read_rate = 0.0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunReport {
  // Every answer matched the ground truth and every conservation
  // identity held.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // The metrics BENCHMARK.json lists for this mode: end-to-end (trace
  // off) or per-layer (trace on).
  std::vector<Metric> metrics;
  // Figures printed in the report but not listed in BENCHMARK.json.
  std::vector<Metric> extra;
  // Provenance and flags, e.g. {"io_backend", "threads"}.
  std::vector<std::pair<std::string, std::string>> info;
  // Why `correct` is false (first few failures) and warnings.
  std::vector<std::string> problems;
};

// Runs one invocation. A non-OK result means the stack could not be set
// up at all (bad workload name, I/O failure); wrong answers and broken
// identities come back as an OK result with correct == false.
sqp::common::Result<RunReport> RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // SQP_PERFBENCH_WORKLOADS_H_
