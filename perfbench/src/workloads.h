// The benchmark's three workloads over the health testbed (scale 1,
// 20 databases, k = 3, default options and policy). README.md explains why
// each exists and which layer each end-to-end metric answers to.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

struct RunOptions {
  std::string workload;  ///< select-cpu, search-rd or serve-remote.
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: install the layer decorators and report per-layer
  /// metrics instead of the end-to-end ones.
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< Error statuses plus refusals.
  std::string first_error;   ///< Why the first failed request failed.
  /// The run's result metrics: end-to-end, or per-layer when traced.
  std::vector<Metric> metrics;
  /// Printed for the reader but not part of the result line: metrics that
  /// are zero by design on some workload, so they cannot carry a bound.
  std::vector<Metric> notes;
  /// Output-check failures (the first few) and their total.
  std::vector<std::string> check_messages;
  std::uint64_t check_failures = 0;
  /// Digest of the picks, with how many trace positions it covers.
  std::uint64_t digest = 0;
  std::size_t digest_picks = 0;
  /// Open-loop generator lateness (0 for the closed loops).
  double late_ms_p99 = 0.0;
  double late_ms_max = 0.0;
};

/// \brief Builds the testbed from `options.seed`, runs the workload for
/// `options.seconds` and checks every answer. Fails only when the
/// benchmark itself cannot run; wrong answers land in the report.
metaprobe::Result<RunReport> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
