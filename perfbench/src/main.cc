// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <select-cpu|search-rd|serve-remote> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Human-readable lines first (metrics with units, the pick digest, the
// run's conditions), then, as the last line of stdout, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit status: 0 when every answer passed its checks, 1 when one failed,
// 2 when the benchmark could not run.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "run_stats.h"
#include "workloads.h"

namespace {

// Shortest text that reads back as the same double.
std::string Number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

bool ParseArgs(int argc, char** argv, perfbench::RunOptions* options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options->workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options->seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        options->trace = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::cerr << "usage: perfbench --workload <select-cpu|search-rd|"
                 "serve-remote> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  const perfbench::HostSample host_before = perfbench::SampleHost();
  auto result = perfbench::RunWorkload(options);
  const perfbench::HostSample host_after = perfbench::SampleHost();
  if (!result.ok()) {
    std::cerr << "perfbench: " << result.status().ToString() << "\n";
    return 2;
  }
  const perfbench::RunReport& report = *result;

  std::cout << "workload " << options.workload << " seed " << options.seed
            << " seconds " << options.seconds << " trace "
            << (options.trace ? 1 : 0) << "\n";
  for (const perfbench::Metric& metric : report.metrics) {
    std::cout << "  " << metric.name << " = " << Number(metric.value) << " "
              << metric.unit << "\n";
  }
  for (const perfbench::Metric& note : report.notes) {
    std::cout << "  (" << note.name << " = " << Number(note.value) << " "
              << note.unit << ")\n";
  }
  std::cout << "digest " << options.workload << " 0x" << std::hex
            << report.digest << std::dec << " over " << report.digest_picks
            << " picks\n";
  std::cout << "conditions {\"seed\": " << options.seed
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"nproc\": " << perfbench::NumCpus()
            << ", \"load1_before\": " << Number(host_before.load1)
            << ", \"load1_after\": " << Number(host_after.load1)
            << ", \"steal_ticks_before\": " << host_before.steal_ticks
            << ", \"steal_ticks_after\": " << host_after.steal_ticks
            << ", \"late_ms_p99\": " << Number(report.late_ms_p99)
            << ", \"late_ms_max\": " << Number(report.late_ms_max) << "}\n";

  if (report.failed > 0) {
    std::cerr << report.failed << " requests failed, first: "
              << report.first_error << "\n";
  }
  bool correct = report.check_failures == 0;
  for (const std::string& message : report.check_messages) {
    std::cerr << "check failed: " << message << "\n";
  }
  for (const perfbench::Metric& metric : report.metrics) {
    if (!std::isfinite(metric.value)) {
      std::cerr << "check failed: " << metric.name << " is not finite\n";
      correct = false;
    }
  }
  if (!correct) {
    std::cerr << report.check_failures << " answers failed their checks\n";
  }

  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t m = 0; m < report.metrics.size(); ++m) {
    const perfbench::Metric& metric = report.metrics[m];
    line << (m == 0 ? "" : ", ") << "\"" << metric.name << "\": {\"value\": "
         << (std::isfinite(metric.value) ? Number(metric.value) : "null")
         << ", \"unit\": \"" << metric.unit << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}
