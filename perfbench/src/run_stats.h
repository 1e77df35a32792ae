// Sample statistics and host conditions for one benchmark run.

#ifndef PERFBENCH_RUN_STATS_H_
#define PERFBENCH_RUN_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// \brief Quantile q in [0, 1] of `values`, interpolating linearly between
/// order statistics (numpy's default). 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// \brief Host state that tells a run hit by VM jitter from a real change.
struct HostSample {
  double load1 = 0.0;              ///< /proc/loadavg, one-minute average.
  std::uint64_t steal_ticks = 0;   ///< /proc/stat aggregate steal column.
};

HostSample SampleHost();

/// \brief This process's peak resident set (getrusage ru_maxrss) in MB.
double PeakRssMb();

/// \brief Online CPUs.
unsigned NumCpus();

}  // namespace perfbench

#endif  // PERFBENCH_RUN_STATS_H_
