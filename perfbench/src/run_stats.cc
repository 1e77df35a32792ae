#include "run_stats.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

HostSample SampleHost() {
  HostSample sample;
  std::ifstream loadavg("/proc/loadavg");
  loadavg >> sample.load1;
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream stat("/proc/stat");
  std::string line;
  if (std::getline(stat, line)) {
    std::istringstream fields(line);
    std::string label;
    fields >> label;
    std::uint64_t value = 0;
    for (int column = 0; column < 8 && fields >> value; ++column) {
      if (column == 7) sample.steal_ticks = value;
    }
  }
  return sample;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned NumCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

}  // namespace perfbench
