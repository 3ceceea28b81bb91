#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "perfbench.hpp"

namespace perfbench {

namespace {

[[nodiscard]] double cpu_of(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace

double process_cpu_s() { return cpu_of(RUSAGE_SELF); }

double thread_cpu_s() { return cpu_of(RUSAGE_THREAD); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

HostNoise host_noise_now() {
  HostNoise noise;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  noise.nivcsw = usage.ru_nivcsw;
  noise.nvcsw = usage.ru_nvcsw;

  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string line;
  if (stat && std::getline(stat, line) && line.rfind("cpu ", 0) == 0) {
    std::istringstream fields(line.substr(4));
    long long value = 0;
    for (int column = 0; column < 8 && fields >> value; ++column) {
      if (column == 7) noise.steal_ticks = value;
    }
  }
  return noise;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

}  // namespace perfbench
