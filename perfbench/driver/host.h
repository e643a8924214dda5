#ifndef PERFBENCH_DRIVER_HOST_H_
#define PERFBENCH_DRIVER_HOST_H_

#include <string>

namespace perfbench {

/// The shape of the host and build a measurement came from.
struct HostShape {
  unsigned nproc = 0;
  std::string build_type;
  std::string compiler;
  /// True when the binary was compiled with any sanitizer; timings from
  /// such a build are meaningless and the driver refuses to report them.
  bool sanitized = false;
};

HostShape DescribeHost();

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_HOST_H_
