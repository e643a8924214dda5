#include "driver/host.h"

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

namespace {

// GCC defines __SANITIZE_ADDRESS__ / __SANITIZE_THREAD__; clang exposes
// __has_feature. UBSan has no macro on GCC, so the build also passes
// PERFBENCH_SANITIZED when its flags name any sanitizer.
constexpr bool kCompiledWithSanitizer =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
    true;
#else
    PERFBENCH_SANITIZED != 0;
#endif
#else
    PERFBENCH_SANITIZED != 0;
#endif

}  // namespace

HostShape DescribeHost() {
  HostShape host;
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  host.nproc = cpus > 0 ? static_cast<unsigned>(cpus) : 0;
  host.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  host.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  host.compiler = "gcc " __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.sanitized = kCompiledWithSanitizer;
  return host;
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
