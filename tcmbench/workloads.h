#ifndef TCMBENCH_WORKLOADS_H_
#define TCMBENCH_WORKLOADS_H_

#include <string>

#include "util.h"

namespace tcmbench {

// Each workload fills `sheet` and returns 0, or returns non-zero when it
// could not even set up (no result is printed then).
bool IsBatchWorkload(const std::string& workload);
int RunBatchWorkload(const Options& options, Sheet* sheet);
int RunServeWorkload(const Options& options, Sheet* sheet);

}  // namespace tcmbench

#endif  // TCMBENCH_WORKLOADS_H_
