// tcmbench: the repository benchmark driver.
//
//   tcmbench --workload NAME --seed N --seconds S --trace 0|1
//            --work-dir DIR --serve-binary PATH
//
// Workloads: tcmb_stream_merge, csv_inmem_tclose_first (batch, through
// RunJob), serve_small_jobs (a live tcm_serve). With --trace 0 it prints
// the end-to-end metrics, with --trace 1 the per-layer metrics of a
// separate traced run. The last line of standard output is the result
// object; the exit code is 0 only when every correctness check passed.
// tcmbench/run.py builds this binary and is the documented entry point.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.h"

namespace tcmbench {
namespace {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},        {"rows_per_s", "rows/s"},
    {"peak_rss_mib", "MiB"}, {"norm_sse", "ratio"},
    {"max_jobs_per_s", "1/s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"data.read_s", "s"},
    {"data.read_mib_per_s", "MiB/s"},
    {"data.write_s", "s"},
    {"data.write_mib_per_s", "MiB/s"},
    {"colstore.read_s", "s"},
    {"colstore.copied_mib", "MiB"},
    {"colstore.mapped_mib", "MiB"},
    {"engine.windows", "count"},
    {"engine.shards", "count"},
    {"engine.shard_copy_s", "s"},
    {"engine.fanout_wall_s", "s"},
    {"engine.pool_wait_s", "s"},
    {"engine.fanout_efficiency", "ratio"},
    {"engine.serial_share", "ratio"},
    {"engine.unattributed_s", "s"},
    {"tclose.shard_busy_s", "s"},
    {"tclose.shard_busy_s_1t", "s"},
    {"tclose.shard_max_s", "s"},
    {"tclose.shard_busy_inflation", "ratio"},
    {"tclose.merge_s", "s"},
    {"tclose.merges", "count"},
    {"tclose.candidate_checks", "count"},
    {"tclose.pruned_ratio", "ratio"},
    {"utility.metrics_s", "s"},
    {"privacy.verify_s", "s"},
    {"api.overhead_s", "s"},
    {"serve.job_p50_ms", "ms"},
    {"serve.job_p99_ms", "ms"},
    {"serve.admit_ms_p50", "ms"},
    {"serve.service_ms_p50", "ms"},
    {"serve.service_ms_p99", "ms"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.wait_ms_p99", "ms"},
    {"serve.ndjson_p50_ms", "ms"},
    {"serve.ndjson_p90_ms", "ms"},
    {"serve.rejected", "count"},
    {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.achieved_jobs_per_s", "1/s"},
    {"obs.trace_overhead_ratio", "ratio"},
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "tcmbench: %s\nusage: tcmbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --serve-binary PATH\n",
               message);
  return 2;
}

}  // namespace
}  // namespace tcmbench

int main(int argc, char** argv) {
  using namespace tcmbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--serve-binary") {
      options.serve_binary = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  const bool batch = IsBatchWorkload(options.workload);
  if (!batch && options.workload != "serve_small_jobs") {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (options.work_dir.empty() ||
      (!batch && options.serve_binary.empty())) {
    return Usage("--work-dir (and --serve-binary for serving) is required");
  }

  Sheet sheet;
  sheet.Note("workload", options.workload);
  sheet.Note("seed", std::to_string(options.seed));
  sheet.Note("trace", options.trace ? "1" : "0");
  sheet.Note("nproc", std::to_string(std::thread::hardware_concurrency()));
  sheet.Note("build_type", TCMBENCH_BUILD_TYPE);
  const int status = batch ? RunBatchWorkload(options, &sheet)
                           : RunServeWorkload(options, &sheet);
  if (status != 0) return status;
  sheet.Print(options.trace ? kPerLayer : kEndToEnd);
  return sheet.correct() ? 0 : 1;
}
