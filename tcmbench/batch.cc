// Batch workloads: one 1M-row input built at set-up, anonymized through
// RunJob(JobSpec) repeatedly for the measured window, then checked.
//
//   tcmb_stream_merge       clustered .tcmb, streaming, merge_projection,
//                           hierarchical merge, overlapped reads
//   csv_inmem_tclose_first  uniform CSV, in memory, tclose_first,
//                           sequential merge
//
// The untraced run reports the end-to-end sheet. The traced run (trace=1)
// re-runs the job with the benchmark's own spans around the calls into
// each module (a timed RecordSource wrapper, the RunReport stage ledger)
// and runs the fan-out probe: the same windows' shards through
// MakeShardPlan, Dataset::Select and the registry function on a
// ThreadPool at 1 and at 4 threads.

#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>

#include "common/rng.h"
#include "data/csv.h"
#include "data/generator.h"
#include "engine/pipeline.h"
#include "engine/registry.h"
#include "engine/sharded.h"
#include "engine/thread_pool.h"
#include "privacy/kanonymity.h"
#include "tcm/api.h"

namespace tcmbench {
namespace {

struct BatchConfig {
  bool tcmb = false;  // input format; the generator follows from it
  size_t rows = 1'000'000;
  size_t quasi_identifiers = 3;
  size_t modes = 8;  // clustered generator only
  tcm::ExecutionMode mode = tcm::ExecutionMode::kInMemory;
  std::string algorithm;
  tcm::MergeStrategy merge = tcm::MergeStrategy::kSequential;
  bool overlap_io = false;
  size_t max_resident_rows = 100'000;
  size_t k = 5;
  double t = 0.2;
  size_t threads = 4;
  size_t shard_size = 4096;
};

BatchConfig ConfigFor(const std::string& workload) {
  BatchConfig config;
  if (workload == "tcmb_stream_merge") {
    config.tcmb = true;
    config.mode = tcm::ExecutionMode::kStreaming;
    config.algorithm = "merge_projection";
    config.merge = tcm::MergeStrategy::kHierarchical;
    config.overlap_io = true;
  } else {
    config.algorithm = "tclose_first";
  }
  return config;
}

const std::vector<std::string> kQis = {"QI0", "QI1", "QI2"};
const char* const kConfidential = "CONF";

// The clustered workload's data: the shape of tcm::MakeClusteredDataset
// (QIs scattered N(0,1) around one of `modes` centres, the confidential
// value the mode index plus N(0, 0.75^2) noise) but with the centres
// fixed on the corners of a cube of side 30. The library generator draws
// its centres from the seed, and how close they fall decides how much
// merging t-closeness needs: across five seeds norm_sse ranged
// 0.018-0.081. Fixed centres let the seed vary the rows only.
tcm::Result<tcm::Dataset> MakeClusteredInput(const BatchConfig& config,
                                             uint64_t seed) {
  tcm::Rng rng(seed);
  const size_t q = config.quasi_identifiers;
  std::vector<std::vector<double>> cols(q + 1,
                                        std::vector<double>(config.rows));
  for (size_t i = 0; i < config.rows; ++i) {
    const size_t mode = static_cast<size_t>(rng.NextBounded(config.modes));
    for (size_t j = 0; j < q; ++j) {
      cols[j][i] = 30.0 * static_cast<double>((mode >> j) & 1) +
                   rng.NextGaussian();
    }
    cols[q][i] = static_cast<double>(mode) + 0.75 * rng.NextGaussian();
  }
  std::vector<tcm::AttributeRole> roles(q,
                                        tcm::AttributeRole::kQuasiIdentifier);
  roles.push_back(tcm::AttributeRole::kConfidential);
  std::vector<std::string> names = kQis;
  names.push_back(kConfidential);
  return tcm::DatasetFromColumns(names, cols, roles);
}

// Builds the input file; returns the seconds it took.
double BuildInput(const BatchConfig& config, uint64_t seed,
                  const std::string& path) {
  const Clock::time_point start = Clock::now();
  tcm::Status written;
  if (config.tcmb) {
    tcm::Result<tcm::Dataset> data = MakeClusteredInput(config, seed);
    written = data.ok()
                  ? tcm::WriteTcmb(tcm::ColumnTable::FromDataset(*data), path)
                  : data.status();
  } else {
    tcm::Dataset data =
        tcm::MakeUniformDataset(config.rows, config.quasi_identifiers, seed);
    written = tcm::WriteCsv(data, path);
  }
  if (!written.ok()) {
    std::fprintf(stderr, "tcmbench: input write failed: %s\n",
                 written.ToString().c_str());
    return -1.0;
  }
  return SecondsSince(start);
}

tcm::JobSpec SpecFor(const BatchConfig& config, const std::string& input,
                     const std::string& release, uint64_t seed) {
  tcm::JobSpec spec;
  spec.input.kind = tcm::InputKind::kCsvPath;
  spec.input.path = input;
  spec.input.format =
      config.tcmb ? tcm::InputFormat::kTcmb : tcm::InputFormat::kCsv;
  if (!config.tcmb) {
    spec.roles.quasi_identifiers = kQis;
    spec.roles.confidential = kConfidential;
  }
  spec.algorithm.name = config.algorithm;
  spec.algorithm.k = config.k;
  spec.algorithm.t = config.t;
  spec.algorithm.seed = seed;
  spec.execution.mode = config.mode;
  spec.execution.threads = config.threads;
  spec.execution.shard_size = config.shard_size;
  spec.execution.max_resident_rows = config.max_resident_rows;
  spec.execution.merge_strategy = config.merge;
  spec.execution.overlap_io = config.overlap_io;
  spec.verify = true;
  spec.output.release_path = release;
  return spec;
}

// RecordSource wrapper: the span around the colstore read boundary.
// ReadInto may run on a pool thread (overlapped reads), so the ledger is
// guarded.
class TimedSource : public tcm::RecordSource {
 public:
  explicit TimedSource(tcm::RecordSource* inner) : inner_(inner) {}
  const tcm::Schema& schema() const override { return inner_->schema(); }
  tcm::Result<size_t> ReadInto(tcm::Dataset* out, size_t max_rows) override {
    const Clock::time_point start = Clock::now();
    tcm::Result<size_t> got = inner_->ReadInto(out, max_rows);
    const double seconds = SecondsSince(start);
    std::lock_guard<std::mutex> lock(mutex_);
    seconds_ += seconds;
    return got;
  }
  double seconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return seconds_;
  }

 private:
  tcm::RecordSource* inner_;
  mutable std::mutex mutex_;
  double seconds_ = 0.0;
};

// One RunJob call and what the benchmark observed around it.
struct JobRun {
  tcm::RunReport report;
  double wall_s = 0.0;
  double peak_rss_mib = 0.0;
  FileDigest digest;
  // Traced runs of .tcmb input only.
  double colstore_read_s = 0.0;
  double mapped_mib = 0.0;
  double copied_mib = 0.0;
};

double StageSeconds(const tcm::RunReport& report, const std::string& key) {
  for (const auto& [name, seconds] : report.stage_seconds) {
    if (name == key) return seconds;
  }
  return 0.0;
}

// Runs the job once and applies the per-run checks: it succeeded, it
// verified, the release holds every input row and max_cluster_emd <= t.
bool RunOnce(const BatchConfig& config, const tcm::JobSpec& spec,
             bool traced, Sheet* sheet, JobRun* run) {
  std::unique_ptr<tcm::ColumnarSource> columnar;
  std::unique_ptr<TimedSource> timed;
  if (traced && config.tcmb) {
    auto opened = tcm::ColumnarSource::Open(spec.input.path);
    if (!sheet->Check(opened.ok(), "open .tcmb: " +
                                       opened.status().ToString())) {
      return false;
    }
    columnar = std::move(opened).value();
    timed = std::make_unique<TimedSource>(columnar.get());
  }
  if (!sheet->Check(ResetPeakRss(),
                    "cannot reset the peak RSS (/proc/self/clear_refs)")) {
    return false;
  }
  const Clock::time_point start = Clock::now();
  tcm::Result<tcm::RunReport> report =
      timed != nullptr ? tcm::RunJob(timed.get(), spec) : tcm::RunJob(spec);
  run->wall_s = SecondsSince(start);
  run->peak_rss_mib = PeakRssMib();
  if (!sheet->Check(report.ok(), "RunJob: " + report.status().ToString())) {
    return false;
  }
  run->report = std::move(report).value();
  run->report.release.reset();  // the gate reads the written file
  if (timed != nullptr) {
    run->colstore_read_s = timed->seconds();
    run->mapped_mib = static_cast<double>(columnar->mapped_bytes()) /
                      (1024.0 * 1024.0);
    run->copied_mib = static_cast<double>(columnar->copied_bytes()) /
                      (1024.0 * 1024.0);
  }
  run->digest = DigestFile(spec.output.release_path);
  const tcm::RunReport& r = run->report;
  bool ok = sheet->Check(r.k_verified && r.t_verified,
                         "release not verified by RunJob");
  ok &= sheet->Check(r.rows == config.rows, "report rows != input rows");
  ok &= sheet->Check(run->digest.ok && run->digest.lines == config.rows + 1,
                     "release row count != input row count");
  ok &= sheet->Check(r.max_cluster_emd <= config.t + 1e-12,
                     "max_cluster_emd > t");
  ok &= sheet->Check(std::isfinite(r.normalized_sse) &&
                         r.normalized_sse > 0.0,
                     "normalized_sse not positive");
  return ok;
}

// The independent gate on the written release: the whole file is
// k-anonymous, and every window (split by the report's per-window row
// counts) passes VerifyRelease.
void GateRelease(const BatchConfig& config, const std::string& release,
                 const tcm::RunReport& report, Sheet* sheet) {
  auto data = tcm::ReadNumericCsv(release);
  if (!sheet->Check(data.ok(), "read release: " + data.status().ToString())) {
    return;
  }
  tcm::Status roles = tcm::AssignRoles(&*data, kQis, kConfidential);
  if (!sheet->Check(roles.ok(), "release roles: " + roles.ToString())) return;
  sheet->Check(data->NumRecords() == config.rows,
               "gate: release rows != input rows");
  auto k_anonymous = tcm::IsKAnonymous(*data, config.k);
  sheet->Check(k_anonymous.ok() && *k_anonymous,
               "gate: release is not k-anonymous");
  std::vector<size_t> window_rows;
  for (const auto& window : report.windows) window_rows.push_back(window.rows);
  if (window_rows.empty()) window_rows.push_back(data->NumRecords());
  size_t begin = 0;
  for (size_t w = 0; w < window_rows.size(); ++w) {
    if (!sheet->Check(begin + window_rows[w] <= data->NumRecords(),
                      "gate: window rows exceed the release")) {
      return;
    }
    tcm::Status verdict = tcm::Status::Ok();
    if (begin == 0 && window_rows[w] == data->NumRecords()) {
      verdict = tcm::VerifyRelease(*data, config.k, config.t);
    } else {
      std::vector<size_t> rows(window_rows[w]);
      for (size_t i = 0; i < rows.size(); ++i) rows[i] = begin + i;
      auto window = data->Select(rows);
      verdict = window.ok()
                    ? tcm::VerifyRelease(*window, config.k, config.t)
                    : window.status();
    }
    sheet->Check(verdict.ok(), "gate: window " + std::to_string(w) + ": " +
                                   verdict.ToString());
    begin += window_rows[w];
  }
  sheet->Check(begin == data->NumRecords(),
               "gate: window rows do not cover the release");
}

// Fan-out probe result at one thread count, summed over windows.
struct Fanout {
  double busy_s = 0.0;  // per-shard busy time, summed
  double max_s = 0.0;   // slowest shard per window, summed
  double wall_s = 0.0;  // submit-to-join per window, summed
  // Worker-seconds the pool's threads sat idle inside a fan-out (wall x
  // threads - busy): stragglers plus hand-off, 0 under perfect scaling.
  double idle_s = 0.0;
};

bool ProbeWindow(const tcm::Dataset& window, const BatchConfig& config,
                 const tcm::PartitionFn& fn, uint64_t seed,
                 tcm::ThreadPool* pool, Fanout* out) {
  const tcm::ShardPlan plan =
      tcm::MakeShardPlan(window.NumRecords(), config.shard_size, config.k);
  std::vector<tcm::Dataset> shards;
  shards.reserve(plan.NumShards());
  for (const auto& rows : plan.shards) {
    auto shard = window.Select(rows);
    if (!shard.ok()) return false;
    shards.push_back(std::move(shard).value());
  }
  struct Span {
    Clock::time_point start, end;
    bool ok = false;
  };
  // Every shard is copied before the clock starts, as the engine does.
  const Clock::time_point submit = Clock::now();
  std::vector<std::future<Span>> futures;
  for (size_t i = 0; i < shards.size(); ++i) {
    futures.push_back(pool->Submit([&, i]() {
      Span span;
      span.start = Clock::now();
      tcm::AlgorithmParams params;
      params.k = config.k;
      params.t = config.t;
      params.seed = seed + i;
      span.ok = fn(shards[i], params).ok();
      span.end = Clock::now();
      return span;
    }));
  }
  double busy_sum = 0.0, max_shard = 0.0;
  bool ok = true;
  for (auto& future : futures) {
    const Span span = future.get();
    const double busy =
        std::chrono::duration<double>(span.end - span.start).count();
    busy_sum += busy;
    max_shard = std::max(max_shard, busy);
    ok = ok && span.ok;
  }
  const double wall = SecondsSince(submit);
  out->busy_s += busy_sum;
  out->max_s += max_shard;
  out->wall_s += wall;
  out->idle_s +=
      wall * static_cast<double>(pool->num_threads()) - busy_sum;
  return ok;
}

// Re-reads the input in the windows the report names and runs each
// window's shards at 1 and at `threads` threads.
bool RunFanoutProbe(const BatchConfig& config, const std::string& input,
                    const tcm::RunReport& report, uint64_t seed,
                    Fanout* serial, Fanout* parallel) {
  auto fn = tcm::AlgorithmRegistry::BuiltIns().Find(config.algorithm);
  if (!fn.ok()) return false;
  tcm::ThreadPool one(1);
  tcm::ThreadPool many(config.threads);
  auto run_window = [&](const tcm::Dataset& window) {
    return ProbeWindow(window, config, *fn, seed, &one, serial) &&
           ProbeWindow(window, config, *fn, seed, &many, parallel);
  };
  if (config.tcmb) {
    auto source = tcm::ColumnarSource::Open(input);
    if (!source.ok()) return false;
    for (const auto& summary : report.windows) {
      tcm::Dataset window((*source)->schema());
      auto got = (*source)->ReadInto(&window, summary.rows);
      if (!got.ok() || *got != summary.rows || !run_window(window)) {
        return false;
      }
    }
    return true;
  }
  auto data = tcm::ReadNumericCsv(input);
  if (!data.ok() || !tcm::AssignRoles(&*data, kQis, kConfidential).ok()) {
    return false;
  }
  return run_window(*data);
}

}  // namespace

bool IsBatchWorkload(const std::string& workload) {
  return workload == "tcmb_stream_merge" ||
         workload == "csv_inmem_tclose_first";
}

int RunBatchWorkload(const Options& options, Sheet* sheet) {
  const BatchConfig config = ConfigFor(options.workload);
  sheet->Note("threads", std::to_string(config.threads));
  sheet->Note("rows", std::to_string(config.rows));
  const std::string input =
      options.work_dir + (config.tcmb ? "/input.tcmb" : "/input.csv");
  const std::string release = options.work_dir + "/release.csv";

  // Set-up: the input file, built three times before the timed calls
  // and twice after them (same bytes each time); the median of the five
  // is setup_s. On a shared 4-vCPU VM the build time varied by up to ~25%
  // between minutes, so the samples straddle the timed calls.
  std::vector<double> setups;
  auto build = [&](int times) {
    for (int i = 0; i < times; ++i) {
      const double seconds = BuildInput(config, options.seed, input);
      if (seconds < 0) return false;
      setups.push_back(seconds);
    }
    return true;
  };
  if (!build(options.trace ? 1 : 3)) return 1;
  const double input_mib = FileMib(input);
  const tcm::JobSpec spec = SpecFor(config, input, release, options.seed);

  // Warm-up: fills the page cache and lazy allocator state; untimed.
  JobRun warm;
  if (!RunOnce(config, spec, /*traced=*/false, sheet, &warm)) return 0;
  const uint64_t digest = warm.digest.fnv1a;
  sheet->Note("release_digest", Hex(digest));
  auto check_digest = [&](const JobRun& run, const char* what) {
    sheet->Check(run.digest.fnv1a == digest,
                 std::string("release digest differs (") + what + "): " +
                     Hex(run.digest.fnv1a) + " vs " + Hex(digest));
  };

  if (!options.trace) {
    std::vector<double> walls, rss;
    const Clock::time_point start = Clock::now();
    // Whole calls only: stop once another one would overrun --seconds.
    while (walls.size() < 3 ||
           SecondsSince(start) + Median(walls) <= options.seconds) {
      JobRun run;
      if (!RunOnce(config, spec, false, sheet, &run)) break;
      check_digest(run, "repeat");
      walls.push_back(run.wall_s);
      rss.push_back(run.peak_rss_mib);
    }
    GateRelease(config, release, warm.report, sheet);
    const double wall = Median(walls);
    std::string list;
    for (double w : walls) list += " " + std::to_string(w);
    sheet->Note("samples",
                std::to_string(walls.size()) + " RunJob calls, s:" + list);
    if (!build(2)) return 1;
    list.clear();
    for (double seconds : setups) list += " " + std::to_string(seconds);
    sheet->Note("setup_samples", "s:" + list);
    sheet->Set("setup_s", Median(setups));
    sheet->Set("rows_per_s",
               wall > 0 ? static_cast<double>(config.rows) / wall : 0.0);
    sheet->Set("peak_rss_mib", Median(rss));
    sheet->Set("norm_sse", warm.report.normalized_sse);
    sheet->Set("max_jobs_per_s", wall > 0 ? 1.0 / wall : 0.0);
    return 0;
  }

  // Traced run: one untraced call, then the traced one.
  JobRun plain, traced;
  if (!RunOnce(config, spec, false, sheet, &plain)) return 0;
  check_digest(plain, "untraced");
  if (!RunOnce(config, spec, true, sheet, &traced)) return 0;
  check_digest(traced, "traced");
  GateRelease(config, release, traced.report, sheet);

  Fanout serial, parallel;
  sheet->Check(RunFanoutProbe(config, input, traced.report, options.seed,
                              &serial, &parallel),
               "fan-out probe failed");

  const tcm::RunReport& r = traced.report;
  const double load_s = r.load_seconds;
  const double shard_s = StageSeconds(r, "shard_seconds");
  const double fanout_s = StageSeconds(r, "shard_anonymize_seconds");
  const double merge_s = StageSeconds(r, "merge_seconds");
  const double metrics_s = StageSeconds(r, "metrics_seconds");
  const double named = load_s + shard_s + fanout_s + merge_s + metrics_s +
                       r.verify_seconds + r.write_seconds;
  const double release_mib = FileMib(release);

  const double data_read_s = config.tcmb ? 0.0 : load_s;
  sheet->Set("data.read_s", data_read_s);
  sheet->Set("data.read_mib_per_s",
             data_read_s > 0 ? input_mib / data_read_s : 0.0);
  sheet->Set("data.write_s", r.write_seconds);
  sheet->Set("data.write_mib_per_s",
             r.write_seconds > 0 ? release_mib / r.write_seconds : 0.0);
  sheet->Set("colstore.read_s", traced.colstore_read_s);
  sheet->Set("colstore.copied_mib", traced.copied_mib);
  sheet->Set("colstore.mapped_mib", traced.mapped_mib);
  sheet->Set("engine.windows",
             static_cast<double>(std::max<size_t>(r.num_windows, 1)));
  sheet->Set("engine.shards", static_cast<double>(r.num_shards));
  sheet->Set("engine.shard_copy_s", shard_s);
  sheet->Set("engine.fanout_wall_s", fanout_s);
  sheet->Set("engine.pool_wait_s", parallel.idle_s);
  sheet->Set("engine.fanout_efficiency",
             parallel.wall_s > 0
                 ? parallel.busy_s /
                       (parallel.wall_s * static_cast<double>(config.threads))
                 : 0.0);
  sheet->Set("engine.serial_share",
             traced.wall_s > 0 ? 1.0 - fanout_s / traced.wall_s : 0.0);
  sheet->Set("engine.unattributed_s", traced.wall_s - named);
  sheet->Set("tclose.shard_busy_s", parallel.busy_s);
  sheet->Set("tclose.shard_max_s", parallel.max_s);
  sheet->Set("tclose.shard_busy_s_1t", serial.busy_s);
  sheet->Set("tclose.shard_busy_inflation",
             serial.busy_s > 0 ? parallel.busy_s / serial.busy_s : 0.0);
  sheet->Set("tclose.merge_s", merge_s);
  sheet->Set("tclose.merges", static_cast<double>(r.final_merges));
  sheet->Set("tclose.candidate_checks",
             static_cast<double>(r.candidate_checks));
  sheet->Set("tclose.pruned_ratio",
             r.candidate_checks > 0
                 ? static_cast<double>(r.pruned_checks) /
                       static_cast<double>(r.candidate_checks)
                 : 0.0);
  sheet->Set("utility.metrics_s", metrics_s);
  sheet->Set("privacy.verify_s", r.verify_seconds);
  sheet->Set("api.overhead_s", traced.wall_s - r.total_seconds);
  sheet->Set("obs.trace_overhead_ratio",
             plain.wall_s > 0 ? traced.wall_s / plain.wall_s : 0.0);
  return 0;
}

}  // namespace tcmbench
