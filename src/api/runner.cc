#include "api/runner.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <future>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "colstore/column_table.h"
#include "colstore/columnar_source.h"
#include "colstore/tcmb.h"
#include "common/strings.h"
#include "common/timer.h"
#include "data/csv.h"
#include "data/csv_stream.h"
#include "data/generator.h"
#include "engine/pipeline.h"
#include "engine/registry.h"
#include "engine/sharded.h"
#include "engine/thread_pool.h"
#include "obs/trace.h"

namespace tcm {
namespace {

Dataset MakeSyntheticDataset(const JobInput& input) {
  if (input.generator == "uniform") {
    return MakeUniformDataset(input.rows, input.quasi_identifiers,
                              input.seed);
  }
  if (input.generator == "clustered") {
    return MakeClusteredDataset(input.rows, input.quasi_identifiers,
                                input.modes, input.seed);
  }
  if (input.generator == "mcd") {
    return MakeMcdDataset({.num_records = input.rows, .seed = input.seed});
  }
  if (input.generator == "hcd") {
    return MakeHcdDataset({.num_records = input.rows, .seed = input.seed});
  }
  if (input.generator == "adult") {
    return MakeAdultLike({.num_records = input.rows, .seed = input.seed});
  }
  // Validate() restricted the name, so this is the only one left.
  return MakePatientDischargeLike(
      {.num_records = input.rows, .seed = input.seed});
}

Result<Dataset> DrainSource(RecordSource* source) {
  constexpr size_t kBatch = 65536;
  Dataset out(source->schema());
  while (true) {
    TCM_ASSIGN_OR_RETURN(size_t got, source->ReadInto(&out, kBatch));
    if (got < kBatch) break;
  }
  return out;
}

// Logical payload bytes of one materialized row (8 per numeric cell, 4
// per dictionary code): the copy cost of turning columns into Records.
size_t RowPayloadBytes(const Schema& schema) {
  size_t width = 0;
  for (const Attribute& attr : schema.attributes()) {
    width += attr.is_categorical() ? sizeof(int32_t) : sizeof(double);
  }
  return width;
}

// A .tcmb file may carry roles of its own; when neither it nor the spec
// provides both role kinds the job cannot anonymize anything — fail as an
// invalid spec (exit 3 at the CLI) rather than deep inside the engine.
Status CheckTcmbRoles(const Schema& schema) {
  if (schema.QuasiIdentifierIndices().empty() ||
      schema.ConfidentialIndices().empty()) {
    return Status::InvalidSpec(
        ".tcmb input carries no quasi-identifier/confidential roles; set "
        "roles.quasi_identifiers and roles.confidential in the spec");
  }
  return Status::Ok();
}

// The load stage of in-memory and sweep jobs, traced as "load" and timed
// as load_seconds: materializes the job's input as an in-memory dataset
// with the spec's roles applied. To avoid copying a caller-provided
// dataset whose roles are already set (the common programmatic path),
// the result is a pointer: either into the spec or into *storage. .tcmb
// inputs record their map/copy accounting in `report`.
Result<const Dataset*> MaterializeDataset(const JobSpec& spec,
                                          Dataset* storage,
                                          RunReport* report) {
  WallTimer timer;
  TraceSpan span("load");
  switch (spec.input.kind) {
    case InputKind::kCsvPath: {
      if (spec.input.format == InputFormat::kTcmb) {
        TCM_ASSIGN_OR_RETURN(ColumnTable table, ReadTcmb(spec.input.path));
        report->input_mapped_bytes = table.mapped_bytes();
        report->input_copied_bytes =
            table.copied_bytes() +
            table.num_rows() * RowPayloadBytes(table.schema());
        *storage = table.ToDataset();
      } else {
        TCM_ASSIGN_OR_RETURN(*storage, ReadNumericCsv(spec.input.path));
      }
      break;
    }
    case InputKind::kSynthetic:
      *storage = MakeSyntheticDataset(spec.input);
      break;
    case InputKind::kDataset:
      if (spec.roles.quasi_identifiers.empty() &&
          spec.roles.confidential.empty()) {
        return spec.input.dataset;  // roles kept: nothing to load
      }
      *storage = *spec.input.dataset;
      break;
    case InputKind::kRecordSource: {
      TCM_ASSIGN_OR_RETURN(*storage, DrainSource(spec.input.source));
      break;
    }
  }
  if (!spec.roles.quasi_identifiers.empty() ||
      !spec.roles.confidential.empty()) {
    TCM_RETURN_IF_ERROR(AssignRoles(storage, spec.roles.quasi_identifiers,
                                    spec.roles.confidential));
  }
  if (spec.input.kind == InputKind::kCsvPath &&
      spec.input.format == InputFormat::kTcmb) {
    TCM_RETURN_IF_ERROR(CheckTcmbRoles(storage->schema()));
  }
  report->load_seconds = timer.ElapsedSeconds();
  return storage;
}

// Seed stride between windows; deliberately different from the per-shard
// stride inside ShardedAnonymize. Window 0 adds nothing, so an in-memory
// run and a stream that fits in one window both use algorithm.seed
// exactly — the byte-identity anchor between the two.
constexpr uint64_t kWindowSeedStride = 0xC2B2AE3D27D4EB4FULL;

// RunJob's executor for non-sweep jobs: every window goes through the
// shard fan-out (ShardedAnonymize), then the verify -> write tail, and
// its numbers land straight in the job's RunReport. An in-memory job is
// one window, its materialized input run without a copy; a streamed job
// is the sequence StreamWindows reads. Each released window
// independently satisfies k-anonymity and t-closeness, so their
// concatenation is k-anonymous, and t-close per window against the
// window distribution.
class WindowExecutor {
 public:
  WindowExecutor(const JobSpec& spec, ThreadPool* pool, RunReport* report)
      : spec_(spec), pool_(pool), report_(report) {
    report_->k_verified = spec.verify;  // stays true until a window fails
    report_->t_verified = spec.verify;
    report_->stage_seconds = {{"shard_seconds", 0.0},
                              {"shard_anonymize_seconds", 0.0},
                              {"merge_seconds", 0.0},
                              {"metrics_seconds", 0.0}};
  }

  // Anonymizes, verifies and writes one window, then folds its summary
  // into the report. An in-memory job's release moves into
  // report->release.
  Status RunWindow(const Dataset& window);

  // Closes the release writer and finalizes the aggregates.
  Status Finish();

 private:
  const JobSpec& spec_;
  ThreadPool* pool_;
  RunReport* report_;
  std::unique_ptr<StreamingCsvWriter> writer_;  // opened by the first window
};

Status WindowExecutor::RunWindow(const Dataset& window) {
  TraceSpan window_span("window");
  RunReport& report = *report_;
  const bool streaming = spec_.execution.mode == ExecutionMode::kStreaming;
  // Streamed errors name their window; an in-memory job has only one.
  const std::string context =
      streaming ? "window " + std::to_string(report.num_windows) + ": " : "";

  // Anonymize: the shard fan-out, seeded per window.
  ShardedAnonymizeOptions options;
  options.algorithm = spec_.algorithm.name;
  options.params.k = spec_.algorithm.k;
  options.params.t = spec_.algorithm.t;
  options.params.seed =
      spec_.algorithm.seed + kWindowSeedStride * report.num_windows;
  options.shard_size = spec_.execution.shard_size;
  options.merge_strategy = spec_.execution.merge_strategy;
  ShardedAnonymizeStats stats;
  WallTimer timer;
  auto result = ShardedAnonymize(window, options, pool_, &stats);
  if (!result.ok()) {
    return Status(result.status().code(),
                  context + result.status().message());
  }

  WindowSummary summary;
  summary.rows = window.NumRecords();
  summary.clusters = result->partition.NumClusters();
  summary.num_shards = stats.num_shards;
  summary.shard_size = spec_.execution.shard_size;
  summary.threads = pool_->num_threads();
  summary.final_merges = stats.final_merges;
  summary.min_cluster_size = result->min_cluster_size;
  summary.max_cluster_size = result->max_cluster_size;
  summary.max_cluster_emd = result->max_cluster_emd;
  summary.normalized_sse = result->normalized_sse;
  summary.anonymize_seconds = timer.ElapsedSeconds();
  report.anonymize_seconds += summary.anonymize_seconds;
  const double stages[] = {stats.shard_seconds, stats.anonymize_seconds,
                           stats.merge_seconds, stats.measure_seconds};
  for (size_t i = 0; i < std::size(stages); ++i) {
    report.stage_seconds[i].second += stages[i];
  }
  report.merge_subtrees += stats.merge_subtrees;
  report.subtree_merges += stats.subtree_merges;
  report.tail_merges += stats.tail_merges;
  report.candidate_checks += stats.candidate_checks;
  report.pruned_checks += stats.pruned_checks;
  report.exact_checks += stats.exact_checks;

  // Verify: independent re-check of both guarantees per window.
  if (spec_.verify) {
    TraceSpan span("verify");
    timer.Restart();
    TCM_ASSIGN_OR_RETURN(
        ReleaseVerification verification,
        CheckRelease(result->anonymized, spec_.algorithm.k,
                     spec_.algorithm.t));
    report.verify_seconds += timer.ElapsedSeconds();
    report.k_verified = report.k_verified && verification.k_anonymous;
    report.t_verified = report.t_verified && verification.t_close;
    if (!verification.ok()) {
      return PrivacyViolationError(verification, context);
    }
  }

  // Write: header once, then each window's release rows.
  if (!spec_.output.release_path.empty()) {
    TraceSpan span("write");
    timer.Restart();
    if (writer_ == nullptr) {
      TCM_ASSIGN_OR_RETURN(writer_,
                           StreamingCsvWriter::Open(spec_.output.release_path,
                                                    window.schema()));
    }
    TCM_RETURN_IF_ERROR(writer_->WriteRows(result->anonymized, pool_));
    report.write_seconds += timer.ElapsedSeconds();
  }
  if (!streaming) report.release = std::move(result->anonymized);

  // Aggregate metrics (normalized SSE accumulates row-weighted; Finish
  // divides).
  report.rows += summary.rows;
  report.clusters += summary.clusters;
  report.num_shards += summary.num_shards;
  report.final_merges += summary.final_merges;
  report.min_cluster_size =
      report.num_windows == 0
          ? summary.min_cluster_size
          : std::min(report.min_cluster_size, summary.min_cluster_size);
  report.max_cluster_size =
      std::max(report.max_cluster_size, summary.max_cluster_size);
  report.max_cluster_emd =
      std::max(report.max_cluster_emd, summary.max_cluster_emd);
  report.normalized_sse +=
      summary.normalized_sse * static_cast<double>(summary.rows);
  report.windows.push_back(summary);
  ++report.num_windows;
  return Status::Ok();
}

Status WindowExecutor::Finish() {
  RunReport& report = *report_;
  // A single window reports its own value: (sse * n) / n is not always
  // sse in floating point.
  report.normalized_sse =
      report.num_windows == 1
          ? report.windows.front().normalized_sse
          : report.normalized_sse / static_cast<double>(report.rows);
  // Partition::AverageClusterSize's formula, so one window matches the
  // algorithm's own figure bit for bit.
  report.average_cluster_size =
      report.clusters == 0 ? 0.0
                           : static_cast<double>(report.rows) /
                                 static_cast<double>(report.clusters);
  if (writer_ != nullptr) {
    WallTimer timer;
    TCM_RETURN_IF_ERROR(writer_->Close());
    report.write_seconds += timer.ElapsedSeconds();
  }
  return Status::Ok();
}

// The whole input as one window; the release stays in the report.
Status RunInMemoryJob(const JobSpec& spec, ThreadPool* pool,
                      RunReport* report) {
  Dataset storage;
  TCM_ASSIGN_OR_RETURN(const Dataset* data,
                       MaterializeDataset(spec, &storage, report));
  report->peak_resident_rows = data->NumRecords();
  WindowExecutor executor(spec, pool, report);
  TCM_RETURN_IF_ERROR(executor.RunWindow(*data));
  return executor.Finish();
}

// Drains `source` window by window under the max_resident_rows budget.
//
// Memory model. At most one window plus a k-row read-ahead is resident:
//   - a window is filled to max_resident_rows - k input rows;
//   - k more rows are read ahead to decide whether the stream continues;
//     if the stream ends inside the read-ahead, its rows (fewer than k,
//     too few to anonymize alone) join the current window.
// Resident input rows therefore never exceed max_resident_rows. (The
// anonymized copy of the current window roughly doubles the footprint
// while a window is in flight; the bound governs input rows.)
//
// overlap_io: while the current window runs on this thread, one
// prefetch task fills the next window on the pool. The window target is
// halved so current window + prefetch + read-ahead still fit the budget
// (JobSpec::Validate checks the doubled floor), so releases differ from
// the non-overlapped run of the same spec (different window boundaries)
// but stay deterministic for any thread count.
//
// Determinism. Window w derives its seed from algorithm.seed and w, and
// ShardedAnonymize is byte-identical for any thread count, so streamed
// releases are too. When the whole stream fits in one window
// (max_resident_rows >= rows + k), the release bytes equal the
// in-memory job's for the same spec, which the tests pin.
Status StreamWindows(RecordSource* source, const JobSpec& spec,
                     ThreadPool* pool, RunReport* report) {
  const Schema& schema = source->schema();
  if (schema.QuasiIdentifierIndices().empty()) {
    return Status::InvalidArgument("source schema has no quasi-identifiers");
  }
  if (schema.ConfidentialIndices().empty()) {
    return Status::InvalidArgument(
        "source schema has no confidential attribute");
  }
  const size_t read_ahead = spec.algorithm.k;
  const size_t budget = spec.execution.max_resident_rows - read_ahead;
  const size_t window_target =
      spec.execution.overlap_io ? budget / 2 : budget;

  // Reader state. Exactly one read_window call runs at a time — inline
  // in the sequential loop, or as the single outstanding prefetch task
  // in the overlapped one — so carry/exhausted need no lock: the
  // future's get() orders each prefetch before the next use.
  Dataset carry(schema);
  bool exhausted = false;

  // Assembles the next window: carried read-ahead rows first, then fill
  // from the stream, then read k rows ahead to learn whether this is the
  // final window.
  struct WindowRead {
    Status status = Status::Ok();
    Dataset window;
    bool final_window = false;
    size_t resident = 0;  // window + carry + still-processing rows
    double seconds = 0.0;
  };
  auto read_window = [&schema, &carry, &exhausted, source, window_target,
                      read_ahead](size_t processing_rows) {
    TraceSpan span("read");
    WallTimer read_timer;
    WindowRead read;
    read.window = Dataset(schema);
    auto fill = [&]() -> Status {
      for (size_t row = 0; row < carry.NumRecords(); ++row) {
        TCM_RETURN_IF_ERROR(read.window.Append(carry.record(row)));
      }
      carry = Dataset(schema);
      if (read.window.NumRecords() < window_target) {
        TCM_RETURN_IF_ERROR(
            source
                ->ReadInto(&read.window,
                           window_target - read.window.NumRecords())
                .status());
      }
      TCM_ASSIGN_OR_RETURN(size_t ahead,
                           source->ReadInto(&carry, read_ahead));
      if (ahead < read_ahead) {
        // Stream exhausted inside the read-ahead: its rows are too few
        // to anonymize alone, so they join this (final) window.
        for (size_t row = 0; row < carry.NumRecords(); ++row) {
          TCM_RETURN_IF_ERROR(read.window.Append(carry.record(row)));
        }
        carry = Dataset(schema);
        exhausted = true;
      }
      return Status::Ok();
    };
    read.status = fill();
    read.final_window = exhausted;
    read.resident = processing_rows + read.window.NumRecords() +
                    carry.NumRecords();
    read.seconds = read_timer.ElapsedSeconds();
    return read;
  };

  WindowExecutor executor(spec, pool, report);
  WindowRead current = read_window(0);
  for (;;) {
    TCM_RETURN_IF_ERROR(current.status);
    report->load_seconds += current.seconds;
    report->peak_resident_rows =
        std::max(report->peak_resident_rows, current.resident);
    if (current.window.empty()) break;
    Dataset window = std::move(current.window);

    // Overlap: kick off the next window's read/parse before this
    // window's anonymize/verify/write. The prefetch task exclusively
    // owns the reader state until its future is collected below.
    std::future<WindowRead> prefetch;
    const bool overlapped =
        spec.execution.overlap_io && !current.final_window;
    const bool was_final = current.final_window;
    if (overlapped) {
      const size_t processing_rows = window.NumRecords();
      prefetch = pool->Submit([&read_window, processing_rows]() {
        return read_window(processing_rows);
      });
      ++report->overlapped_reads;
    }

    const Status status = executor.RunWindow(window);
    // Collect the prefetch even when the window failed: it borrows this
    // frame's reader state.
    if (overlapped) current = prefetch.get();
    TCM_RETURN_IF_ERROR(status);
    if (!overlapped) {
      if (was_final) break;
      current = read_window(0);
    }
  }

  if (report->num_windows == 0) {
    return Status::InvalidArgument("stream produced no records");
  }
  return executor.Finish();
}

Status RunStreamingJob(const JobSpec& spec, ThreadPool* pool,
                       RunReport* report) {
  // Build the record source the spec names.
  std::unique_ptr<StreamingCsvReader> reader;
  std::unique_ptr<ColumnarSource> columnar;
  std::unique_ptr<SyntheticSource> synthetic;
  RecordSource* source = nullptr;
  switch (spec.input.kind) {
    case InputKind::kCsvPath: {
      if (spec.input.format == InputFormat::kTcmb) {
        TCM_ASSIGN_OR_RETURN(columnar, ColumnarSource::Open(spec.input.path));
        if (!spec.roles.quasi_identifiers.empty() ||
            !spec.roles.confidential.empty()) {
          TCM_ASSIGN_OR_RETURN(
              Schema schema,
              SchemaWithRoles(columnar->schema(),
                              spec.roles.quasi_identifiers,
                              spec.roles.confidential));
          TCM_RETURN_IF_ERROR(columnar->ReplaceSchema(std::move(schema)));
        }
        TCM_RETURN_IF_ERROR(CheckTcmbRoles(columnar->schema()));
        source = columnar.get();
        break;
      }
      TCM_ASSIGN_OR_RETURN(reader,
                           StreamingCsvReader::OpenNumeric(spec.input.path));
      TCM_ASSIGN_OR_RETURN(
          Schema schema,
          SchemaWithRoles(reader->schema(), spec.roles.quasi_identifiers,
                          spec.roles.confidential));
      TCM_RETURN_IF_ERROR(reader->ReplaceSchema(std::move(schema)));
      source = reader.get();
      break;
    }
    case InputKind::kSynthetic:
      if (spec.input.generator == "uniform") {
        synthetic = MakeUniformSource(
            spec.input.rows, spec.input.quasi_identifiers, spec.input.seed);
      } else {
        synthetic = MakeClusteredSource(spec.input.rows,
                                        spec.input.quasi_identifiers,
                                        spec.input.modes, spec.input.seed);
      }
      source = synthetic.get();
      break;
    case InputKind::kRecordSource:
      source = spec.input.source;
      break;
    case InputKind::kDataset:
      return Status::InvalidSpec(
          "streaming execution cannot read an in-memory dataset");
  }

  TCM_RETURN_IF_ERROR(StreamWindows(source, spec, pool, report));
  if (columnar != nullptr) {
    report->input_mapped_bytes = columnar->mapped_bytes();
    report->input_copied_bytes = columnar->copied_bytes();
  }
  return Status::Ok();
}

// Each cell of the cross product runs RunAlgorithm as its own pool task
// and fills its own outcome row; a failed cell records its error without
// affecting the others. Releases are dropped inside the task to keep
// sweep memory bounded.
Status RunSweepJob(const JobSpec& spec, ThreadPool* pool, RunReport* report) {
  Dataset storage;
  TCM_ASSIGN_OR_RETURN(const Dataset* data,
                       MaterializeDataset(spec, &storage, report));
  report->rows = data->NumRecords();

  const JobSweep& sweep = *spec.sweep;
  const std::vector<std::string> algorithms =
      sweep.algorithms.empty() ? std::vector<std::string>{spec.algorithm.name}
                               : sweep.algorithms;
  const std::vector<size_t> ks =
      sweep.ks.empty() ? std::vector<size_t>{spec.algorithm.k} : sweep.ks;
  const std::vector<double> ts =
      sweep.ts.empty() ? std::vector<double>{spec.algorithm.t} : sweep.ts;

  // All rows exist before the first task starts, so the tasks' row
  // references stay valid.
  report->sweep.reserve(algorithms.size() * ks.size() * ts.size());
  for (const std::string& algorithm : algorithms) {
    for (size_t k : ks) {
      for (double t : ts) {
        SweepOutcome cell;
        cell.label = algorithm + "/k=" + std::to_string(k) +
                     "/t=" + FormatDouble(t);
        cell.algorithm = algorithm;
        cell.k = k;
        cell.t = t;
        report->sweep.push_back(std::move(cell));
      }
    }
  }

  WallTimer timer;
  std::vector<std::future<void>> tasks;
  tasks.reserve(report->sweep.size());
  for (SweepOutcome& cell : report->sweep) {
    tasks.push_back(pool->Submit([&cell, data, seed = spec.algorithm.seed] {
      AlgorithmParams params;
      params.k = cell.k;
      params.t = cell.t;
      params.seed = seed;
      auto result = RunAlgorithm(*data, cell.algorithm, params);
      if (!result.ok()) {
        cell.error_code = StatusCodeName(result.status().code());
        cell.error = result.status().message();
        return;
      }
      cell.clusters = result->partition.NumClusters();
      cell.min_cluster_size = result->min_cluster_size;
      cell.max_cluster_size = result->max_cluster_size;
      cell.max_cluster_emd = result->max_cluster_emd;
      cell.normalized_sse = result->normalized_sse;
      cell.elapsed_seconds = result->elapsed_seconds;
    }));
  }
  // Every task borrows `data` and its row: let all of them finish before
  // get() can rethrow a task's exception and unwind this frame.
  for (std::future<void>& task : tasks) task.wait();
  for (std::future<void>& task : tasks) task.get();
  // Wall clock of the fan-out; each cell's own time is in its outcome
  // (their sum exceeds this when cells run concurrently).
  report->anonymize_seconds = timer.ElapsedSeconds();
  return Status::Ok();
}

}  // namespace

Result<RunReport> RunJob(const JobSpec& spec) {
  TCM_RETURN_IF_ERROR(spec.Validate());

  // Trace sink: collect spans for the duration of this job and export
  // them as Chrome trace-event JSON. The recorder is process-global, so
  // concurrent jobs (the serve daemon) share one trace when any of them
  // asks for it.
  std::optional<TraceSink> trace_sink;
  if (!spec.output.trace_path.empty()) {
    trace_sink.emplace(spec.output.trace_path);
  }

  WallTimer total;
  RunReport report;
  report.mode = spec.execution.mode;
  report.swept = spec.sweep.has_value();
  report.algorithm = spec.algorithm.name;
  report.k = spec.algorithm.k;
  report.t = spec.algorithm.t;
  report.seed = spec.algorithm.seed;
  report.merge_strategy = spec.execution.merge_strategy;
  report.overlap_io = spec.execution.overlap_io;
  report.input_format = spec.input.kind == InputKind::kCsvPath
                            ? InputFormatName(spec.input.format)
                            : InputKindName(spec.input.kind);
  report.verify_requested = spec.verify && !report.swept;
  if (!report.swept) report.release_path = spec.output.release_path;

  {
    TraceSpan job_span("job");
    // The job's one pool: shard fan-out, overlapped reads, pooled
    // release formatting and sweep cells all run on it.
    ThreadPool pool(spec.execution.threads);
    report.threads = pool.num_threads();
    if (report.swept) {
      TCM_RETURN_IF_ERROR(RunSweepJob(spec, &pool, &report));
    } else if (spec.execution.mode == ExecutionMode::kStreaming) {
      TCM_RETURN_IF_ERROR(RunStreamingJob(spec, &pool, &report));
    } else {
      TCM_RETURN_IF_ERROR(RunInMemoryJob(spec, &pool, &report));
    }
  }
  report.total_seconds = total.ElapsedSeconds();
  // A CSV input maps nothing and copies the whole file, in every mode.
  if (spec.input.kind == InputKind::kCsvPath &&
      spec.input.format == InputFormat::kCsv) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(spec.input.path, ec);
    report.input_copied_bytes = ec ? 0 : static_cast<size_t>(size);
  }

  if (!spec.output.report_path.empty()) {
    TCM_RETURN_IF_ERROR(
        WriteJsonFile(report.ToJson(), spec.output.report_path));
  }
  if (trace_sink.has_value()) {
    TCM_RETURN_IF_ERROR(trace_sink->Finish());
  }
  return report;
}

Result<RunReport> RunJob(const Dataset& data, JobSpec spec) {
  spec.input = JobInput{};
  spec.input.kind = InputKind::kDataset;
  spec.input.dataset = &data;
  return RunJob(spec);
}

Result<RunReport> RunJob(RecordSource* source, JobSpec spec) {
  spec.input = JobInput{};
  spec.input.kind = InputKind::kRecordSource;
  spec.input.source = source;
  return RunJob(spec);
}

Status VerifyRelease(const Dataset& release, size_t k, double t) {
  TCM_ASSIGN_OR_RETURN(ReleaseVerification verification,
                       CheckRelease(release, k, t));
  if (!verification.ok()) return PrivacyViolationError(verification);
  return Status::Ok();
}

}  // namespace tcm
