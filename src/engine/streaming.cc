#include "engine/streaming.h"

#include <algorithm>
#include <future>
#include <memory>
#include <utility>

#include "common/timer.h"
#include "data/csv_stream.h"
#include "engine/pipeline.h"
#include "engine/registry.h"
#include "engine/sharded.h"
#include "obs/trace.h"

namespace tcm {
namespace {

// Seed stride between windows; deliberately different from the per-shard
// stride inside ShardedAnonymize. Window 0 adds nothing, so an in-memory
// run and a stream that fits in one window both use spec.seed exactly —
// the byte-identity anchor between the two.
constexpr uint64_t kWindowSeedStride = 0xC2B2AE3D27D4EB4FULL;

}  // namespace

// One Run call's state across its windows.
struct StreamingPipelineRunner::RunState {
  RunState(const StreamingSpec& run_spec, const WindowSink& run_sink,
           size_t threads)
      : spec(run_spec), sink(run_sink) {
    report.threads = threads;
    report.k_verified = spec.verify;  // stays true until a window fails
    report.t_verified = spec.verify;
  }

  const StreamingSpec& spec;
  const WindowSink& sink;
  std::unique_ptr<StreamingCsvWriter> writer;  // opened by the first window
  StreamingReport report;
  WallTimer total;
};

Result<StreamingReport> StreamingPipelineRunner::Run(
    RecordSource* source, const StreamingSpec& spec, const WindowSink& sink) {
  if (source == nullptr) {
    return Status::InvalidArgument("source must not be null");
  }
  // Fail on a bad algorithm name before consuming the (single-pass)
  // stream.
  if (!AlgorithmRegistry::BuiltIns().Contains(spec.algorithm)) {
    return AlgorithmRegistry::BuiltIns().Find(spec.algorithm).status();
  }
  const size_t read_ahead = spec.k;
  const size_t min_window = std::max<size_t>(spec.k, 2);
  // With overlap_io two windows are resident at once (the one being
  // processed and the one being prefetched), so each gets half the
  // budget left after the read-ahead.
  const size_t budget_floor =
      read_ahead + (spec.overlap_io ? 2 * min_window : min_window);
  if (spec.max_resident_rows < budget_floor) {
    return Status::InvalidArgument(
        "max_resident_rows (" + std::to_string(spec.max_resident_rows) +
        ") too small: need at least k + " +
        (spec.overlap_io ? std::string("2 * ") : std::string("")) +
        "max(k, 2) = " + std::to_string(budget_floor) + " rows for k = " +
        std::to_string(spec.k));
  }
  const Schema& schema = source->schema();
  if (schema.QuasiIdentifierIndices().empty()) {
    return Status::InvalidArgument("source schema has no quasi-identifiers");
  }
  if (schema.ConfidentialIndices().empty()) {
    return Status::InvalidArgument(
        "source schema has no confidential attribute");
  }

  const size_t window_target =
      spec.overlap_io ? (spec.max_resident_rows - read_ahead) / 2
                      : spec.max_resident_rows - read_ahead;

  // Reader state. Exactly one read_window call runs at a time — inline
  // in the sequential executor, or as the single outstanding prefetch
  // task in the overlapped one — so carry/exhausted need no lock: the
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

  RunState run(spec, sink, pool_.num_threads());
  StreamingReport& report = run.report;
  WindowRead current = read_window(0);
  for (;;) {
    TCM_RETURN_IF_ERROR(current.status);
    report.read_seconds += current.seconds;
    report.peak_resident_rows =
        std::max(report.peak_resident_rows, current.resident);
    if (current.window.empty()) break;
    Dataset window = std::move(current.window);

    // Overlap: kick off the next window's read/parse before this
    // window's anonymize/verify/write. The prefetch task exclusively
    // owns the reader state until its future is collected below.
    std::future<WindowRead> prefetch;
    const bool overlapped = spec.overlap_io && !current.final_window;
    const bool was_final = current.final_window;
    if (overlapped) {
      const size_t processing_rows = window.NumRecords();
      prefetch = pool_.Submit([&read_window, processing_rows]() {
        return read_window(processing_rows);
      });
      ++report.overlapped_reads;
    }

    const Status status = RunWindow(
        window, "window " + std::to_string(report.num_windows) + ": ", &run);
    // Collect the prefetch even when the window failed: it borrows this
    // frame's reader state.
    if (overlapped) current = prefetch.get();
    TCM_RETURN_IF_ERROR(status);
    if (!overlapped) {
      if (was_final) break;
      current = read_window(0);
    }
  }

  if (report.num_windows == 0) {
    return Status::InvalidArgument("stream produced no records");
  }
  return Finish(&run);
}

Result<StreamingReport> StreamingPipelineRunner::Run(
    const Dataset& data, const StreamingSpec& spec, const WindowSink& sink) {
  RunState run(spec, sink, pool_.num_threads());
  run.report.peak_resident_rows = data.NumRecords();
  TCM_RETURN_IF_ERROR(RunWindow(data, "", &run));
  return Finish(&run);
}

Status StreamingPipelineRunner::RunWindow(const Dataset& window,
                                          const std::string& context,
                                          RunState* run) {
  TraceSpan window_span("window");
  const StreamingSpec& spec = run->spec;
  StreamingReport& report = run->report;

  // Anonymize: the shard fan-out, seeded per window.
  ShardedAnonymizeOptions options;
  options.algorithm = spec.algorithm;
  options.params.k = spec.k;
  options.params.t = spec.t;
  options.params.seed = spec.seed + kWindowSeedStride * report.num_windows;
  options.shard_size = spec.shard_size;
  options.merge_strategy = spec.merge_strategy;
  ShardedAnonymizeStats stats;
  WallTimer timer;
  auto result = ShardedAnonymize(window, options, &pool_, &stats);
  if (!result.ok()) {
    return Status(result.status().code(),
                  context + result.status().message());
  }
  const double anonymize_seconds = timer.ElapsedSeconds();
  report.anonymize_seconds += anonymize_seconds;
  report.shard_seconds += stats.shard_seconds;
  report.shard_anonymize_seconds += stats.anonymize_seconds;
  report.merge_seconds += stats.merge_seconds;
  report.metrics_seconds += stats.measure_seconds;
  report.merge_subtrees += stats.merge_subtrees;
  report.subtree_merges += stats.subtree_merges;
  report.tail_merges += stats.tail_merges;
  report.candidate_checks += stats.candidate_checks;
  report.pruned_checks += stats.pruned_checks;
  report.exact_checks += stats.exact_checks;

  StreamingWindowSummary summary;
  summary.rows = window.NumRecords();
  summary.clusters = result->partition.NumClusters();
  summary.num_shards = stats.num_shards;
  summary.shard_size = spec.shard_size;
  summary.threads = pool_.num_threads();
  summary.final_merges = stats.final_merges;
  summary.min_cluster_size = result->min_cluster_size;
  summary.max_cluster_size = result->max_cluster_size;
  summary.max_cluster_emd = result->max_cluster_emd;
  summary.normalized_sse = result->normalized_sse;
  summary.anonymize_seconds = anonymize_seconds;

  // Verify: independent re-check of both guarantees per window.
  if (spec.verify) {
    TraceSpan span("verify");
    timer.Restart();
    TCM_ASSIGN_OR_RETURN(ReleaseVerification verification,
                         CheckRelease(result->anonymized, spec.k, spec.t));
    report.verify_seconds += timer.ElapsedSeconds();
    report.k_verified = report.k_verified && verification.k_anonymous;
    report.t_verified = report.t_verified && verification.t_close;
    if (!verification.ok()) {
      return PrivacyViolationError(verification, context);
    }
  }

  // Write: header once, then each window's release rows.
  if (!spec.output_path.empty()) {
    TraceSpan span("write");
    timer.Restart();
    if (run->writer == nullptr) {
      TCM_ASSIGN_OR_RETURN(
          run->writer,
          StreamingCsvWriter::Open(spec.output_path, window.schema()));
    }
    TCM_RETURN_IF_ERROR(run->writer->WriteRows(result->anonymized, &pool_));
    report.write_seconds += timer.ElapsedSeconds();
  }
  if (run->sink) {
    TCM_RETURN_IF_ERROR(run->sink(std::move(result->anonymized), summary));
  }

  // Aggregate metrics (normalized SSE accumulates row-weighted; Finish
  // divides).
  report.total_rows += summary.rows;
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

Result<StreamingReport> StreamingPipelineRunner::Finish(RunState* run) {
  StreamingReport& report = run->report;
  // A single window reports its own value: (sse * n) / n is not always
  // sse in floating point.
  report.normalized_sse =
      report.num_windows == 1
          ? report.windows.front().normalized_sse
          : report.normalized_sse / static_cast<double>(report.total_rows);
  if (run->writer != nullptr) {
    WallTimer timer;
    TCM_RETURN_IF_ERROR(run->writer->Close());
    report.write_seconds += timer.ElapsedSeconds();
  }
  report.total_seconds = run->total.ElapsedSeconds();
  return std::move(report);
}

}  // namespace tcm
