// Tests for the out-of-core streaming execution layer: RecordSource and
// its implementations, the streaming CSV reader/writer, and RunJob's
// streamed window loop. The load-bearing properties: (1) streamed and
// in-memory paths agree — a single-window streamed release is
// byte-identical to the in-memory job's release at any thread count;
// (2) resident input rows never exceed the max_resident_rows budget;
// (3) every released window independently re-verifies k-anonymous and
// t-close.

#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/runner.h"
#include "data/csv.h"
#include "data/csv_stream.h"
#include "data/generator.h"
#include "data/record_source.h"
#include "engine/pipeline.h"
#include "privacy/kanonymity.h"
#include "privacy/tcloseness.h"

namespace tcm {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << "cannot open " << path;
  std::string bytes;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.append(buffer, n);
  }
  std::fclose(file);
  return bytes;
}

// ---------------------------------------------------------- RecordSource

TEST(RecordSourceTest, DatasetSourceStreamsEveryRowInOrder) {
  Dataset data = MakeUniformDataset(257, 3, 11);
  DatasetSource source(&data);
  Dataset drained(source.schema());
  size_t batches = 0;
  while (true) {
    auto got = source.ReadInto(&drained, 100);
    ASSERT_TRUE(got.ok());
    if (*got == 0) break;
    EXPECT_LE(*got, 100u);
    ++batches;
  }
  EXPECT_EQ(batches, 3u);  // 100 + 100 + 57
  EXPECT_TRUE(drained == data);
}

TEST(RecordSourceTest, NextBatchReturnsBoundedBatches) {
  Dataset data = MakeUniformDataset(10, 2, 3);
  DatasetSource source(&data);
  auto batch = source.NextBatch(4);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->NumRecords(), 4u);
  batch = source.NextBatch(100);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->NumRecords(), 6u);
  batch = source.NextBatch(1);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

TEST(RecordSourceTest, UniformSourceMatchesBatchGeneratorRowForRow) {
  Dataset batch = MakeUniformDataset(503, 4, 77);
  auto source = MakeUniformSource(503, 4, 77);
  Dataset streamed(source->schema());
  ASSERT_TRUE(source->ReadInto(&streamed, 1000).ok());
  EXPECT_TRUE(streamed == batch);
}

TEST(RecordSourceTest, ClusteredSourceMatchesBatchGeneratorRowForRow) {
  Dataset batch = MakeClusteredDataset(211, 3, 5, 19);
  auto source = MakeClusteredSource(211, 3, 5, 19);
  // Drain in awkward batch sizes: chunking must not change the stream.
  Dataset streamed(source->schema());
  for (size_t want : {1u, 7u, 100u, 1000u}) {
    ASSERT_TRUE(source->ReadInto(&streamed, want).ok());
  }
  EXPECT_TRUE(streamed == batch);
}

// --------------------------------------------------- StreamingCsvReader

TEST(StreamingCsvReaderTest, StreamsFileInBatchesIdenticalToReadCsv) {
  Dataset data = MakeAdultLike({.num_records = 300, .seed = 5});
  const std::string path = TempPath("stream_reader_adult.csv");
  ASSERT_TRUE(WriteCsv(data, path).ok());

  auto whole = ReadCsv(path, data.schema());
  ASSERT_TRUE(whole.ok());

  StreamingCsvOptions options;
  options.buffer_bytes = 64;  // force many feed chunks
  auto reader = StreamingCsvReader::Open(path, data.schema(), options);
  ASSERT_TRUE(reader.ok());
  Dataset streamed((*reader)->schema());
  size_t batches = 0;
  while (true) {
    auto got = (*reader)->ReadInto(&streamed, 64);
    ASSERT_TRUE(got.ok());
    if (*got == 0) break;
    ++batches;
  }
  EXPECT_GE(batches, 5u);
  EXPECT_EQ((*reader)->rows_read(), 300u);
  EXPECT_TRUE(streamed == *whole);
  EXPECT_TRUE(streamed == data);
}

TEST(StreamingCsvReaderTest, OpenNumericInfersSchemaAndTakesRoles) {
  Dataset data = MakeUniformDataset(50, 2, 9);
  const std::string path = TempPath("stream_reader_numeric.csv");
  ASSERT_TRUE(WriteCsv(data, path).ok());

  auto reader = StreamingCsvReader::OpenNumeric(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->schema().size(), 3u);
  EXPECT_TRUE((*reader)->schema().QuasiIdentifierIndices().empty());

  auto roled = SchemaWithRoles((*reader)->schema(), {"QI0", "QI1"}, "CONF");
  ASSERT_TRUE(roled.ok());
  ASSERT_TRUE((*reader)->ReplaceSchema(std::move(roled).value()).ok());
  EXPECT_EQ((*reader)->schema().QuasiIdentifierIndices().size(), 2u);
  EXPECT_EQ((*reader)->schema().ConfidentialIndices().size(), 1u);

  // Roles don't change parsing: the rows still match.
  Dataset streamed((*reader)->schema());
  ASSERT_TRUE((*reader)->ReadInto(&streamed, 1000).ok());
  EXPECT_EQ(streamed.NumRecords(), 50u);
}

TEST(StreamingCsvReaderTest, ReplaceSchemaRejectsRenamesAndRetypes) {
  auto input = std::make_unique<std::istringstream>("a,b\n1,2\n");
  auto reader = StreamingCsvReader::FromStreamNumeric(std::move(input));
  ASSERT_TRUE(reader.ok());
  Schema renamed({Attribute{"a", AttributeType::kNumeric,
                            AttributeRole::kOther, {}},
                  Attribute{"c", AttributeType::kNumeric,
                            AttributeRole::kOther, {}}});
  EXPECT_FALSE((*reader)->ReplaceSchema(renamed).ok());
  Schema retyped({Attribute{"a", AttributeType::kNumeric,
                            AttributeRole::kOther, {}},
                  Attribute{"b", AttributeType::kNominal,
                            AttributeRole::kOther, {"x"}}});
  EXPECT_FALSE((*reader)->ReplaceSchema(retyped).ok());
  Schema wrong_size({Attribute{"a", AttributeType::kNumeric,
                               AttributeRole::kOther, {}}});
  EXPECT_FALSE((*reader)->ReplaceSchema(wrong_size).ok());
}

TEST(StreamingCsvReaderTest, ReplaceSchemaRejectsCategoryChanges) {
  Schema schema({Attribute{"cat", AttributeType::kNominal,
                           AttributeRole::kOther, {"red", "green"}}});
  auto input = std::make_unique<std::istringstream>("cat\nred\n");
  auto reader = StreamingCsvReader::FromStream(std::move(input), schema);
  ASSERT_TRUE(reader.ok());
  // Reordered labels would silently remap codes mid-stream: rejected.
  Schema reordered({Attribute{"cat", AttributeType::kNominal,
                              AttributeRole::kOther, {"green", "red"}}});
  EXPECT_FALSE((*reader)->ReplaceSchema(reordered).ok());
  // Role-only change is fine.
  Schema roled({Attribute{"cat", AttributeType::kNominal,
                          AttributeRole::kConfidential, {"red", "green"}}});
  EXPECT_TRUE((*reader)->ReplaceSchema(roled).ok());
}

// --------------------------------------------------- StreamingCsvWriter

TEST(StreamingCsvWriterTest, WindowedWritesMatchWriteCsvBytes) {
  Dataset data = MakeAdultLike({.num_records = 123, .seed = 31});
  const std::string whole_path = TempPath("writer_whole.csv");
  const std::string windowed_path = TempPath("writer_windowed.csv");
  ASSERT_TRUE(WriteCsv(data, whole_path).ok());

  auto writer = StreamingCsvWriter::Open(windowed_path, data.schema());
  ASSERT_TRUE(writer.ok());
  DatasetSource source(&data);
  while (true) {
    auto batch = source.NextBatch(40);
    ASSERT_TRUE(batch.ok());
    if (batch->empty()) break;
    ASSERT_TRUE((*writer)->WriteRows(*batch).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ((*writer)->rows_written(), 123u);
  EXPECT_EQ(ReadFileBytes(windowed_path), ReadFileBytes(whole_path));
}

// ------------------------------------------------- streamed RunJob windows

JobSpec BaseSpec() {
  JobSpec spec;
  spec.algorithm.name = "tclose_first";
  spec.algorithm.k = 4;
  spec.algorithm.t = 0.25;
  spec.algorithm.seed = 7;
  spec.execution.mode = ExecutionMode::kStreaming;
  spec.execution.shard_size = 256;
  spec.execution.max_resident_rows = 100000;
  return spec;
}

// The acceptance anchor: when the budget covers the whole stream, the
// streamed release bytes equal the in-memory job's — checked at two
// thread counts.
TEST(StreamingPipelineRunnerTest, SingleWindowByteIdenticalToInMemory) {
  Dataset data = MakeUniformDataset(1500, 3, 2016);
  const std::string input_path = TempPath("stream_identity_in.csv");
  ASSERT_TRUE(WriteCsv(data, input_path).ok());

  for (size_t threads : {1u, 4u}) {
    const std::string suffix = std::to_string(threads) + ".csv";
    JobSpec spec = BaseSpec();
    spec.input.path = input_path;
    spec.roles.quasi_identifiers = {"QI0", "QI1", "QI2"};
    spec.roles.confidential = "CONF";
    spec.execution.threads = threads;

    JobSpec mem_spec = spec;
    const std::string mem_path = TempPath("stream_identity_mem" + suffix);
    mem_spec.output.release_path = mem_path;
    mem_spec.execution.mode = ExecutionMode::kInMemory;
    ASSERT_TRUE(RunJob(mem_spec).ok());

    const std::string str_path = TempPath("stream_identity_str" + suffix);
    spec.output.release_path = str_path;
    auto report = RunJob(spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->num_windows, 1u);
    EXPECT_TRUE(report->k_verified);
    EXPECT_TRUE(report->t_verified);

    EXPECT_EQ(ReadFileBytes(str_path), ReadFileBytes(mem_path))
        << "streamed release differs from in-memory release at threads="
        << threads;
  }
}

TEST(StreamingPipelineRunnerTest, MultiWindowRespectsResidentBudget) {
  constexpr size_t kRows = 3000;
  constexpr size_t kBudget = 700;
  auto source = MakeUniformSource(kRows, 3, 42);
  JobSpec spec = BaseSpec();
  spec.execution.max_resident_rows = kBudget;
  spec.execution.threads = 2;
  const std::string out_path = TempPath("stream_multiwindow.csv");
  spec.output.release_path = out_path;

  auto report = RunJob(source.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->num_windows, 4u);
  EXPECT_EQ(report->rows, kRows);
  EXPECT_LE(report->peak_resident_rows, kBudget);
  EXPECT_TRUE(report->k_verified);
  EXPECT_TRUE(report->t_verified);
  size_t sum = 0;
  for (const WindowSummary& window : report->windows) {
    EXPECT_GE(window.rows, spec.algorithm.k);
    EXPECT_LE(window.rows, kBudget);
    sum += window.rows;
  }
  EXPECT_EQ(sum, kRows);

  // The concatenation of per-window k-anonymous releases is k-anonymous.
  auto release = ReadNumericCsv(out_path);
  ASSERT_TRUE(release.ok());
  EXPECT_EQ(release->NumRecords(), kRows);
  ASSERT_TRUE(AssignRoles(&*release, {"QI0", "QI1", "QI2"}, "CONF").ok());
  auto k_ok = IsKAnonymous(*release, spec.algorithm.k);
  ASSERT_TRUE(k_ok.ok());
  EXPECT_TRUE(*k_ok);
}

TEST(StreamingPipelineRunnerTest, MultiWindowReleaseIsThreadInvariant) {
  JobSpec spec = BaseSpec();
  spec.execution.max_resident_rows = 500;
  std::string reference;
  for (size_t threads : {1u, 4u}) {
    auto source = MakeUniformSource(1700, 2, 13);
    const std::string out_path =
        TempPath("stream_invariant_" + std::to_string(threads) + ".csv");
    spec.output.release_path = out_path;
    spec.execution.threads = threads;
    auto report = RunJob(source.get(), spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->num_windows, 1u);
    std::string bytes = ReadFileBytes(out_path);
    if (threads == 1) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference);
    }
  }
}

// Pipelined I/O: with overlap_io the reads of windows 2..N run on the
// pool while earlier windows are processed. The resident budget still
// holds (the window target is halved to leave room for the read-ahead),
// both guarantees verify, and the release stays byte-identical for any
// thread count — including one thread, where the "prefetch" is stolen
// back and run inline.
TEST(StreamingPipelineRunnerTest, OverlapIoStaysBoundedAndDeterministic) {
  constexpr size_t kRows = 3000;
  constexpr size_t kBudget = 700;
  JobSpec spec = BaseSpec();
  spec.execution.max_resident_rows = kBudget;
  spec.execution.overlap_io = true;
  std::string reference;
  for (size_t threads : {1u, 2u, 4u}) {
    auto source = MakeUniformSource(kRows, 3, 42);
    const std::string out_path =
        TempPath("stream_overlap_" + std::to_string(threads) + ".csv");
    spec.output.release_path = out_path;
    spec.execution.threads = threads;
    auto report = RunJob(source.get(), spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->rows, kRows);
    EXPECT_LE(report->peak_resident_rows, kBudget);
    EXPECT_GT(report->num_windows, 1u);
    EXPECT_GT(report->overlapped_reads, 0u);
    EXPECT_TRUE(report->k_verified);
    EXPECT_TRUE(report->t_verified);
    std::string bytes = ReadFileBytes(out_path);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << threads << " threads";
    }
  }

  // The legacy serial path is untouched: overlap off reports no
  // overlapped reads (and the existing byte-pinning tests above cover
  // its output).
  auto source = MakeUniformSource(kRows, 3, 42);
  JobSpec serial = BaseSpec();
  serial.execution.max_resident_rows = kBudget;
  serial.execution.threads = 2;
  auto report = RunJob(source.get(), serial);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->overlapped_reads, 0u);
}

// Hierarchical repair inside windows composes with streaming: verdicts
// hold per window and the merge ledger balances across the whole run.
TEST(StreamingPipelineRunnerTest, HierarchicalMergeComposesWithWindows) {
  auto source = MakeUniformSource(2400, 3, 21);
  JobSpec spec = BaseSpec();
  spec.execution.max_resident_rows = 800;
  spec.execution.shard_size = 120;
  spec.execution.merge_strategy = MergeStrategy::kHierarchical;
  spec.execution.threads = 2;
  auto report = RunJob(source.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->k_verified);
  EXPECT_TRUE(report->t_verified);
  EXPECT_EQ(report->candidate_checks,
            report->pruned_checks + report->exact_checks);
  EXPECT_EQ(report->subtree_merges + report->tail_merges,
            report->final_merges);
}

TEST(StreamingPipelineRunnerTest, TailSmallerThanKJoinsFinalWindow) {
  // 104-row budget with k=4 gives 100-row fill targets; 302 rows leave a
  // 2-row tail that cannot be anonymized alone and must join the last
  // window.
  auto source = MakeUniformSource(302, 2, 99);
  JobSpec spec = BaseSpec();
  spec.execution.max_resident_rows = 104;
  auto report = RunJob(source.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows, 302u);
  EXPECT_LE(report->peak_resident_rows, 104u);
  for (const WindowSummary& window : report->windows) {
    EXPECT_GE(window.rows, spec.algorithm.k);
  }
}

// Every window reaches the release file, in stream order: the file holds
// exactly the rows the per-window summaries account for.
TEST(StreamingPipelineRunnerTest, SinkSeesEveryWindowInOrder) {
  auto source = MakeUniformSource(900, 2, 55);
  JobSpec spec = BaseSpec();
  spec.execution.max_resident_rows = 300;
  spec.execution.threads = 2;
  spec.output.release_path = TempPath("stream_every_window.csv");
  auto report = RunJob(source.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  size_t window_rows = 0;
  for (const WindowSummary& window : report->windows) {
    EXPECT_GE(window.rows, spec.algorithm.k);
    window_rows += window.rows;
  }
  EXPECT_EQ(report->windows.size(), report->num_windows);
  EXPECT_EQ(window_rows, report->rows);
  auto release = ReadNumericCsv(spec.output.release_path);
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  EXPECT_EQ(release->NumRecords(), report->rows);
}

TEST(StreamingPipelineRunnerTest, RejectsBudgetSmallerThanKFloor) {
  auto source = MakeUniformSource(100, 2, 1);
  JobSpec spec = BaseSpec();
  spec.algorithm.k = 10;
  spec.execution.max_resident_rows = 15;  // < k + max(k, 2) = 20
  auto report = RunJob(source.get(), spec);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidSpec);
}

TEST(StreamingPipelineRunnerTest, RejectsUnknownAlgorithmBeforeReading) {
  auto source = MakeUniformSource(100, 2, 1);
  JobSpec spec = BaseSpec();
  spec.algorithm.name = "no_such_algorithm";
  auto report = RunJob(source.get(), spec);
  EXPECT_FALSE(report.ok());
  // Nothing was consumed: the stream still yields its first row.
  Dataset probe(source->schema());
  auto got = source->ReadInto(&probe, 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 1u);
}

TEST(StreamingPipelineRunnerTest, RejectsSchemaWithoutRoles) {
  Dataset data = MakeUniformDataset(50, 2, 3);
  const std::string path = TempPath("stream_no_roles.csv");
  ASSERT_TRUE(WriteCsv(data, path).ok());
  auto reader = StreamingCsvReader::OpenNumeric(path);  // roles all kOther
  ASSERT_TRUE(reader.ok());
  auto report = RunJob(reader->get(), BaseSpec());
  EXPECT_FALSE(report.ok());
}

TEST(StreamingPipelineRunnerTest, EmptyStreamIsAnError) {
  Dataset data(Schema({Attribute{"QI0", AttributeType::kNumeric,
                                 AttributeRole::kQuasiIdentifier, {}},
                       Attribute{"CONF", AttributeType::kNumeric,
                                 AttributeRole::kConfidential, {}}}));
  DatasetSource source(&data);
  auto report = RunJob(&source, BaseSpec());
  EXPECT_FALSE(report.ok());
}

// A uniform stream whose reads after the first window sleep, so the
// overlapped prefetch of window 1 is certainly still running when
// window 0 finishes.
class SlowAfterFirstWindowSource : public RecordSource {
 public:
  SlowAfterFirstWindowSource(size_t rows, uint64_t seed)
      : inner_(MakeUniformSource(rows, 2, seed)) {}

  const Schema& schema() const override { return inner_->schema(); }

  Result<size_t> ReadInto(Dataset* out, size_t max_rows) override {
    // Window 0 takes two reads: its fill and the k-row read-ahead.
    if (++reads_ > 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    return inner_->ReadInto(out, max_rows);
  }

 private:
  std::unique_ptr<SyntheticSource> inner_;
  size_t reads_ = 0;
};

// Window 0 fails (its release cannot be opened) while window 1's
// prefetch is in flight. The job must wait for the prefetch, which
// borrows the window loop's reader state, before it unwinds; the asan
// and tsan presets catch a use after return here.
TEST(StreamedJobTest, FailedWindowWaitsForInFlightPrefetch) {
  SlowAfterFirstWindowSource source(400, 5);
  JobSpec spec = BaseSpec();
  spec.execution.max_resident_rows = 120;
  spec.execution.overlap_io = true;
  spec.execution.shard_size = 0;  // window 0 never queues on the pool
  spec.execution.threads = 2;
  spec.output.release_path = TempPath("no_such_dir/nested/release.csv");
  auto report = RunJob(&source, spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIoError)
      << report.status().ToString();
}

}  // namespace
}  // namespace tcm
