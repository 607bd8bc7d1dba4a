// Golden-release regression tests: the exact output bytes of the
// anonymization pipeline are pinned for a fixed seed/dataset/flag
// matrix, so a future refactor cannot silently change what gets
// released. The matrix mirrors tcm_anonymize invocations (the tool is a
// thin flag parser over the same JobSpec these tests hand to RunJob, and
// the CSV bytes it writes are exactly WriteCsvString of the release —
// additionally pinned binary-level by tools/anonymize_golden.cmake).
//
// Regenerating after an INTENTIONAL release-changing commit:
//   TCM_REGENERATE_GOLDEN=1 ./build/tests/golden_release_test
// then review the diff under tests/golden/ like any other code change.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/runner.h"
#include "data/csv.h"
#include "data/generator.h"
#include "data/record_source.h"

#ifndef TCM_GOLDEN_DIR
#error "TCM_GOLDEN_DIR must point at tests/golden"
#endif

namespace tcm {
namespace {

bool Regenerating() {
  const char* env = std::getenv("TCM_REGENERATE_GOLDEN");
  return env != nullptr && *env != '\0' && *env != '0';
}

std::string GoldenPath(const std::string& name) {
  return std::string(TCM_GOLDEN_DIR) + "/" + name;
}

void CompareWithGolden(const std::string& name, const std::string& bytes) {
  const std::string path = GoldenPath(name);
  if (Regenerating()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
    GTEST_LOG_(INFO) << "regenerated " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with TCM_REGENERATE_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), bytes)
      << "release bytes drifted from " << name
      << "; if intentional, regenerate with TCM_REGENERATE_GOLDEN=1 and "
         "review the diff";
}

Dataset GoldenInput() { return MakeMcdDataset({.num_records = 120, .seed = 7}); }

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// A job over the golden rows: in memory unless a test switches it to
// streaming.
JobSpec GoldenSpec(const char* algorithm, size_t k, double t) {
  JobSpec spec;
  spec.algorithm.name = algorithm;
  spec.algorithm.k = k;
  spec.algorithm.t = t;
  spec.algorithm.seed = 9;
  spec.execution.shard_size = 64;
  spec.execution.threads = 2;
  return spec;
}

// Runs `data` in memory (one window) and returns the release's CSV bytes.
Result<std::string> InMemoryRelease(const Dataset& data,
                                    const JobSpec& spec) {
  TCM_ASSIGN_OR_RETURN(RunReport report, RunJob(data, spec));
  return WriteCsvString(*report.release);
}

// The generator + CSV writer themselves are part of the pinned surface.
TEST(GoldenReleaseTest, InputDatasetBytesArePinned) {
  CompareWithGolden("input_mcd_120.csv", WriteCsvString(GoldenInput()));
}

// Flag matrix over the in-memory (single-window) run: every case runs
// sharded on a 2-thread pool (thread count provably cannot change the
// bytes; shard size 64 forces real fan-out + the global merge pass).
TEST(GoldenReleaseTest, ReleaseBytesArePinnedAcrossFlagMatrix) {
  struct Case {
    const char* algorithm;
    size_t k;
    double t;
  };
  const Case cases[] = {
      {"merge", 3, 0.2},        {"merge_chunked", 5, 0.2},
      {"kanon_first", 3, 0.25}, {"tclose_first", 5, 0.3},
      {"mondrian", 4, 0.3},     {"sabre", 4, 0.3},
  };
  Dataset data = GoldenInput();
  for (const Case& c : cases) {
    auto release = InMemoryRelease(data, GoldenSpec(c.algorithm, c.k, c.t));
    ASSERT_TRUE(release.ok()) << c.algorithm << ": "
                              << release.status().ToString();
    char name[128];
    std::snprintf(name, sizeof(name), "release_%s_k%zu_t%02d.csv",
                  c.algorithm, c.k, static_cast<int>(c.t * 100));
    CompareWithGolden(name, *release);
  }
}

// Streamed-vs-in-memory byte identity, pinned: the single-window
// streamed release must equal BOTH the in-memory release and the
// committed golden bytes.
TEST(GoldenReleaseTest, StreamedSingleWindowMatchesInMemoryGolden) {
  Dataset data = GoldenInput();
  JobSpec spec = GoldenSpec("tclose_first", 5, 0.3);
  auto mem_bytes = InMemoryRelease(data, spec);
  ASSERT_TRUE(mem_bytes.ok()) << mem_bytes.status().ToString();

  DatasetSource source(&data);
  spec.execution.mode = ExecutionMode::kStreaming;
  spec.execution.max_resident_rows = 4096;  // whole stream in one window
  spec.output.release_path =
      ::testing::TempDir() + "golden_streamed_single.csv";
  auto report = RunJob(&source, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->num_windows, 1u);
  const std::string streamed_bytes = ReadFileBytes(spec.output.release_path);
  EXPECT_EQ(streamed_bytes, *mem_bytes);
  CompareWithGolden("release_tclose_first_k5_t30.csv", streamed_bytes);
}

// A multi-window streamed release is pinned too: window composition and
// per-window seeds are part of the streaming contract.
TEST(GoldenReleaseTest, StreamedMultiWindowReleaseIsPinned) {
  auto source = MakeUniformSource(400, 2, 31);
  JobSpec spec = GoldenSpec("merge_chunked", 4, 0.25);
  spec.algorithm.seed = 13;
  spec.execution.mode = ExecutionMode::kStreaming;
  spec.execution.max_resident_rows = 150;
  spec.output.release_path =
      ::testing::TempDir() + "golden_streamed_multi.csv";
  auto report = RunJob(source.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->num_windows, 2u);
  CompareWithGolden("release_streamed_uniform400.csv",
                    ReadFileBytes(spec.output.release_path));
}

// Mixed-type (categorical) releases exercise label round-tripping in
// the pinned bytes.
TEST(GoldenReleaseTest, CategoricalReleaseBytesArePinned) {
  Dataset data = MakeAdultLike({.num_records = 90, .seed = 3});
  JobSpec spec = GoldenSpec("merge", 3, 0.3);
  spec.execution.shard_size = 0;
  spec.execution.threads = 1;
  auto release = InMemoryRelease(data, spec);
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  CompareWithGolden("release_adult_merge_k3_t30.csv", *release);
}

}  // namespace
}  // namespace tcm
