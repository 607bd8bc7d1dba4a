// Differential tests for the CSV release writer. WriteCsvRows formats
// fixed-size row blocks on a ThreadPool when given one and inline when
// not; the contract under test is that the bytes never depend on that
// choice or on the pool size, and that they equal an independent
// row-by-row oracle that prints numbers with FormatDouble(v, 17).

#include <cmath>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "data/csv.h"
#include "data/csv_stream.h"
#include "engine/thread_pool.h"

namespace tcm {
namespace {

// Labels that need RFC 4180 quoting next to plain ones.
const std::vector<std::string>& Labels() {
  static const std::vector<std::string> labels = {
      "plain", "with,comma", "with\"quote", "with\nnewline", "with\rcr",
      "\"\""};
  return labels;
}

Schema MixedSchema() {
  return Schema({Attribute{"x", AttributeType::kNumeric,
                           AttributeRole::kQuasiIdentifier, {}},
                 Attribute{"label, quoted", AttributeType::kNominal,
                           AttributeRole::kQuasiIdentifier, Labels()},
                 Attribute{"y", AttributeType::kNumeric,
                           AttributeRole::kConfidential, {}}});
}

// Doubles whose shortest 17-digit form exercises every to_chars branch:
// integers, fractions, exponents at both ends, signed zero, denormals.
double PickDouble(Rng* rng) {
  static const double kSpecial[] = {
      0.0,     -0.0,   1.0,     -1.0,   0.1,
      1e-300,  1e300,  123456789012345678.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest()};
  if (rng->NextBounded(4) == 0) {
    return kSpecial[rng->NextBounded(sizeof(kSpecial) / sizeof(double))];
  }
  return (rng->NextDouble() - 0.5) *
         std::pow(10.0, static_cast<double>(rng->NextBounded(40)) - 20.0);
}

Dataset MakeTable(size_t rows, uint64_t seed) {
  Dataset data(MixedSchema());
  Rng rng(seed);
  for (size_t row = 0; row < rows; ++row) {
    EXPECT_TRUE(data.Append({Value::Numeric(PickDouble(&rng)),
                             Value::Categorical(static_cast<int32_t>(
                                 rng.NextBounded(Labels().size()))),
                             Value::Numeric(PickDouble(&rng))})
                    .ok());
  }
  return data;
}

// Independent oracle: one row at a time, numbers through FormatDouble.
std::string OracleRows(const Dataset& data) {
  std::string out;
  for (size_t row = 0; row < data.NumRecords(); ++row) {
    for (size_t col = 0; col < data.NumAttributes(); ++col) {
      if (col > 0) out += ',';
      const Value& v = data.cell(row, col);
      if (v.is_numeric()) {
        out += FormatDouble(v.numeric(), 17);
        continue;
      }
      const std::string& label =
          data.schema().at(col).categories[static_cast<size_t>(
              v.category())];
      if (label.find_first_of(",\"\n\r") == std::string::npos) {
        out += label;
        continue;
      }
      out += '"';
      for (char c : label) {
        if (c == '"') out += '"';
        out += c;
      }
      out += '"';
    }
    out += '\n';
  }
  return out;
}

std::string RowsBytes(const Dataset& data, ThreadPool* pool) {
  std::ostringstream out;
  WriteCsvRows(data, out, pool);
  return out.str();
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// Asserts identical bytes from the inline path, the oracle, and pools of
// 1/2/4/8 threads.
void ExpectPoolInvariant(const Dataset& data) {
  const std::string inline_bytes = RowsBytes(data, nullptr);
  EXPECT_EQ(inline_bytes, OracleRows(data));
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(RowsBytes(data, &pool), inline_bytes)
        << data.NumRecords() << " rows, " << threads << " threads";
  }
}

TEST(CsvWriteTest, EmptyTableWritesNothing) {
  Dataset empty(MixedSchema());
  ExpectPoolInvariant(empty);
  EXPECT_EQ(RowsBytes(empty, nullptr), "");
}

TEST(CsvWriteTest, OneRowTable) { ExpectPoolInvariant(MakeTable(1, 1)); }

TEST(CsvWriteTest, RowCountOffTheBlockGrid) {
  // Several full blocks, then a partial one.
  ExpectPoolInvariant(MakeTable(3 * kCsvWriteBlockRows + 17, 2));
}

TEST(CsvWriteTest, BlockBoundaryRowCounts) {
  for (size_t rows : {kCsvWriteBlockRows - 1, kCsvWriteBlockRows,
                      kCsvWriteBlockRows + 1, 2 * kCsvWriteBlockRows}) {
    ExpectPoolInvariant(MakeTable(rows, rows));
  }
}

TEST(CsvWriteTest, MoreBlocksThanInFlight) {
  // 2 x threads blocks are in flight at most: a one-thread pool must
  // refill its two places many times over.
  ExpectPoolInvariant(MakeTable(9 * kCsvWriteBlockRows + 3, 3));
}

TEST(CsvWriteTest, QuotedLabelsRoundTrip) {
  Dataset data = MakeTable(2 * kCsvWriteBlockRows + 5, 4);
  ThreadPool pool(4);
  std::ostringstream text;
  std::string header;
  AppendCsvHeader(data.schema(), &header);
  text << header;
  WriteCsvRows(data, text, &pool);
  auto parsed = ParseCsvString(text.str(), data.schema());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(*parsed == data);
}

TEST(CsvWriteTest, WriteCsvWithPoolMatchesSerial) {
  Dataset data = MakeTable(kCsvWriteBlockRows * 2 + 100, 5);
  const std::string serial = ::testing::TempDir() + "/tcm_write_serial.csv";
  const std::string pooled = ::testing::TempDir() + "/tcm_write_pooled.csv";
  ThreadPool pool(4);
  ASSERT_TRUE(WriteCsv(data, serial).ok());
  ASSERT_TRUE(WriteCsv(data, pooled, &pool).ok());
  EXPECT_EQ(FileBytes(pooled), FileBytes(serial));
  EXPECT_EQ(FileBytes(serial), WriteCsvString(data));
}

TEST(CsvWriteTest, MultiWindowStreamingReleaseEqualsWriteCsv) {
  // Windows of uneven sizes, some empty, some spanning blocks.
  const std::vector<size_t> windows = {0, 1, kCsvWriteBlockRows + 5, 3, 0,
                                       2 * kCsvWriteBlockRows};
  Dataset all(MixedSchema());
  std::vector<Dataset> batches;
  for (size_t w = 0; w < windows.size(); ++w) {
    batches.push_back(MakeTable(windows[w], 100 + w));
    for (size_t row = 0; row < batches.back().NumRecords(); ++row) {
      ASSERT_TRUE(all.Append(batches.back().record(row)).ok());
    }
  }
  const std::string expected_path =
      ::testing::TempDir() + "/tcm_write_expected.csv";
  ASSERT_TRUE(WriteCsv(all, expected_path).ok());
  const std::string expected = FileBytes(expected_path);

  for (size_t threads : {0u, 1u, 4u}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    const std::string path = ::testing::TempDir() + "/tcm_write_stream_" +
                             std::to_string(threads) + ".csv";
    auto writer = StreamingCsvWriter::Open(path, all.schema());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const Dataset& batch : batches) {
      ASSERT_TRUE((*writer)->WriteRows(batch, pool.get()).ok());
    }
    ASSERT_TRUE((*writer)->Close().ok());
    EXPECT_EQ((*writer)->rows_written(), all.NumRecords());
    EXPECT_EQ(FileBytes(path), expected) << threads << " threads";
  }
}

TEST(CsvWriteTest, PoolSharedWithOtherWorkStillWritesInOrder) {
  // Unrelated tasks queued ahead of the formatting blocks are run (by
  // the workers or the assisting caller) without reordering the rows.
  Dataset data = MakeTable(5 * kCsvWriteBlockRows + 1, 6);
  ThreadPool pool(2);
  std::vector<std::future<int>> unrelated;
  for (int i = 0; i < 16; ++i) {
    unrelated.push_back(pool.Submit([i]() { return i * i; }));
  }
  EXPECT_EQ(RowsBytes(data, &pool), OracleRows(data));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(unrelated[i].get(), i * i);
}

}  // namespace
}  // namespace tcm
