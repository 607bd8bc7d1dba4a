// Adversarial and fuzz tests for the CSV layer. The contract under
// test: the in-memory parser (ParseCsvString / ReadCsv) and the
// streaming parser (StreamingCsvReader) share one tokenizer, so EVERY
// input — well-formed, malformed, or random bytes — gets the identical
// verdict from both paths, at every feed-chunk size.

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/csv.h"
#include "data/csv_stream.h"

namespace tcm {
namespace {

Schema TwoNumericColumns() {
  return Schema({Attribute{"a", AttributeType::kNumeric,
                           AttributeRole::kQuasiIdentifier, {}},
                 Attribute{"b", AttributeType::kNumeric,
                           AttributeRole::kConfidential, {}}});
}

Schema MixedColumns() {
  return Schema({Attribute{"num", AttributeType::kNumeric,
                           AttributeRole::kQuasiIdentifier, {}},
                 Attribute{"cat", AttributeType::kNominal,
                           AttributeRole::kConfidential,
                           {"red", "green", "blue", "with,comma",
                            "with\"quote", "with\nnewline"}}});
}

// Streams `text` through StreamingCsvReader with the given feed-chunk
// size, draining in small row batches.
Result<Dataset> ParseStreamed(const std::string& text, const Schema& schema,
                              size_t buffer_bytes) {
  StreamingCsvOptions options;
  options.buffer_bytes = buffer_bytes;
  auto reader = StreamingCsvReader::FromStream(
      std::make_unique<std::istringstream>(text), schema, options);
  TCM_RETURN_IF_ERROR(reader.status());
  Dataset out((*reader)->schema());
  while (true) {
    TCM_ASSIGN_OR_RETURN(size_t got, (*reader)->ReadInto(&out, 3));
    if (got == 0) break;
  }
  return out;
}

// The identical-verdict oracle: parse `text` with the in-memory path
// and the streaming path at several chunk sizes; all runs must agree on
// success, error message, and parsed rows. Returns the in-memory result
// for further assertions.
Result<Dataset> ParseBothWays(const std::string& text, const Schema& schema) {
  Result<Dataset> in_memory = ParseCsvString(text, schema);
  for (size_t buffer_bytes : {1u, 2u, 3u, 7u, 64u, 65536u}) {
    Result<Dataset> streamed = ParseStreamed(text, schema, buffer_bytes);
    EXPECT_EQ(in_memory.ok(), streamed.ok())
        << "verdict differs at chunk size " << buffer_bytes << " for input:\n"
        << text;
    if (in_memory.ok() && streamed.ok()) {
      EXPECT_TRUE(*in_memory == *streamed)
          << "parsed rows differ at chunk size " << buffer_bytes
          << " for input:\n"
          << text;
    } else if (!in_memory.ok() && !streamed.ok()) {
      EXPECT_EQ(in_memory.status().message(), streamed.status().message())
          << "error message differs at chunk size " << buffer_bytes;
    }
  }
  return in_memory;
}

// ------------------------------------------------------ well-formed CSV

TEST(CsvAdversarialTest, PlainRowsParse) {
  auto result = ParseBothWays("a,b\n1,2\n3.5,-4e2\n", TwoNumericColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRecords(), 2u);
  EXPECT_DOUBLE_EQ(result->cell(1, 1).numeric(), -400.0);
}

TEST(CsvAdversarialTest, CrlfLineEndings) {
  auto result = ParseBothWays("a,b\r\n1,2\r\n3,4\r\n", TwoNumericColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRecords(), 2u);
}

TEST(CsvAdversarialTest, MissingFinalNewline) {
  auto result = ParseBothWays("a,b\n1,2", TwoNumericColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRecords(), 1u);
}

TEST(CsvAdversarialTest, BlankLinesAreSkipped) {
  auto result =
      ParseBothWays("a,b\n\n1,2\n   \n\r\n3,4\n", TwoNumericColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRecords(), 2u);
}

TEST(CsvAdversarialTest, WhitespaceAroundFieldsIsStripped) {
  auto result = ParseBothWays("a,b\n  1 ,\t2 \n", TwoNumericColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->cell(0, 0).numeric(), 1.0);
  EXPECT_DOUBLE_EQ(result->cell(0, 1).numeric(), 2.0);
}

TEST(CsvAdversarialTest, QuotedFieldsWithEmbeddedDelimiters) {
  auto result =
      ParseBothWays("num,cat\n1,\"with,comma\"\n2,blue\n", MixedColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRecords(), 2u);
  EXPECT_EQ(result->cell(0, 1).category(), 3);
}

TEST(CsvAdversarialTest, QuotedFieldsWithEmbeddedNewlines) {
  auto result = ParseBothWays("num,cat\n1,\"with\nnewline\"\n2,red\n",
                              MixedColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRecords(), 2u);
  EXPECT_EQ(result->cell(0, 1).category(), 5);
}

TEST(CsvAdversarialTest, EscapedQuotesInsideQuotedField) {
  auto result = ParseBothWays("num,cat\n1,\"with\"\"quote\"\n",
                              MixedColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cell(0, 1).category(), 4);
}

TEST(CsvAdversarialTest, QuotedNumericFieldsParse) {
  auto result = ParseBothWays("a,b\n\"1\",\"2.5\"\n", TwoNumericColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->cell(0, 1).numeric(), 2.5);
}

TEST(CsvAdversarialTest, QuotedHeaderMatchesSchema) {
  auto result = ParseBothWays("\"a\",b\n1,2\n", TwoNumericColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRecords(), 1u);
}

TEST(CsvAdversarialTest, EmptyQuotedAndUnquotedFieldsAgree) {
  // Empty fields fail numeric parsing — identically on both paths.
  auto result = ParseBothWays("a,b\n1,\n", TwoNumericColumns());
  EXPECT_FALSE(result.ok());
  auto quoted = ParseBothWays("a,b\n1,\"\"\n", TwoNumericColumns());
  EXPECT_FALSE(quoted.ok());
}

TEST(CsvAdversarialTest, HugeFieldSpanningManyChunks) {
  // A single ~256 KiB quoted field crosses every buffer size used by
  // ParseBothWays.
  std::string huge(256 * 1024, 'x');
  Schema schema({Attribute{"num", AttributeType::kNumeric,
                           AttributeRole::kQuasiIdentifier, {}},
                 Attribute{"cat", AttributeType::kNominal,
                           AttributeRole::kConfidential,
                           {huge}}});
  std::string text = "num,cat\n1,\"" + huge + "\"\n";
  auto result = ParseBothWays(text, schema);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cell(0, 1).category(), 0);
}

TEST(CsvAdversarialTest, LoneCarriageReturnInsideFieldIsData) {
  // "1\r5" strips to "1\r5" (inner CR is not edge whitespace): not a
  // number, so both paths must reject it identically.
  auto result = ParseBothWays("a,b\n1\r5,2\n", TwoNumericColumns());
  EXPECT_FALSE(result.ok());
}

// ------------------------------------------------------- malformed CSV

TEST(CsvAdversarialTest, RaggedRowsAreRejected) {
  auto fewer = ParseBothWays("a,b\n1\n", TwoNumericColumns());
  EXPECT_FALSE(fewer.ok());
  auto more = ParseBothWays("a,b\n1,2,3\n", TwoNumericColumns());
  EXPECT_FALSE(more.ok());
}

TEST(CsvAdversarialTest, UnterminatedQuoteIsRejected) {
  auto result = ParseBothWays("a,b\n1,\"unclosed\n", TwoNumericColumns());
  EXPECT_FALSE(result.ok());
}

TEST(CsvAdversarialTest, StrayQuoteInsideUnquotedFieldIsRejected) {
  auto result = ParseBothWays("a,b\n1,2\"3\n", TwoNumericColumns());
  EXPECT_FALSE(result.ok());
}

TEST(CsvAdversarialTest, GarbageAfterClosingQuoteIsRejected) {
  auto result = ParseBothWays("a,b\n\"1\"x,2\n", TwoNumericColumns());
  EXPECT_FALSE(result.ok());
}

TEST(CsvAdversarialTest, UnknownCategoryIsRejected) {
  auto result = ParseBothWays("num,cat\n1,magenta\n", MixedColumns());
  EXPECT_FALSE(result.ok());
}

TEST(CsvAdversarialTest, NonNumericFieldIsRejected) {
  auto result = ParseBothWays("a,b\n1,zebra\n", TwoNumericColumns());
  EXPECT_FALSE(result.ok());
}

TEST(CsvAdversarialTest, HeaderMismatchesAreRejected) {
  EXPECT_FALSE(ParseBothWays("a,wrong\n1,2\n", TwoNumericColumns()).ok());
  EXPECT_FALSE(ParseBothWays("a\n1\n", TwoNumericColumns()).ok());
  EXPECT_FALSE(ParseBothWays("a,b,c\n1,2,3\n", TwoNumericColumns()).ok());
  EXPECT_FALSE(ParseBothWays("", TwoNumericColumns()).ok());
}

TEST(CsvAdversarialTest, ErrorsAfterValidRowsStillRejectTheWholeParse) {
  auto result =
      ParseBothWays("a,b\n1,2\n3,4\n5\n", TwoNumericColumns());
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 4"), std::string::npos)
      << result.status().message();
}

TEST(CsvAdversarialTest, ErrorLineNumbersCountPhysicalLines) {
  // The quoted field on line 2 spans two physical lines, so the ragged
  // row after it is line 4.
  auto result = ParseBothWays("num,cat\n1,\"with\nnewline\"\nbad\n",
                              MixedColumns());
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 4"), std::string::npos)
      << result.status().message();
}

// ------------------------------------------------- chunk boundaries

// The tokenizer copies runs of plain bytes in bulk and only steps
// through separators, quotes and line ends one at a time. These cases
// put the bytes where a run ends exactly on a chunk edge, at the 1-byte
// and 64 KiB feed sizes, and pin the error line numbers.

constexpr size_t kBigChunk = 64 * 1024;

// Header plus valid filler rows (`row`, space-padded on the last one)
// so that whatever is appended next starts at byte offset `at`.
std::string FillTo(size_t at, const std::string& header,
                   const std::string& row) {
  std::string text = header + "\n";
  const size_t step = row.size() + 1;
  while (at - text.size() > 2 * step) text += row + "\n";
  text += row + std::string(at - text.size() - step, ' ') + "\n";
  EXPECT_EQ(text.size(), at);
  return text;
}

// Physical line on which the byte at text.size() sits.
size_t NextLine(const std::string& text) {
  return 1 + static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
}

// Parses at the 1-byte and 64 KiB feed sizes (and every size of
// ParseBothWays); all must agree. Returns the in-memory result.
Result<Dataset> ParseAtChunkEdges(const std::string& text,
                                  const Schema& schema) {
  Result<Dataset> expected = ParseBothWays(text, schema);
  for (size_t buffer_bytes : {size_t{1}, kBigChunk}) {
    Result<Dataset> streamed = ParseStreamed(text, schema, buffer_bytes);
    EXPECT_EQ(expected.ok(), streamed.ok()) << buffer_bytes;
    if (expected.ok() && streamed.ok()) {
      EXPECT_TRUE(*expected == *streamed) << buffer_bytes;
    } else if (!expected.ok() && !streamed.ok()) {
      EXPECT_EQ(expected.status().message(), streamed.status().message());
    }
  }
  return expected;
}

TEST(CsvAdversarialTest, CrlfSplitAcrossChunkEdge) {
  // "3,4\r" ends the first 64 KiB chunk; its LF opens the second.
  std::string text = FillTo(kBigChunk - 4, "a,b", "1,2");
  const size_t rows_before = NextLine(text) - 2;
  text += "3,4\r\n5,6\n";
  ASSERT_EQ(text[kBigChunk - 1], '\r');
  auto result = ParseAtChunkEdges(text, TwoNumericColumns());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->NumRecords(), rows_before + 2);
  EXPECT_DOUBLE_EQ(result->cell(rows_before, 1).numeric(), 4.0);
  EXPECT_DOUBLE_EQ(result->cell(rows_before + 1, 0).numeric(), 5.0);
}

TEST(CsvAdversarialTest, LoneCrAtChunkEdgeIsFieldData) {
  // The CR ends the chunk and is followed by data, not LF: it joins the
  // field, which then fails to parse on the line it began.
  std::string text = FillTo(kBigChunk - 4, "a,b", "1,2");
  const size_t line = NextLine(text);
  text += "3,4\r5\n";
  ASSERT_EQ(text[kBigChunk - 1], '\r');
  auto result = ParseAtChunkEdges(text, TwoNumericColumns());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(),
            "line " + std::to_string(line) + ": cannot parse '4\r5' as a " +
                "number for attribute 'b'");
}

TEST(CsvAdversarialTest, CrAfterClosingQuoteAtChunkEdge) {
  std::string text = FillTo(kBigChunk - 6, "a,b", "1,2");
  const size_t rows_before = NextLine(text) - 2;
  text += "3,\"4\"\r\n5,6\n";
  ASSERT_EQ(text[kBigChunk - 1], '\r');
  auto ok = ParseAtChunkEdges(text, TwoNumericColumns());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->NumRecords(), rows_before + 2);

  // CR after a closing quote followed by garbage: the error names the
  // line the tokenizer stands on.
  std::string bad = FillTo(kBigChunk - 6, "a,b", "1,2");
  const size_t line = NextLine(bad);
  bad += "3,\"4\"\rx\n";
  ASSERT_EQ(bad[kBigChunk - 1], '\r');
  auto result = ParseAtChunkEdges(bad, TwoNumericColumns());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(),
            "line " + std::to_string(line) +
                ": unexpected character after closing quote");
}

TEST(CsvAdversarialTest, ClosingQuoteAtChunkEdge) {
  // The closing quote is the last byte of the chunk; the comma, record
  // end or escape that decides its meaning arrives in the next one.
  std::string text = FillTo(kBigChunk - 3, "a,b", "1,2");
  const size_t rows_before = NextLine(text) - 2;
  text += "\"3\",4\n";
  ASSERT_EQ(text[kBigChunk - 1], '"');
  auto result = ParseAtChunkEdges(text, TwoNumericColumns());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->cell(rows_before, 0).numeric(), 3.0);

  std::string escaped = FillTo(kBigChunk - 8, "num,cat", "1,red");
  const size_t escaped_rows = NextLine(escaped) - 2;
  escaped += "2,\"with\"\"quote\"\n";
  ASSERT_EQ(escaped[kBigChunk - 1], '"');
  auto quoted = ParseAtChunkEdges(escaped, MixedColumns());
  ASSERT_TRUE(quoted.ok()) << quoted.status().ToString();
  EXPECT_EQ(quoted->cell(escaped_rows, 1).category(), 4);

  std::string bad = FillTo(kBigChunk - 3, "a,b", "1,2");
  const size_t line = NextLine(bad);
  bad += "\"3\"x,4\n";
  ASSERT_EQ(bad[kBigChunk - 1], '"');
  auto rejected = ParseAtChunkEdges(bad, TwoNumericColumns());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().message(),
            "line " + std::to_string(line) +
                ": unexpected character after closing quote");
}

TEST(CsvAdversarialTest, FieldsSpanningChunkEdge) {
  // An unquoted number and a quoted multi-line label both straddle the
  // 64 KiB edge; a ragged row after them reports its physical line.
  std::string text = FillTo(kBigChunk - 4, "num,cat", "1,red");
  const size_t rows_before = NextLine(text) - 2;
  text += "123456.75,blue\n7,\"with";
  ASSERT_LT(text.size(), 2 * kBigChunk);
  text += std::string(2 * kBigChunk - text.size() - 2, 'x');
  // Pad the label so the embedded newline sits on the second edge.
  const std::string label = text.substr(text.rfind('"') + 1) + "\nnewline";
  text += "\nnewline\"\n";
  ASSERT_EQ(text[2 * kBigChunk - 2], '\n');
  const size_t ragged_line = NextLine(text);
  text += "bad\n";

  Schema schema({Attribute{"num", AttributeType::kNumeric,
                           AttributeRole::kQuasiIdentifier, {}},
                 Attribute{"cat", AttributeType::kNominal,
                           AttributeRole::kConfidential,
                           {"red", "blue", label}}});
  auto rejected = ParseAtChunkEdges(text, schema);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().message(),
            "line " + std::to_string(ragged_line) + " has 1 fields");

  text.resize(text.size() - 4);  // drop the ragged row
  auto result = ParseAtChunkEdges(text, schema);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->NumRecords(), rows_before + 2);
  EXPECT_DOUBLE_EQ(result->cell(rows_before, 0).numeric(), 123456.75);
  EXPECT_EQ(result->cell(rows_before + 1, 1).category(), 2);
}

// --------------------------------------------------------------- fuzz

// Random byte soup over a CSV-hostile alphabet: both parsers must agree
// on every input at every chunk size (and crash on none).
TEST(CsvAdversarialTest, FuzzedInputsGetIdenticalVerdicts) {
  const char alphabet[] = {',', '"', '\n', '\r', '1', '2', '.',  '-',
                           ' ', 'a', '\t', '"',  ',', '\n', 'e', '0'};
  Rng rng(20160713);
  size_t accepted = 0;
  for (int round = 0; round < 300; ++round) {
    std::string text = "a,b\n";  // valid header, hostile body
    size_t length = 1 + rng.NextBounded(120);
    for (size_t i = 0; i < length; ++i) {
      text.push_back(alphabet[rng.NextBounded(sizeof(alphabet))]);
    }
    auto result = ParseBothWays(text, TwoNumericColumns());
    if (result.ok()) ++accepted;
  }
  // The oracle is the agreement; still, some inputs should parse.
  EXPECT_GT(accepted, 0u);
}

// Structured fuzz: generate VALID quoted CSV from random field content,
// write it, and require both parsers to recover the exact fields.
TEST(CsvAdversarialTest, RoundTripFuzzOverQuotedContent) {
  Rng rng(424242);
  const char content_alphabet[] = {'x', 'y', ',', '"', '\n', ' ', '9'};
  for (int round = 0; round < 120; ++round) {
    // Two categorical columns whose labels are random byte strings.
    std::vector<std::string> labels;
    for (int i = 0; i < 4; ++i) {
      std::string label;
      size_t length = 1 + rng.NextBounded(12);
      for (size_t j = 0; j < length; ++j) {
        label.push_back(content_alphabet[
            rng.NextBounded(sizeof(content_alphabet))]);
      }
      // Labels are matched after whitespace stripping; keep them
      // strip-stable and distinct.
      label = "L" + std::to_string(i) + label + "E";
      labels.push_back(label);
    }
    Schema schema({Attribute{"num", AttributeType::kNumeric,
                             AttributeRole::kQuasiIdentifier, {}},
                   Attribute{"cat", AttributeType::kNominal,
                             AttributeRole::kConfidential, labels}});
    Dataset data(schema);
    for (int row = 0; row < 5; ++row) {
      ASSERT_TRUE(
          data.Append({Value::Numeric(static_cast<double>(row)),
                       Value::Categorical(static_cast<int32_t>(
                           rng.NextBounded(labels.size())))})
              .ok());
    }
    std::string text = WriteCsvString(data);
    auto result = ParseBothWays(text, schema);
    ASSERT_TRUE(result.ok()) << "round " << round << " input:\n" << text;
    EXPECT_TRUE(*result == data) << "round " << round;
  }
}

}  // namespace
}  // namespace tcm
