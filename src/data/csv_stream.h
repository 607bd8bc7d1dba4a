#ifndef TCM_DATA_CSV_STREAM_H_
#define TCM_DATA_CSV_STREAM_H_

#include <fstream>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/record_source.h"

namespace tcm {

class ThreadPool;

// Incremental CSV plumbing shared by the in-memory reader (csv.h) and
// the streaming reader below. Both paths tokenize, validate and convert
// with exactly this code, so every input — well-formed or adversarial —
// receives the same verdict whether it is parsed from a string or
// streamed from a file in fixed-size chunks.
//
// Dialect: RFC 4180 with pragmatic relaxations.
//   - Records end at LF or CRLF; the final record may omit the newline.
//   - A field starting with '"' is quoted: it may contain commas,
//     newlines and doubled quotes ("" -> "); the closing quote must be
//     followed by a comma, a record end, or end of input.
//   - A '"' inside an unquoted field, a closing quote followed by other
//     characters, and an unterminated quote at end of input are errors.
//   - A lone CR inside an unquoted field is kept as data (field-level
//     whitespace stripping later removes it at field edges).
//   - Records consisting of a single whitespace-only field (blank lines)
//     are skipped by the readers, matching the line-based parser.

// Push tokenizer: Feed() raw bytes in any chunking, call Finish() at end
// of input, pull complete records with Next(). The chunking never
// changes the token stream or the verdict (fuzzed in tests).
//
// Runs of plain bytes (anything but , " CR LF, and anything but " inside
// a quoted field) are copied in bulk; the per-byte state machine only
// sees the separators, quotes and line ends. Field bytes live in one
// reused arena, so a record costs no allocation once the arena is warm.
class CsvTokenizer {
 public:
  // Feeds the next chunk. Complete records become available via Next();
  // a malformed construct poisons the tokenizer after the records that
  // precede it.
  void Feed(std::string_view chunk);

  // Marks end of input, flushing a trailing record without a newline.
  // IoError if the input ends inside a quoted field.
  void Finish();

  // Pulls the next complete record into *fields. Returns true when one
  // was produced, false when more input is needed (or, after Finish(),
  // when the input is exhausted). Records queued before a malformed
  // construct are returned first; then the error. The views point into
  // the tokenizer's arena and stay valid until the next Feed() or
  // Finish().
  Result<bool> Next(std::vector<std::string_view>* fields);

  // 1-based physical line on which the record returned by the last
  // successful Next() began (quoted fields may span lines).
  size_t record_line() const { return last_record_line_; }

 private:
  enum class State {
    kRecordStart,  // nothing of the current record seen yet
    kFieldStart,   // just after a comma
    kUnquoted,     // inside an unquoted field
    kQuoted,       // inside a quoted field
    kQuoteSeen,    // saw '"' inside a quoted field: escape or close
  };

  // A complete record: fields [first_field, end_field) of field_ends_.
  struct ReadyRecord {
    size_t first_field = 0;
    size_t end_field = 0;
    size_t line = 0;
  };

  void Consume(char c);
  void EndField();
  void EndRecord();
  void Fail(const std::string& message);
  // Drops the bytes of records already handed out by Next(), keeping
  // only the record in progress.
  void Compact();

  State state_ = State::kRecordStart;
  bool pending_cr_ = false;   // saw CR, waiting to see if LF follows
  bool finished_ = false;
  // Bytes of every queued field back to back, then the field in
  // progress; field_ends_ holds the arena offset one past each
  // completed field.
  std::string arena_;
  std::vector<size_t> field_ends_;
  std::vector<ReadyRecord> ready_;
  size_t next_ready_ = 0;    // first record of ready_ not yet returned
  size_t record_first_ = 0;  // field_ends_ index where the open record starts
  Status error_ = Status::Ok();
  size_t line_ = 1;               // current physical line
  size_t record_start_line_ = 1;  // line the in-progress record began on
  size_t last_record_line_ = 1;
};

// --- Shared record-level helpers (used by both readers) ---

// True for a blank-line record: a single field that strips to empty.
bool IsBlankCsvRecord(const std::vector<std::string_view>& fields);

// Validates a header record against `schema`: same column count, names
// match in order after whitespace stripping.
Status ValidateCsvHeader(const std::vector<std::string_view>& fields,
                         const Schema& schema);

// Builds the all-numeric, role-kOther schema ReadNumericCsv infers from
// a header record.
Schema NumericSchemaFromHeader(const std::vector<std::string_view>& fields);

// Label -> code lookup for every categorical attribute of a schema,
// built once per reader so converting a cell is one hash probe instead
// of a scan over the category list. A label listed twice maps to its
// first code, as the scan did.
class CsvCategoryIndex {
 public:
  CsvCategoryIndex() = default;
  explicit CsvCategoryIndex(const Schema& schema);

  // Code of `label` in categorical attribute `col`, or -1 when unknown.
  int32_t Find(size_t col, std::string_view label) const;

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };
  using LabelMap =
      std::unordered_map<std::string, int32_t, Hash, std::equal_to<>>;
  std::vector<LabelMap> columns_;  // empty map for numeric attributes
};

// Converts one CSV record into a schema-validated Record. `line` is the
// physical line the record began on, used in error messages. Fields are
// whitespace-stripped before interpretation; categorical fields must be
// known labels (looked up in `categories`, built from `schema`),
// numeric fields must parse as doubles.
Result<Record> CsvFieldsToRecord(const std::vector<std::string_view>& fields,
                                 const Schema& schema,
                                 const CsvCategoryIndex& categories,
                                 size_t line);

// --- Shared formatting (used by WriteCsv and StreamingCsvWriter) ---

// Appends the header line (attribute names + '\n'). Names containing
// separators or quotes are RFC 4180-quoted.
void AppendCsvHeader(const Schema& schema, std::string* out);

// Appends one data row + '\n'. Numeric cells print with 17 significant
// digits (doubles round-trip exactly); categorical cells print their
// label, quoted when it contains separators or quotes.
void AppendCsvRow(const Dataset& data, size_t row, std::string* out);

// Rows per formatting block of WriteCsvRows: a ~48k-row streaming window
// still splits into several blocks per pool thread.
inline constexpr size_t kCsvWriteBlockRows = 1024;

// Writes every row of `data` (no header) to `out` — the one row-emission
// routine behind WriteCsv and StreamingCsvWriter, so their bytes cannot
// drift apart. Rows are formatted in blocks of kCsvWriteBlockRows. With
// a pool, blocks are formatted on it (the caller helps through
// ThreadPool::TryRunOneTask) and written in row order, with at most
// 2 x threads blocks in flight; without one they are formatted inline.
// The bytes do not depend on the pool or its size.
void WriteCsvRows(const Dataset& data, std::ostream& out,
                  ThreadPool* pool = nullptr);

// --- Streaming reader / writer ---

struct StreamingCsvOptions {
  // Bytes read from the input per I/O call; the reader never holds more
  // than one chunk plus the records of the batch being built.
  size_t buffer_bytes = 1 << 16;
};

// Pull-based CSV record stream over a file (or any istream): the
// streaming counterpart of ReadCsv/ReadNumericCsv. The header is parsed
// at open; ReadInto() then yields records batch by batch without ever
// buffering the whole file.
class StreamingCsvReader : public RecordSource {
 public:
  // Opens `path`; the header must match `schema` (same error messages as
  // ReadCsv).
  static Result<std::unique_ptr<StreamingCsvReader>> Open(
      const std::string& path, const Schema& schema,
      const StreamingCsvOptions& options = {});

  // Opens `path`, inferring an all-numeric schema from the header (the
  // streaming counterpart of ReadNumericCsv).
  static Result<std::unique_ptr<StreamingCsvReader>> OpenNumeric(
      const std::string& path, const StreamingCsvOptions& options = {});

  // In-memory/test variants over an owned istream.
  static Result<std::unique_ptr<StreamingCsvReader>> FromStream(
      std::unique_ptr<std::istream> input, const Schema& schema,
      const StreamingCsvOptions& options = {});
  static Result<std::unique_ptr<StreamingCsvReader>> FromStreamNumeric(
      std::unique_ptr<std::istream> input,
      const StreamingCsvOptions& options = {});

  const Schema& schema() const override { return schema_; }

  // Replaces the schema (e.g. to assign roles after OpenNumeric). The
  // attribute names and types must be unchanged.
  Status ReplaceSchema(Schema schema);

  // RecordSource: appends up to max_rows records; a short count means
  // end of file. Parse errors carry the same messages as ReadCsv.
  Result<size_t> ReadInto(Dataset* out, size_t max_rows) override;

  // Records emitted so far (header excluded).
  size_t rows_read() const { return rows_read_; }

 private:
  StreamingCsvReader(std::unique_ptr<std::istream> input, Schema schema,
                     const StreamingCsvOptions& options)
      : input_(std::move(input)),
        schema_(std::move(schema)),
        options_(options) {}

  static Result<std::unique_ptr<StreamingCsvReader>> Make(
      std::unique_ptr<std::istream> input, const Schema* schema,
      const StreamingCsvOptions& options);

  // Pulls the next record from the tokenizer, feeding chunks as needed.
  // Returns false at end of input.
  Result<bool> NextRecord(std::vector<std::string_view>* fields);

  std::unique_ptr<std::istream> input_;
  Schema schema_;
  StreamingCsvOptions options_;
  CsvTokenizer tokenizer_;
  CsvCategoryIndex categories_;
  std::vector<char> chunk_;
  bool input_done_ = false;
  size_t rows_read_ = 0;
};

// Append-as-you-go CSV writer: the write tail of the streaming pipeline.
// Writes the header at Open, then rows batch by batch; the bytes are
// identical to WriteCsv of the concatenated batches.
class StreamingCsvWriter {
 public:
  static Result<std::unique_ptr<StreamingCsvWriter>> Open(
      const std::string& path, const Schema& schema);

  // Appends every row of `batch` (whose schema must have the same names
  // and types as the writer's), formatting on `pool` when given (see
  // WriteCsvRows).
  Status WriteRows(const Dataset& batch, ThreadPool* pool = nullptr);

  // Flushes and checks the stream; further writes are invalid.
  Status Close();

  size_t rows_written() const { return rows_written_; }

 private:
  StreamingCsvWriter(std::ofstream file, const std::string& path)
      : file_(std::move(file)), path_(path) {}

  std::ofstream file_;
  std::string path_;
  size_t rows_written_ = 0;
};

}  // namespace tcm

#endif  // TCM_DATA_CSV_STREAM_H_
