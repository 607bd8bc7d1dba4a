#include "data/csv_stream.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <istream>
#include <utility>

#include "common/strings.h"
#include "engine/thread_pool.h"

namespace tcm {

// --- CsvTokenizer ---

namespace {

// Bytes that end a run of unquoted field data.
constexpr std::array<bool, 256> kUnquotedStop = [] {
  std::array<bool, 256> stop{};
  for (unsigned char c : {',', '"', '\r', '\n'}) stop[c] = true;
  return stop;
}();

}  // namespace

void CsvTokenizer::Feed(std::string_view chunk) {
  if (finished_ || !error_.ok()) return;
  Compact();
  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  while (p < end) {
    // Bulk paths: copy a run of plain field bytes at once, then hand the
    // byte that stopped it to the state machine. A pending CR or a
    // closing quote needs the state machine for its very next byte.
    if (!pending_cr_ && state_ == State::kQuoted) {
      const void* quote = std::memchr(p, '"', static_cast<size_t>(end - p));
      const char* stop = quote != nullptr ? static_cast<const char*>(quote)
                                          : end;
      line_ += static_cast<size_t>(std::count(p, stop, '\n'));
      arena_.append(p, stop);
      p = stop;
      if (p == end) break;
    } else if (!pending_cr_ && state_ != State::kQuoteSeen) {
      const char* stop = p;
      while (stop < end && !kUnquotedStop[static_cast<unsigned char>(*stop)]) {
        ++stop;
      }
      if (stop != p) {
        arena_.append(p, stop);
        state_ = State::kUnquoted;
        p = stop;
        if (p == end) break;
      }
    }
    Consume(*p++);
    if (!error_.ok()) return;
  }
}

void CsvTokenizer::Finish() {
  if (finished_) return;
  finished_ = true;
  if (!error_.ok()) return;
  if (pending_cr_) {
    pending_cr_ = false;
    if (state_ == State::kQuoteSeen) {
      // "...x"\r<EOF>: accept the CR as the record terminator.
      EndRecord();
      return;
    }
    arena_.push_back('\r');
    if (state_ != State::kQuoted) state_ = State::kUnquoted;
  }
  switch (state_) {
    case State::kRecordStart:
      break;  // input ended cleanly after a newline (or was empty)
    case State::kFieldStart:
    case State::kUnquoted:
    case State::kQuoteSeen:
      EndRecord();  // final record without a trailing newline
      break;
    case State::kQuoted:
      Fail("unterminated quoted field at end of input");
      break;
  }
}

Result<bool> CsvTokenizer::Next(std::vector<std::string_view>* fields) {
  if (next_ready_ < ready_.size()) {
    const ReadyRecord& record = ready_[next_ready_++];
    fields->clear();
    size_t begin =
        record.first_field == 0 ? 0 : field_ends_[record.first_field - 1];
    for (size_t f = record.first_field; f < record.end_field; ++f) {
      fields->emplace_back(arena_.data() + begin, field_ends_[f] - begin);
      begin = field_ends_[f];
    }
    last_record_line_ = record.line;
    return true;
  }
  if (!error_.ok()) return error_;
  return false;
}

void CsvTokenizer::Consume(char c) {
  if (pending_cr_) {
    pending_cr_ = false;
    if (c == '\n') {
      ++line_;
      EndRecord();
      return;
    }
    if (state_ == State::kQuoteSeen) {
      Fail("unexpected character after closing quote");
      return;
    }
    // A CR not followed by LF is field data, like any other byte.
    arena_.push_back('\r');
    if (state_ != State::kQuoted) state_ = State::kUnquoted;
  }
  switch (state_) {
    case State::kRecordStart:
    case State::kFieldStart:
      if (c == '"') {
        state_ = State::kQuoted;
      } else if (c == ',') {
        EndField();
        state_ = State::kFieldStart;
      } else if (c == '\n') {
        ++line_;
        EndRecord();
      } else if (c == '\r') {
        pending_cr_ = true;
      } else {
        arena_.push_back(c);
        state_ = State::kUnquoted;
      }
      break;
    case State::kUnquoted:
      if (c == ',') {
        EndField();
        state_ = State::kFieldStart;
      } else if (c == '\n') {
        ++line_;
        EndRecord();
      } else if (c == '\r') {
        pending_cr_ = true;
      } else if (c == '"') {
        Fail("quote character inside unquoted field");
      } else {
        arena_.push_back(c);
      }
      break;
    case State::kQuoted:
      if (c == '"') {
        state_ = State::kQuoteSeen;
      } else {
        if (c == '\n') ++line_;
        arena_.push_back(c);
      }
      break;
    case State::kQuoteSeen:
      if (c == '"') {
        arena_.push_back('"');  // "" escape
        state_ = State::kQuoted;
      } else if (c == ',') {
        EndField();
        state_ = State::kFieldStart;
      } else if (c == '\n') {
        ++line_;
        EndRecord();
      } else if (c == '\r') {
        pending_cr_ = true;
      } else {
        Fail("unexpected character after closing quote");
      }
      break;
  }
}

void CsvTokenizer::EndField() { field_ends_.push_back(arena_.size()); }

void CsvTokenizer::EndRecord() {
  EndField();
  ready_.push_back(
      ReadyRecord{record_first_, field_ends_.size(), record_start_line_});
  record_first_ = field_ends_.size();
  state_ = State::kRecordStart;
  record_start_line_ = line_;
}

void CsvTokenizer::Compact() {
  if (next_ready_ < ready_.size()) return;  // views may still be in use
  ready_.clear();
  next_ready_ = 0;
  if (record_first_ == 0) return;
  const size_t base = field_ends_[record_first_ - 1];
  arena_.erase(0, base);
  field_ends_.erase(field_ends_.begin(),
                    field_ends_.begin() +
                        static_cast<std::ptrdiff_t>(record_first_));
  for (size_t& end : field_ends_) end -= base;
  record_first_ = 0;
}

void CsvTokenizer::Fail(const std::string& message) {
  if (!error_.ok()) return;
  error_ = Status::IoError("line " + std::to_string(line_) + ": " + message);
}

// --- Shared record-level helpers ---

bool IsBlankCsvRecord(const std::vector<std::string_view>& fields) {
  return fields.size() == 1 && StripWhitespace(fields[0]).empty();
}

Status ValidateCsvHeader(const std::vector<std::string_view>& fields,
                         const Schema& schema) {
  if (fields.size() != schema.size()) {
    return Status::IoError("header has " + std::to_string(fields.size()) +
                           " columns, schema expects " +
                           std::to_string(schema.size()));
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    if (StripWhitespace(fields[i]) != schema.at(i).name) {
      return Status::IoError("header column " + std::to_string(i) + " is '" +
                             std::string(fields[i]) + "', expected '" +
                             schema.at(i).name + "'");
    }
  }
  return Status::Ok();
}

Schema NumericSchemaFromHeader(const std::vector<std::string_view>& fields) {
  std::vector<Attribute> attrs;
  attrs.reserve(fields.size());
  for (std::string_view name : fields) {
    attrs.push_back(Attribute{std::string(StripWhitespace(name)),
                              AttributeType::kNumeric, AttributeRole::kOther,
                              {}});
  }
  return Schema(std::move(attrs));
}

CsvCategoryIndex::CsvCategoryIndex(const Schema& schema)
    : columns_(schema.size()) {
  for (size_t col = 0; col < schema.size(); ++col) {
    const Attribute& attr = schema.at(col);
    if (!attr.is_categorical()) continue;
    for (size_t code = 0; code < attr.categories.size(); ++code) {
      // emplace keeps the first code of a repeated label.
      columns_[col].emplace(attr.categories[code],
                            static_cast<int32_t>(code));
    }
  }
}

int32_t CsvCategoryIndex::Find(size_t col, std::string_view label) const {
  if (col >= columns_.size()) return -1;
  auto it = columns_[col].find(label);
  return it == columns_[col].end() ? -1 : it->second;
}

Result<Record> CsvFieldsToRecord(const std::vector<std::string_view>& fields,
                                 const Schema& schema,
                                 const CsvCategoryIndex& categories,
                                 size_t line) {
  if (fields.size() != schema.size()) {
    return Status::IoError("line " + std::to_string(line) + " has " +
                           std::to_string(fields.size()) + " fields");
  }
  Record record;
  record.reserve(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    const std::string_view field = StripWhitespace(fields[i]);
    const Attribute& attr = schema.at(i);
    if (attr.is_categorical()) {
      const int32_t code = categories.Find(i, field);
      if (code < 0) {
        return Status::IoError("line " + std::to_string(line) +
                               ": unknown category '" + std::string(field) +
                               "' for attribute '" + attr.name + "'");
      }
      record.push_back(Value::Categorical(code));
    } else {
      double value = 0.0;
      if (!ParseDouble(field, &value)) {
        return Status::IoError("line " + std::to_string(line) +
                               ": cannot parse '" + std::string(field) +
                               "' as a number for attribute '" + attr.name +
                               "'");
      }
      record.push_back(Value::Numeric(value));
    }
  }
  return record;
}

// --- Shared formatting ---

namespace {

void AppendCsvField(std::string_view text, std::string* out) {
  if (text.find_first_of(",\"\n\r") == std::string_view::npos) {
    out->append(text);
    return;
  }
  out->push_back('"');
  for (char c : text) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

// Replaces *out with the formatted rows of block `block` of `data`.
void FormatCsvBlock(const Dataset& data, size_t block, std::string* out) {
  out->clear();
  const size_t begin = block * kCsvWriteBlockRows;
  const size_t end = std::min(data.NumRecords(), begin + kCsvWriteBlockRows);
  for (size_t row = begin; row < end; ++row) AppendCsvRow(data, row, out);
}

void WriteBuffer(const std::string& buffer, std::ostream& out) {
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
}

}  // namespace

void AppendCsvHeader(const Schema& schema, std::string* out) {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendCsvField(schema.at(i).name, out);
  }
  out->push_back('\n');
}

void AppendCsvRow(const Dataset& data, size_t row, std::string* out) {
  const Schema& schema = data.schema();
  for (size_t col = 0; col < schema.size(); ++col) {
    if (col > 0) out->push_back(',');
    const Value& v = data.cell(row, col);
    if (v.is_categorical()) {
      const auto& categories = schema.at(col).categories;
      size_t code = static_cast<size_t>(v.category());
      if (code < categories.size()) {
        AppendCsvField(categories[code], out);
      } else {
        out->append(std::to_string(v.category()));
      }
    } else {
      AppendDouble(v.numeric(), 17, out);  // 17 digits: doubles round-trip
    }
  }
  out->push_back('\n');
}

void WriteCsvRows(const Dataset& data, std::ostream& out, ThreadPool* pool) {
  const size_t blocks =
      (data.NumRecords() + kCsvWriteBlockRows - 1) / kCsvWriteBlockRows;
  if (pool == nullptr || blocks <= 1) {
    std::string buffer;
    for (size_t block = 0; block < blocks; ++block) {
      FormatCsvBlock(data, block, &buffer);
      WriteBuffer(buffer, out);
    }
    return;
  }
  // Blocks are formatted on the pool and written in row order. A block
  // is submitted only after the one 2 x threads places before it has
  // been written, so the formatted bytes in flight stay bounded.
  const size_t in_flight = 2 * pool->num_threads();
  std::deque<std::future<std::string>> pending;
  // Tasks reference `data`: let every one finish before it can go out
  // of scope, even when a get() below throws.
  struct DrainOnExit {
    std::deque<std::future<std::string>>* pending;
    ~DrainOnExit() {
      for (std::future<std::string>& block : *pending) {
        if (block.valid()) block.wait();
      }
    }
  } drain{&pending};
  size_t next = 0;
  auto submit = [&data, pool, &pending, &next]() {
    const size_t block = next++;
    pending.push_back(pool->Submit([&data, block]() {
      std::string bytes;
      FormatCsvBlock(data, block, &bytes);
      return bytes;
    }));
  };
  while (next < blocks && pending.size() < in_flight) submit();
  while (!pending.empty()) {
    std::future<std::string>& front = pending.front();
    // Lend this thread to the pool until the next block in row order is
    // done; once the queue is empty that block is running elsewhere.
    while (front.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!pool->TryRunOneTask()) front.wait();
    }
    WriteBuffer(front.get(), out);
    pending.pop_front();
    if (next < blocks) submit();
  }
}

// --- StreamingCsvReader ---

Result<std::unique_ptr<StreamingCsvReader>> StreamingCsvReader::Make(
    std::unique_ptr<std::istream> input, const Schema* schema,
    const StreamingCsvOptions& options) {
  if (options.buffer_bytes == 0) {
    return Status::InvalidArgument("buffer_bytes must be positive");
  }
  std::unique_ptr<StreamingCsvReader> reader(new StreamingCsvReader(
      std::move(input), schema != nullptr ? *schema : Schema(), options));
  std::vector<std::string_view> header;
  TCM_ASSIGN_OR_RETURN(bool got_header, reader->NextRecord(&header));
  if (!got_header) {
    return Status::IoError("empty input: missing header row");
  }
  if (schema != nullptr) {
    TCM_RETURN_IF_ERROR(ValidateCsvHeader(header, *schema));
  } else {
    reader->schema_ = NumericSchemaFromHeader(header);
  }
  reader->categories_ = CsvCategoryIndex(reader->schema_);
  return reader;
}

Result<std::unique_ptr<StreamingCsvReader>> StreamingCsvReader::Open(
    const std::string& path, const Schema& schema,
    const StreamingCsvOptions& options) {
  auto file = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*file) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  return Make(std::move(file), &schema, options);
}

Result<std::unique_ptr<StreamingCsvReader>> StreamingCsvReader::OpenNumeric(
    const std::string& path, const StreamingCsvOptions& options) {
  auto file = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*file) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  return Make(std::move(file), nullptr, options);
}

Result<std::unique_ptr<StreamingCsvReader>> StreamingCsvReader::FromStream(
    std::unique_ptr<std::istream> input, const Schema& schema,
    const StreamingCsvOptions& options) {
  return Make(std::move(input), &schema, options);
}

Result<std::unique_ptr<StreamingCsvReader>>
StreamingCsvReader::FromStreamNumeric(std::unique_ptr<std::istream> input,
                                      const StreamingCsvOptions& options) {
  return Make(std::move(input), nullptr, options);
}

Status StreamingCsvReader::ReplaceSchema(Schema schema) {
  if (schema.size() != schema_.size()) {
    return Status::InvalidArgument(
        "replacement schema has " + std::to_string(schema.size()) +
        " attributes, reader has " + std::to_string(schema_.size()));
  }
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema.at(i).name != schema_.at(i).name ||
        schema.at(i).type != schema_.at(i).type ||
        schema.at(i).categories != schema_.at(i).categories) {
      return Status::InvalidArgument(
          "replacement schema changes attribute " + std::to_string(i) +
          " ('" + schema_.at(i).name + "'); only roles may change");
    }
  }
  // Categories are unchanged, so categories_ stays valid.
  schema_ = std::move(schema);
  return Status::Ok();
}

Result<bool> StreamingCsvReader::NextRecord(
    std::vector<std::string_view>* fields) {
  while (true) {
    TCM_ASSIGN_OR_RETURN(bool got, tokenizer_.Next(fields));
    if (got) return true;
    if (input_done_) return false;
    chunk_.resize(options_.buffer_bytes);
    input_->read(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
    std::streamsize n = input_->gcount();
    if (n > 0) {
      tokenizer_.Feed(
          std::string_view(chunk_.data(), static_cast<size_t>(n)));
    }
    if (input_->bad()) {
      return Status::IoError("error reading CSV input");
    }
    if (input_->eof()) {
      tokenizer_.Finish();
      input_done_ = true;
    }
  }
}

Result<size_t> StreamingCsvReader::ReadInto(Dataset* out, size_t max_rows) {
  size_t appended = 0;
  std::vector<std::string_view> fields;
  while (appended < max_rows) {
    TCM_ASSIGN_OR_RETURN(bool got, NextRecord(&fields));
    if (!got) break;
    if (IsBlankCsvRecord(fields)) continue;
    TCM_ASSIGN_OR_RETURN(
        Record record,
        CsvFieldsToRecord(fields, schema_, categories_,
                          tokenizer_.record_line()));
    TCM_RETURN_IF_ERROR(out->Append(std::move(record)));
    ++rows_read_;
    ++appended;
  }
  return appended;
}

// --- StreamingCsvWriter ---

Result<std::unique_ptr<StreamingCsvWriter>> StreamingCsvWriter::Open(
    const std::string& path, const Schema& schema) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  std::string header;
  AppendCsvHeader(schema, &header);
  file.write(header.data(), static_cast<std::streamsize>(header.size()));
  if (!file.good()) {
    return Status::IoError("write to '" + path + "' failed");
  }
  return std::unique_ptr<StreamingCsvWriter>(
      new StreamingCsvWriter(std::move(file), path));
}

Status StreamingCsvWriter::WriteRows(const Dataset& batch, ThreadPool* pool) {
  WriteCsvRows(batch, file_, pool);
  if (!file_.good()) {
    return Status::IoError("write to '" + path_ + "' failed");
  }
  rows_written_ += batch.NumRecords();
  return Status::Ok();
}

Status StreamingCsvWriter::Close() {
  file_.flush();
  if (!file_.good()) {
    return Status::IoError("write to '" + path_ + "' failed");
  }
  file_.close();
  return Status::Ok();
}

}  // namespace tcm
