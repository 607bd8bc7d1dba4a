// CSV I/O microbenchmark: the tokenizer, the full parse (tokenize +
// convert + append) and release formatting on a uniform numeric table,
// the per-layer costs behind the `data.read_s` / `data.write_s` stages
// of a CSV job. Formatting runs inline (threads=1) and on a ThreadPool
// of kPoolThreads threads, the benchmark workloads' thread count; both
// must produce the same bytes. Prints only JSON lines, one per
// measurement, and exits nonzero if the bytes or the parsed table
// differ. Each stage keeps the best of 3 timed repeats (1 in fast mode).
//
// Environment knobs (see bench_util.h):
//   TCM_N        — record count              (default 1000000)
//   TCM_FAST     — nonzero: 50k rows, 1 repeat, for smoke runs

#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "data/csv.h"
#include "data/csv_stream.h"
#include "data/generator.h"
#include "engine/thread_pool.h"

namespace {

constexpr size_t kChunkBytes = 1 << 16;
constexpr size_t kPoolThreads = 4;

// Output sink that keeps only a byte count and, when asked, an FNV-1a
// digest. The timed passes only count, so the format measurement is not
// dominated by copying or hashing; an untimed digest pass checks bytes.
class SinkBuf : public std::streambuf {
 public:
  explicit SinkBuf(bool digest) : hash_(digest) {}
  uint64_t digest() const { return digest_; }
  size_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; hash_ && i < n; ++i) {
      digest_ = (digest_ ^ static_cast<unsigned char>(s[i])) *
                0x100000001b3ULL;
    }
    bytes_ += static_cast<size_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) {
      char byte = traits_type::to_char_type(c);
      xsputn(&byte, 1);
    }
    return c;
  }

 private:
  bool hash_;
  uint64_t digest_ = 0xcbf29ce484222325ULL;
  size_t bytes_ = 0;
};

// Best wall time of `repeats` calls of `fn`.
template <typename Fn>
double BestSeconds(size_t repeats, Fn fn) {
  double best = 0.0;
  for (size_t r = 0; r < repeats; ++r) {
    tcm::WallTimer timer;
    fn();
    const double seconds = timer.ElapsedSeconds();
    if (r == 0 || seconds < best) best = seconds;
  }
  return best;
}

}  // namespace

int main() {
  const bool fast = tcm_bench::FastMode();
  const size_t n = tcm_bench::EnvSize("TCM_N", fast ? 50000 : 1000000);
  const size_t repeats = fast ? 1 : 3;

  const tcm::Dataset data = tcm::MakeUniformDataset(n, 3, 2016);
  const std::string text = tcm::WriteCsvString(data);
  const double mib = static_cast<double>(text.size()) / (1024.0 * 1024.0);

  // Tokenizer alone, fed in the readers' chunk size.
  size_t records = 0;
  const double tokenize_s = BestSeconds(repeats, [&]() {
    tcm::CsvTokenizer tokenizer;
    std::vector<std::string_view> fields;
    records = 0;
    for (size_t at = 0; at < text.size(); at += kChunkBytes) {
      tokenizer.Feed(std::string_view(text).substr(at, kChunkBytes));
      while (*tokenizer.Next(&fields)) ++records;
    }
    tokenizer.Finish();
    while (*tokenizer.Next(&fields)) ++records;
  });
  std::printf(
      "{\"bench\":\"csv_io\",\"stage\":\"tokenize\",\"n\":%zu,"
      "\"threads\":1,\"bytes\":%zu,\"seconds\":%.4f,\"mib_per_s\":%.1f,"
      "\"records\":%zu}\n",
      n, text.size(), tokenize_s, mib / tokenize_s, records);

  // Full parse: tokenize, convert each field, append to a Dataset.
  bool parsed_equal = false;
  const double parse_s = BestSeconds(repeats, [&]() {
    tcm::Result<tcm::Dataset> parsed = tcm::ParseCsvString(text, data.schema());
    parsed_equal = parsed.ok() && *parsed == data;
  });
  std::printf(
      "{\"bench\":\"csv_io\",\"stage\":\"parse\",\"n\":%zu,\"threads\":1,"
      "\"seconds\":%.4f,\"rows_per_s\":%.0f,\"mib_per_s\":%.1f,"
      "\"equal\":%s}\n",
      n, parse_s, static_cast<double>(n) / parse_s, mib / parse_s,
      parsed_equal ? "true" : "false");

  // Release formatting: inline, then on a pool; same bytes required.
  uint64_t reference = 0;
  bool identical = true;
  for (size_t pool_threads : {size_t{0}, kPoolThreads}) {
    std::unique_ptr<tcm::ThreadPool> owned;
    if (pool_threads > 0) {
      owned = std::make_unique<tcm::ThreadPool>(pool_threads);
    }
    tcm::ThreadPool* pool = owned.get();
    auto format = [&](bool hash) {
      SinkBuf sink(hash);
      std::ostream out(&sink);
      tcm::WriteCsvRows(data, out, pool);
      return sink.digest();
    };
    const double format_s = BestSeconds(repeats, [&]() { format(false); });
    const uint64_t digest = format(true);
    if (pool == nullptr) {
      reference = digest;
    } else {
      identical = identical && digest == reference;
    }
    std::printf(
        "{\"bench\":\"csv_io\",\"stage\":\"format\",\"n\":%zu,"
        "\"threads\":%zu,\"pool\":%s,\"seconds\":%.4f,\"rows_per_s\":%.0f,"
        "\"identical_to_t1\":%s}\n",
        n, pool == nullptr ? size_t{1} : pool_threads,
        pool == nullptr ? "false" : "true", format_s,
        static_cast<double>(n) / format_s,
        digest == reference ? "true" : "false");
  }
  return parsed_equal && identical && records == n + 1 ? 0 : 1;
}
