#ifndef TCMBENCH_UTIL_H_
#define TCMBENCH_UTIL_H_

// Shared pieces of the tcmbench driver: command-line options, the
// metric sheet every workload fills, order statistics, release digests
// and peak-RSS probes.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tcmbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;      // scratch space for inputs and releases
  std::string serve_binary;  // tcm_serve, for serve_small_jobs
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// What one invocation reports: the metric values by name (printed with
// their units), the ledger of checked operations and the correctness
// verdict. Any failed check makes the run incorrect; the driver then
// exits non-zero.
class Sheet {
 public:
  void Set(const std::string& name, double value);
  // One checked operation; returns `ok`.
  bool Check(bool ok, const std::string& why);
  // `n` operations, of which Fail() then names each one that failed.
  void Attempt(size_t n) { attempted_ += n; }
  void Fail(const std::string& why);
  // Free-form host and configuration context, printed before the result.
  void Note(const std::string& key, const std::string& value);

  bool correct() const { return failures_.empty(); }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

  // Prints the context and one "name value unit" line per catalogue
  // entry, then the result object as the last line of standard output.
  // A metric the workload does not measure (a serving latency on a batch
  // workload, say) is printed as 0, so every run has the same shape.
  void Print(const std::vector<MetricDef>& catalogue) const;

 private:
  std::map<std::string, double> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> failures_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

double Median(std::vector<double> values);
// Nearest-rank percentile, p in (0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

// FNV-1a 64 over a file's bytes, and its newline count.
struct FileDigest {
  uint64_t fnv1a = 0;
  size_t lines = 0;
  bool ok = false;
};
FileDigest DigestFile(const std::string& path);
std::string Hex(uint64_t value);

// Resets this process's peak resident set to its current size (returns
// freed heap to the OS first), so the next PeakRssMib() covers only what
// ran in between. False when the kernel refused the reset; VmHWM then
// still holds the whole process's peak.
bool ResetPeakRss();
// VmHWM of `pid` (0 = this process) in MiB; 0 when unreadable.
double PeakRssMib(int pid = 0);

double FileMib(const std::string& path);

}  // namespace tcmbench

#endif  // TCMBENCH_UTIL_H_
