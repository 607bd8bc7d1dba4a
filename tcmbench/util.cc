#include "util.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace tcmbench {

void Sheet::Set(const std::string& name, double value) {
  metrics_[name] = value;
}

bool Sheet::Check(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) Fail(why);
  return ok;
}

void Sheet::Fail(const std::string& why) {
  ++failed_;
  failures_.push_back(why);
  std::fprintf(stderr, "tcmbench: FAIL %s\n", why.c_str());
}

void Sheet::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void Sheet::Print(const std::vector<MetricDef>& catalogue) const {
  for (const auto& [key, value] : notes_) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : catalogue) {
    auto it = metrics_.find(def.name);
    const double value =
        it == metrics_.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    std::printf("%-32s %.9g %s\n", def.name, value, def.unit);
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (!first) json += ", ";
    first = false;
    json += std::string("\"") + def.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + def.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

FileDigest DigestFile(const std::string& path) {
  FileDigest digest;
  std::ifstream in(path, std::ios::binary);
  if (!in) return digest;
  uint64_t hash = 1469598103934665603ull;
  std::vector<char> buffer(1 << 20);
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const size_t got = static_cast<size_t>(in.gcount());
    for (size_t i = 0; i < got; ++i) {
      hash ^= static_cast<unsigned char>(buffer[i]);
      hash *= 1099511628211ull;
      if (buffer[i] == '\n') ++digest.lines;
    }
  }
  digest.fnv1a = hash;
  digest.ok = true;
  return digest;
}

std::string Hex(uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return !clear.fail();
}

double PeakRssMib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double FileMib(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size) / (1024.0 * 1024.0);
}

}  // namespace tcmbench
