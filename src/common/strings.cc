#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <system_error>

namespace tcm {

std::vector<std::string> SplitString(std::string_view text, char delimiter) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view delimiter) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(delimiter);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

// std::from_chars/std::to_chars instead of strtod/printf: the C calls
// read LC_NUMERIC, so a host running under a comma-decimal locale (e.g.
// de_DE) would misparse "3.5" and format 3.5 as "3,5" — numbers in CSV
// cells and specs must not depend on the process's locale.
bool ParseDouble(std::string_view text, double* out) {
  std::string_view stripped = StripWhitespace(text);
  if (stripped.empty()) return false;
  // strtod accepted an explicit leading '+'; from_chars does not.
  if (stripped.front() == '+') stripped.remove_prefix(1);
  if (stripped.empty()) return false;
  double value = 0.0;
  auto result = std::from_chars(stripped.data(),
                                stripped.data() + stripped.size(), value,
                                std::chars_format::general);
  if (result.ec != std::errc() ||
      result.ptr != stripped.data() + stripped.size()) {
    return false;
  }
  *out = value;
  return true;
}

std::string FormatDouble(double value, int precision) {
  std::string out;
  AppendDouble(value, precision, &out);
  return out;
}

void AppendDouble(double value, int precision, std::string* out) {
  char buffer[64];
  auto result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                              std::chars_format::general, precision);
  if (result.ec != std::errc()) {  // cannot happen at this size
    out->push_back('0');
    return;
  }
  out->append(buffer, result.ptr);
}

}  // namespace tcm
