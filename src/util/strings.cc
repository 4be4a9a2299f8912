#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <limits>

namespace aim {

std::vector<std::string> SplitString(std::string_view input, char delimiter) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(input.substr(start));
      break;
    }
    parts.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view delimiter) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += delimiter;
    out += parts[i];
  }
  return out;
}

std::string StripWhitespace(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return std::string(input.substr(begin, end - begin));
}

bool StripPrefix(std::string_view input, std::string_view prefix,
                 std::string* rest) {
  if (input.substr(0, prefix.size()) != prefix) return false;
  *rest = std::string(input.substr(prefix.size()));
  return true;
}

bool ParseDouble(std::string_view input, double* out) {
  std::string stripped = StripWhitespace(input);
  if (stripped.empty()) return false;
  char* end = nullptr;
  double value = std::strtod(stripped.c_str(), &end);
  if (end != stripped.c_str() + stripped.size()) return false;
  *out = value;
  return true;
}

bool ParseInt64(std::string_view input, int64_t* out) {
  std::string stripped = StripWhitespace(input);
  if (stripped.empty()) return false;
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(
      stripped.data(), stripped.data() + stripped.size(), value);
  if (ec != std::errc() || ptr != stripped.data() + stripped.size()) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseInt32(std::string_view input, int* out) {
  int64_t value = 0;
  if (!ParseInt64(input, &value)) return false;
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ParseUint64(std::string_view input, uint64_t* out) {
  std::string stripped = StripWhitespace(input);
  if (stripped.empty()) return false;
  // from_chars for unsigned types rejects '-' itself, but be explicit about
  // '+' too so every accepted string is a plain digit run.
  if (stripped[0] == '-' || stripped[0] == '+') return false;
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(
      stripped.data(), stripped.data() + stripped.size(), value);
  if (ec != std::errc() || ptr != stripped.data() + stripped.size()) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace aim
