// Small string helpers used by the CSV reader, the bench table printers and
// the command-line tools' flag parsing.

#ifndef AIM_UTIL_STRINGS_H_
#define AIM_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace aim {

// Splits `input` on `delimiter`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view input, char delimiter);

// Joins `parts` with `delimiter`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view delimiter);

// Removes leading/trailing ASCII whitespace.
std::string StripWhitespace(std::string_view input);

// True when `input` starts with `prefix`; `*rest` then gets the remainder
// (flag parsing: StripPrefix(arg, "--seed=", &value)).
bool StripPrefix(std::string_view input, std::string_view prefix,
                 std::string* rest);

// Parses a double; returns false on malformed input.
bool ParseDouble(std::string_view input, double* out);

// Parses a signed 64-bit integer; returns false on malformed input.
bool ParseInt64(std::string_view input, int64_t* out);

// Parses a signed 32-bit integer; returns false on malformed input or a
// value outside int's range. CLI flags that land in `int` fields must use
// this instead of ParseInt64 + static_cast, which silently truncates.
bool ParseInt32(std::string_view input, int* out);

// Parses an unsigned 64-bit integer; returns false on malformed input,
// overflow, or any sign character (a negative seed must be a usage error,
// not a two's-complement bit reinterpretation).
bool ParseUint64(std::string_view input, uint64_t* out);

}  // namespace aim

#endif  // AIM_UTIL_STRINGS_H_
