#ifndef T3_COMMON_STRING_UTIL_H_
#define T3_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace t3 {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits on a single character delimiter; keeps empty pieces.
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view text);

/// JSON string literal: `s` in double quotes, with quotes, backslashes and
/// control bytes escaped.
std::string JsonQuote(const std::string& s);

/// Human-readable duration from nanoseconds: "812ns", "4.20us", "1.35ms",
/// "2.10s". The unit is chosen so the mantissa is < 1000.
std::string FormatDuration(double nanos);

/// Strict whole-string numeric parsing for untrusted text (CLI arguments,
/// header values), on TextReader (common/text_format.h). The entire text
/// must be one number — empty strings, surrounding whitespace, trailing
/// characters, and out-of-range values fail — and ParseDouble additionally
/// rejects non-finite results ("inf", "nan", overflow). On failure, returns
/// false and leaves *out untouched.
bool ParseDouble(std::string_view text, double* out);
bool ParseInt64(std::string_view text, int64_t* out);
/// Rejects negative input outright ("-1" fails rather than wrapping).
bool ParseUint64(std::string_view text, uint64_t* out);

}  // namespace t3

#endif  // T3_COMMON_STRING_UTIL_H_
