#include "common/string_util.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "common/text_format.h"

namespace t3 {

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int size = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (size > 0) {
    out.resize(static_cast<size_t>(size));
    // size + 1: vsnprintf writes the terminating NUL into &out[size], which
    // is valid to overwrite with '\0' since C++11.
    std::vsnprintf(out.data(), static_cast<size_t>(size) + 1, format,
                   args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(text.substr(start));
      return pieces;
    }
    pieces.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view StripAsciiWhitespace(std::string_view text) {
  while (!text.empty() &&
         (text.front() == ' ' || text.front() == '\t' || text.front() == '\n' ||
          text.front() == '\r')) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         (text.back() == ' ' || text.back() == '\t' || text.back() == '\n' ||
          text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

namespace {

/// Whole-string parse through TextReader: no surrounding whitespace, one
/// number, nothing after it. `*out` is written only on success.
template <typename T>
bool ParseWhole(std::string_view text, T* out, bool (TextReader::*read)(T*)) {
  if (text.empty() || StripAsciiWhitespace(text).size() != text.size()) {
    return false;
  }
  TextReader reader(text);
  T value{};
  if (!(reader.*read)(&value) || !reader.AtEnd()) return false;
  *out = value;
  return true;
}

}  // namespace

bool ParseDouble(std::string_view text, double* out) {
  return ParseWhole(text, out, &TextReader::FiniteDouble);
}

bool ParseInt64(std::string_view text, int64_t* out) {
  return ParseWhole(text, out, &TextReader::Int<int64_t>);
}

bool ParseUint64(std::string_view text, uint64_t* out) {
  return ParseWhole(text, out, &TextReader::Int<uint64_t>);
}

std::string FormatDuration(double nanos) {
  const double abs = std::fabs(nanos);
  if (abs < 1e3) return StrFormat("%.0fns", nanos);
  if (abs < 1e6) return StrFormat("%.2fus", nanos / 1e3);
  if (abs < 1e9) return StrFormat("%.2fms", nanos / 1e6);
  return StrFormat("%.2fs", nanos / 1e9);
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

}  // namespace t3
