#ifndef T3_COMMON_TEXT_FORMAT_H_
#define T3_COMMON_TEXT_FORMAT_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace t3 {

/// The primitives shared by every t3 text format (t3plan, t3corpus, t3gbt,
/// and the strict ParseDouble/ParseInt64/ParseUint64): one bounded token
/// reader, one exact double writer, and whole-file read/write.

/// Whitespace-separated reader over `[text.data(), text.data() + size)`.
/// Numbers are parsed with std::from_chars, so the reader never looks past
/// the end of the view: the text need not be NUL-terminated, and a view
/// that ends inside a number parses only the digits it holds. Every
/// method skips leading whitespace except Literal.
class TextReader {
 public:
  explicit TextReader(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()), size_(text.size()) {}

  /// True when only whitespace remains.
  bool AtEnd() {
    SkipSpace();
    return pos_ == end_;
  }

  /// The next whitespace-delimited token; empty at the end of the text.
  std::string_view Token();

  /// A base-10 integer ("-12"; no '+', no overflow). Stops at the first
  /// non-digit, so "3:1.5" reads 3 and leaves ":1.5".
  template <typename Integer>
  bool Int(Integer* out) {
    SkipSpace();
    Integer value = 0;
    const std::from_chars_result parsed = std::from_chars(pos_, end_, value);
    if (parsed.ec != std::errc()) return false;
    pos_ = parsed.ptr;
    *out = value;
    return true;
  }

  /// A non-negative integer no larger than the size of the whole text: the
  /// element count of a section that follows. Every element takes at least
  /// a byte, so a larger count is forged and must not size a vector.
  bool Count(size_t* out) { return Int(out) && *out <= size_; }

  /// A decimal or scientific double, or "inf"/"nan" (the t3gbt reader
  /// parses them so the verifiers can report them). Literals out of the
  /// double range fail.
  bool Double(double* out);

  /// Double, rejecting "inf", "nan" and overflow: plan and corpus numbers
  /// are finite by construction, so a non-finite one is corruption.
  bool FiniteDouble(double* out);

  /// Consumes `c` when it is the very next character (no space skipped).
  bool Literal(char c) {
    if (pos_ == end_ || *pos_ != c) return false;
    ++pos_;
    return true;
  }

  /// 1-based line of the read position, for diagnostics.
  int line() const { return line_; }

 private:
  void SkipSpace();

  const char* pos_;
  const char* end_;
  size_t size_;
  int line_ = 1;
};

/// Appends `value` as "%.17g": enough digits that every double other than a
/// NaN reads back bit-exactly through TextReader::Double. The one double
/// writer of every t3 text format.
void AppendExactDouble(std::string* out, double value);

/// Reads a whole file; NotFound/Unavailable on error.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes (truncates) a whole file.
Status WriteStringToFile(const std::string& path, std::string_view content);

}  // namespace t3

#endif  // T3_COMMON_TEXT_FORMAT_H_
