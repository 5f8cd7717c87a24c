#include "common/text_format.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/string_util.h"

namespace t3 {
namespace {

bool IsSpace(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

}  // namespace

void TextReader::SkipSpace() {
  while (pos_ != end_ && IsSpace(*pos_)) {
    if (*pos_ == '\n') ++line_;
    ++pos_;
  }
}

std::string_view TextReader::Token() {
  SkipSpace();
  const char* start = pos_;
  while (pos_ != end_ && !IsSpace(*pos_)) ++pos_;
  return std::string_view(start, static_cast<size_t>(pos_ - start));
}

bool TextReader::Double(double* out) {
  SkipSpace();
  double value = 0.0;
  const std::from_chars_result parsed = std::from_chars(pos_, end_, value);
  if (parsed.ec != std::errc()) return false;
  pos_ = parsed.ptr;
  *out = value;
  return true;
}

bool TextReader::FiniteDouble(double* out) {
  double value = 0.0;
  if (!Double(&value) || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

void AppendExactDouble(std::string* out, double value) {
  char buffer[32];
  const int size = std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out->append(buffer, static_cast<size_t>(size));
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return NotFoundError(StrFormat("cannot open %s: %s", path.c_str(),
                                   std::strerror(errno)));
  }
  std::string content;
  char buffer[1 << 16];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    content.append(buffer, read);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    return UnavailableError(StrFormat("read error on %s", path.c_str()));
  }
  return content;
}

Status WriteStringToFile(const std::string& path, std::string_view content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return UnavailableError(StrFormat("cannot create %s: %s", path.c_str(),
                                      std::strerror(errno)));
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), file);
  const bool failed = std::fclose(file) != 0 || written != content.size();
  if (failed) {
    return UnavailableError(StrFormat("write error on %s", path.c_str()));
  }
  return Status::OK();
}

}  // namespace t3
