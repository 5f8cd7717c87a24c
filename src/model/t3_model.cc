#include "model/t3_model.h"

#include "common/string_util.h"
#include "common/text_format.h"

namespace t3 {

std::string T3Model::ToText() const {
  std::string out = StrFormat("t3model target %d\n", static_cast<int>(target_));
  out += forest_.ToText();
  return out;
}

Result<T3Model> T3Model::FromText(std::string_view text) {
  PredictionTarget target = PredictionTarget::kPerTuple;
  Result<Forest> forest = Forest::FromText(text, &target);
  if (!forest.ok()) return forest.status();
  return T3Model(*std::move(forest), target);
}

Status T3Model::SaveToFile(const std::string& path) const {
  return WriteStringToFile(path, ToText());
}

Result<T3Model> T3Model::LoadFromFile(const std::string& path) {
  Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  return FromText(*content);
}

Status ProveTextRoundTrip(std::string_view text, const std::string& what) {
  Result<T3Model> reparsed = T3Model::FromText(text);
  if (!reparsed.ok()) {
    return InternalError(StrFormat("model %s does not parse back: %s",
                                   what.c_str(),
                                   reparsed.status().ToString().c_str()));
  }
  if (reparsed->ToText() != text) {
    return InternalError(StrFormat(
        "model %s reserializes to different bytes", what.c_str()));
  }
  return Status::OK();
}

}  // namespace t3
