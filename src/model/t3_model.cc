#include "model/t3_model.h"

#include "common/string_util.h"
#include "common/text_format.h"

namespace t3 {

Status T3Model::SaveToFile(const std::string& path) const {
  std::string out = StrFormat("t3model target %d\n", static_cast<int>(target_));
  out += forest_.ToText();
  return WriteStringToFile(path, out);
}

Result<T3Model> T3Model::LoadFromFile(const std::string& path) {
  Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  PredictionTarget target = PredictionTarget::kPerTuple;
  Result<Forest> forest = Forest::FromText(*content, &target);
  if (!forest.ok()) return forest.status();
  return T3Model(*std::move(forest), target);
}

}  // namespace t3
