#include "obs/search_stats.h"

#include <sstream>

namespace tgks::obs {

std::string_view PhaseName(std::string_view seconds_field) {
  constexpr std::string_view kPrefix = "seconds_";
  if (seconds_field.substr(0, kPrefix.size()) == kPrefix) {
    seconds_field.remove_prefix(kPrefix.size());
  }
  return seconds_field;
}

namespace {

template <typename T>
void Append(std::string* out, std::string_view name, T value) {
  std::ostringstream os;
  if (!out->empty()) os << ' ';
  os << name << '=' << value;
  *out += os.str();
}

}  // namespace

void AppendKeyValue(std::string* out, std::string_view name, int64_t value) {
  Append(out, name, value);
}

void AppendKeyValue(std::string* out, std::string_view name, double value) {
  Append(out, name, value);
}

}  // namespace tgks::obs
