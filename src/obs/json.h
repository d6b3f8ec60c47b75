// Minimal recursive-descent JSON reader.
//
// Just enough to load the files this library writes back in — metrics
// snapshots for ctstat and trace files for tests. Objects preserve key
// order (vector of pairs) so diagnostics can mirror the file. Parse errors,
// including containers nested deeper than 256 levels, throw
// std::runtime_error with an offset.
#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ctobs {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0;
  std::string string_value;
  std::vector<JsonValue> array_items;
  std::vector<std::pair<std::string, JsonValue>> object_items;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  // First value under `key`, or null when absent / not an object.
  const JsonValue* Find(const std::string& key) const;
};

// Throws std::runtime_error on malformed input or trailing garbage.
JsonValue ParseJson(const std::string& text);

}  // namespace ctobs

#endif  // SRC_OBS_JSON_H_
