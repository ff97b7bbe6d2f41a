// Minimal JSON value type with a strict parser and serializer.
//
// Used to implement Spearmint's pause/resume feature (Section III-C of the
// paper): the Bayesian optimizer serializes its observation history and
// hyperparameter state to JSON so an optimization campaign can be stopped
// and continued, exactly as the authors relied on in their cluster setup.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace stormtune {

class Json;

using JsonArray = std::vector<Json>;
/// std::map keeps key order deterministic, which makes serialized optimizer
/// state byte-stable across runs — important for resume tests.
using JsonObject = std::map<std::string, Json>;

/// A JSON value: null, bool, number (double), string, array, or object.
class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::size_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  /// Typed accessors; throw stormtune::Error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  /// An unsigned 64-bit integer, exactly: either a string of decimal digits
  /// or an integral number in [0, 2^53] (a JSON number above 2^53 may
  /// already have been rounded by the parser). Throws on anything else —
  /// negative, fractional or out-of-range values included.
  std::uint64_t as_uint64() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  JsonArray& as_array();
  const JsonObject& as_object() const;
  JsonObject& as_object();

  /// Object member access; throws if not an object / key missing (const).
  const Json& at(const std::string& key) const;
  Json& operator[](const std::string& key);
  bool contains(const std::string& key) const;

  /// Array element access; throws if not an array / out of range.
  const Json& at(std::size_t index) const;

  std::size_t size() const;

  /// Serialize. `indent` > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

  /// The canonical number rendering dump() uses: integers in [-2^53, 2^53)
  /// print without a decimal point, everything else as %.17g — enough
  /// digits that parse(number_to_string(d)) round-trips every finite
  /// double bit-exactly. All benchmark JSON (BENCH_*.json) numeric output
  /// goes through this one formatter. Throws on non-finite input.
  static std::string number_to_string(double d);

  /// The value as_uint64() reads back exactly: a number up to 2^53, a
  /// decimal string above it.
  static Json from_uint64(std::uint64_t v);

  /// Parse a complete JSON document; throws stormtune::Error on any
  /// syntax error or trailing garbage.
  static Json parse(const std::string& text);

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

}  // namespace stormtune
