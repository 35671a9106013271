// Minimal JSON document model + strict recursive-descent parser.
//
// The one JSON reader in the repo. The observability tier reads its own
// artifacts back through it: trace files (obs::parse_trace_events), bench
// result envelopes (`dlsr perf-compare`) and metric exports (`dlsr
// analyze`), and tests use it to check that every exporter emits valid
// JSON. parse() builds a Value tree for any valid JSON document and throws
// dlsr::Error (with byte offset) on malformed input.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace dlsr::json {

/// One JSON value. Object members keep insertion order so round-tripped
/// documents stay diffable.
class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return kind == Kind::Null; }
  bool is_object() const { return kind == Kind::Object; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  /// Checked accessors: throw dlsr::Error when the kind does not match.
  double as_number() const;
  const std::string& as_string() const;
  bool as_bool() const;

  /// Convenience: find(key) then coerce, with a fallback when the member is
  /// absent. Throws when the member exists but has the wrong kind.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;
};

/// Parses one complete JSON document (trailing garbage rejected).
/// Throws dlsr::Error on syntax errors.
Value parse(const std::string& text);

/// Reads and parses a JSON file. Throws dlsr::Error on I/O or syntax errors
/// (the message names the path).
Value parse_file(const std::string& path);

}  // namespace dlsr::json
