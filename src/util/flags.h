#pragma once

/// \file flags.h
/// Tiny declarative command-line flag parser used by examples and benches.
///
/// Supports `--name=value`, `--name value`, and boolean `--name` /
/// `--no-name` (which takes no value). Unknown flags are reported;
/// `--help` prints usage.

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace spr {

/// A set of named flags bound to caller-owned variables.
class FlagSet {
 public:
  explicit FlagSet(std::string program_description);

  /// Registers a flag bound to `*target`. The current value of `*target`
  /// is shown as the default in `--help`.
  void add_int(std::string name, int* target, std::string help);
  void add_double(std::string name, double* target, std::string help);
  void add_bool(std::string name, bool* target, std::string help);
  void add_string(std::string name, std::string* target, std::string help);
  void add_uint64(std::string name, unsigned long long* target, std::string help);

  /// Parses argv. Returns false (after printing a message) on `--help` or on
  /// a malformed/unknown flag. Leftover positional args are appended to
  /// `positional()`.
  bool parse(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const noexcept { return positional_; }

  /// Renders the usage text (also printed by `--help`).
  std::string usage() const;

 private:
  struct Flag {
    std::string help;
    std::string default_value;
    bool is_bool = false;
    std::function<bool(std::string_view)> set;  // returns false on parse error
  };

  bool apply(const std::string& name, std::string_view value);

  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace spr
