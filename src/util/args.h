// Minimal command-line flag parser for the example/bench executables.
//
// Accepts "--name=value", "--name value" and bare "--flag" booleans;
// anything not starting with "--" is a positional argument. Typed getters
// fall back to defaults and record errors instead of throwing, so tools
// can print one consolidated usage message. A boolean takes only
// true/false/1/0/yes/no, so "--quick file.scn" is an error rather than a
// flag that swallowed its positional; an empty number ("--jobs=") is an
// error too.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lrs {

class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  long get_int(const std::string& name, long def);
  double get_double(const std::string& name, double def);
  bool get_bool(const std::string& name, bool def);

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags present on the command line but never queried — typo detection.
  std::vector<std::string> unknown() const;
  /// Parse errors accumulated by the typed getters.
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
  std::vector<std::string> errors_;
};

}  // namespace lrs
