#include "util/args.h"

#include <cstdlib>

namespace lrs {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--name value" unless the next token is another flag (then boolean).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

bool Args::has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) > 0;
}

std::string Args::get(const std::string& name, const std::string& def) const {
  queried_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

long Args::get_int(const std::string& name, long def) {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  if (it->second.empty() || *end != '\0') {
    errors_.push_back("--" + name + " expects an integer, got '" +
                      it->second + "'");
    return def;
  }
  return v;
}

double Args::get_double(const std::string& name, double def) {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (it->second.empty() || *end != '\0') {
    errors_.push_back("--" + name + " expects a number, got '" + it->second +
                      "'");
    return def;
  }
  return v;
}

bool Args::get_bool(const std::string& name, bool def) {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  errors_.push_back("--" + name + " expects true/false/1/0/yes/no, got '" +
                    v + "'");
  return def;
}

std::vector<std::string> Args::unknown() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    if (!queried_.count(k)) out.push_back("--" + k);
  }
  return out;
}

}  // namespace lrs
