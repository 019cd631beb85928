#include "core/provenance.h"

#include <sstream>

#include "crypto/sha256_kernels.h"
#include "erasure/gf256_kernels.h"
#include "sim/stats/stats.h"
#include "util/csv.h"

// LRS_GIT_SHA / LRS_GIT_DIRTY, regenerated on every build by
// src/core/git_rev.cmake.
#include "git_rev.h"

#ifndef LRS_BUILD_TYPE
#define LRS_BUILD_TYPE ""
#endif

namespace lrs::core {
namespace {

using stats::json_escape;

/// True when `s` is a JSON number or boolean token, so it can be emitted
/// bare rather than as a quoted string.
bool json_bare_cell(const std::string& s) {
  if (s == "true" || s == "false") return true;
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t start = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > start;
  };
  if (i < s.size() && s[i] == '-') ++i;
  if (i < s.size() && s[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == s.size();
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string cxx_standard() {
  std::ostringstream os;
  os << "c++" << (__cplusplus / 100 % 100);
  return os.str();
}

}  // namespace

std::string json_string_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += '"';
    out += json_escape(items[i]);
    out += '"';
  }
  return out + "]";
}

Provenance collect_provenance() {
  Provenance p;
  p.git_sha = LRS_GIT_SHA;
  p.git_dirty = LRS_GIT_DIRTY;
  p.build_type = LRS_BUILD_TYPE;
  p.compiler = compiler_id();
  p.cxx_standard = cxx_standard();
  p.gf256_kernel = erasure::gf256_kernel().name;
  p.gf256_available = erasure::gf256_available_kernels();
  p.sha256_kernel = crypto::sha256_kernel().name;
  const auto* batch = crypto::sha256_batch_kernel();
  p.sha256_batch_kernel = batch != nullptr ? batch->name : "none";
  p.sha256_available = crypto::sha256_available_kernels();
  return p;
}

std::string provenance_json(
    const std::string& indent,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  const Provenance p = collect_provenance();
  std::ostringstream os;
  const std::string in2 = indent + "  ";
  os << "{\n";
  os << in2 << "\"git_sha\": \"" << json_escape(p.git_sha) << "\",\n";
  os << in2 << "\"git_dirty\": " << (p.git_dirty ? "true" : "false")
     << ",\n";
  os << in2 << "\"build_type\": \"" << json_escape(p.build_type) << "\",\n";
  os << in2 << "\"compiler\": \"" << json_escape(p.compiler) << "\",\n";
  os << in2 << "\"cxx_standard\": \"" << json_escape(p.cxx_standard)
     << "\",\n";
  os << in2 << "\"gf256_kernel\": \"" << json_escape(p.gf256_kernel)
     << "\",\n";
  os << in2 << "\"gf256_available\": " << json_string_array(p.gf256_available)
     << ",\n";
  os << in2 << "\"sha256_kernel\": \"" << json_escape(p.sha256_kernel)
     << "\",\n";
  os << in2 << "\"sha256_batch_kernel\": \""
     << json_escape(p.sha256_batch_kernel) << "\",\n";
  os << in2
     << "\"sha256_available\": " << json_string_array(p.sha256_available);
  for (const auto& [key, value] : extra) {
    os << ",\n" << in2 << "\"" << json_escape(key) << "\": " << value;
  }
  os << "\n" << indent << "}";
  return os.str();
}

std::string bench_json(
    const std::string& name, const Table& table,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  std::ostringstream os;
  os << "{\n  \"bench\": \"" << json_escape(name) << "\",\n";
  os << "  \"provenance\": " << provenance_json("  ", extra) << ",\n";
  os << "  \"columns\": " << json_string_array(table.header()) << ",\n";
  os << "  \"rows\": [\n";
  const auto& rows = table.row_data();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    os << "    [";
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      if (c) os << ", ";
      if (json_bare_cell(rows[r][c])) {
        os << rows[r][c];
      } else {
        os << "\"" << json_escape(rows[r][c]) << "\"";
      }
    }
    os << "]" << (r + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace lrs::core
