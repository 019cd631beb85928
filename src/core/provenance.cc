#include "core/provenance.h"

#include <sstream>

#include "crypto/sha256_kernels.h"
#include "erasure/gf256_kernels.h"
#include "sim/stats/stats.h"

// Baked in by CMake (execute_process over git rev-parse at configure time);
// falls back to "unknown" for tarball builds without a .git directory.
#ifndef LRS_GIT_SHA
#define LRS_GIT_SHA "unknown"
#endif
#ifndef LRS_BUILD_TYPE
#define LRS_BUILD_TYPE ""
#endif

namespace lrs::core {
namespace {

using stats::json_escape;

std::string json_string_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + json_escape(items[i]) + "\"";
  }
  return out + "]";
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

Provenance collect_provenance() {
  Provenance p;
  p.git_sha = LRS_GIT_SHA;
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

}  // namespace lrs::core
