// Run-provenance manifest: everything needed to compare a BENCH_*.json
// artifact across PRs and machines without guessing — the git revision,
// build configuration and the GF(256)/SHA-256 kernels the dispatchers
// actually selected at runtime. Deliberately hostname-free: two runs of
// the same commit on the same microarchitecture produce the same manifest.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace lrs {
class Table;
}

namespace lrs::core {

struct Provenance {
  std::string git_sha;        // short commit hash at build time
  bool git_dirty = false;     // working tree differed from git_sha
  std::string build_type;     // CMAKE_BUILD_TYPE
  std::string compiler;       // e.g. "g++ 13.2.0" (from __VERSION__)
  std::string cxx_standard;   // e.g. "c++20"
  std::string gf256_kernel;            // active GF(256) kernel name
  std::vector<std::string> gf256_available;
  std::string sha256_kernel;           // active SHA-256 kernel name
  std::string sha256_batch_kernel;     // active batch kernel, "none" if n/a
  std::vector<std::string> sha256_available;
};

/// Queries the kernel dispatchers (forcing selection if it has not run
/// yet) and the baked-in build facts.
Provenance collect_provenance();

/// `["a", "b"]` with every item escaped: a provenance extra value.
std::string json_string_array(const std::vector<std::string>& items);

/// The manifest as one JSON object, each line prefixed with `indent`.
/// `extra` appends caller-supplied key/value pairs (values emitted
/// verbatim, so pass pre-quoted strings or raw numbers). Typical use:
///
///   out << "  \"provenance\": "
///       << provenance_json("  ", {{"seed_base", "1"}, {"repeats", "3"}});
std::string provenance_json(
    const std::string& indent = "  ",
    const std::vector<std::pair<std::string, std::string>>& extra = {});

/// The one BENCH_*.json document shape every harness writes:
///
///   {"bench": name, "provenance": {...}, "columns": [...], "rows": [[...]]}
///
/// stamped with provenance_json(extra). A cell that reads as a JSON number
/// or boolean is emitted bare; every other cell and every column name is
/// an escaped JSON string. `trace_analyze --bench-check` validates it.
std::string bench_json(
    const std::string& name, const Table& table,
    const std::vector<std::pair<std::string, std::string>>& extra = {});

}  // namespace lrs::core
