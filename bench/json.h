// Minimal JSON model + recursive-descent parser for the documents the
// bench harnesses and the simulator write: BENCH_*.json artifacts, metrics
// exports. No surrogate pairs, no extension syntax, but strict about
// structure, so a truncated or hand-edited file fails loudly. Number tokens
// keep their raw text, because counters need u64 exactness.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace lrs::bench {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string raw;  // number token verbatim: counters need u64 exactness
  std::string str;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;  // insertion order

  const Json* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  bool is(Kind k) const { return kind == k; }
  /// The number token as an exact u64; nullopt for signs/fractions/overflow.
  std::optional<std::uint64_t> as_u64() const {
    if (kind != Kind::kNumber || raw.empty()) return std::nullopt;
    for (char c : raw) {
      if (c < '0' || c > '9') return std::nullopt;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(raw.c_str(), &end, 10);
    if (errno != 0 || end != raw.c_str() + raw.size()) return std::nullopt;
    return static_cast<std::uint64_t>(v);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  std::optional<Json> parse() {
    auto v = value();
    skip_ws();
    if (!v || pos_ != s_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<std::string> string_token() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) return std::nullopt;
        const char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return std::nullopt;
            }
            // ASCII only; anything else degrades to '?' (names are ASCII).
            out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
            break;
          }
          default: return std::nullopt;
        }
      } else {
        out.push_back(c);
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> value() {
    skip_ws();
    if (pos_ >= s_.size()) return std::nullopt;
    const char c = s_[pos_];
    Json v;
    if (c == '{') {
      ++pos_;
      v.kind = Json::Kind::kObject;
      skip_ws();
      if (eat('}')) return v;
      while (true) {
        auto key = string_token();
        if (!key || !eat(':')) return std::nullopt;
        auto child = value();
        if (!child) return std::nullopt;
        v.object.emplace_back(std::move(*key), std::move(*child));
        if (eat(',')) continue;
        if (eat('}')) return v;
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = Json::Kind::kArray;
      skip_ws();
      if (eat(']')) return v;
      while (true) {
        auto child = value();
        if (!child) return std::nullopt;
        v.array.push_back(std::move(*child));
        if (eat(',')) continue;
        if (eat(']')) return v;
        return std::nullopt;
      }
    }
    if (c == '"') {
      auto s = string_token();
      if (!s) return std::nullopt;
      v.kind = Json::Kind::kString;
      v.str = std::move(*s);
      return v;
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      v.kind = Json::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      v.kind = Json::Kind::kBool;
      return v;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return v;  // kNull
    }
    // Number, the JSON grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
    const std::size_t start = pos_;
    const auto digits = [&] {
      const std::size_t from = pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
      return pos_ > from;
    };
    if (c == '-') ++pos_;
    if (pos_ < s_.size() && s_[pos_] == '0') {
      ++pos_;
    } else if (!digits()) {
      return std::nullopt;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!digits()) return std::nullopt;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digits()) return std::nullopt;
    }
    v.kind = Json::Kind::kNumber;
    v.raw = s_.substr(start, pos_ - start);
    try {
      v.number = std::stod(v.raw);
    } catch (...) {
      return std::nullopt;
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// The file at `path` parsed as one JSON value; nullopt when it cannot be
/// read or does not parse.
inline std::optional<Json> parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return JsonParser(text).parse();
}

}  // namespace lrs::bench
