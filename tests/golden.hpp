// Golden transcripts: the wire bytes fixed inputs produced when every
// command still ran through a serial per-command path, checked in under
// tests/golden/ so the single batched path is held to them byte for byte.
//
// File format — a sequence of parts, each
//   "== <name> <length>\n" <length raw bytes> "\n"
// so CRLFs and binary payloads survive verbatim (.gitattributes keeps git
// from touching line endings).
#pragma once

#include <cstddef>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pamakv::test {

class Golden {
 public:
  /// Loads tests/golden/<file>.
  explicit Golden(const std::string& file) {
    const std::string path = std::string(PAMAKV_GOLDEN_DIR) + "/" + file;
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open golden file " + path);
    const std::string data((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t eol = data.find('\n', pos);
      if (data.compare(pos, 3, "== ") != 0 || eol == std::string::npos) {
        throw std::runtime_error("malformed golden file " + path);
      }
      const std::string header = data.substr(pos + 3, eol - pos - 3);
      const std::size_t space = header.rfind(' ');
      const std::size_t length = std::stoul(header.substr(space + 1));
      parts_[header.substr(0, space)] = data.substr(eol + 1, length);
      pos = eol + 1 + length + 1;
    }
  }

  /// The bytes recorded under `part`; throws when there is none.
  [[nodiscard]] const std::string& at(const std::string& part) const {
    const auto it = parts_.find(part);
    if (it == parts_.end()) throw std::out_of_range("no golden part " + part);
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& part) const {
    return parts_.count(part) != 0;
  }

 private:
  std::map<std::string, std::string> parts_;
};

/// Drops the "STAT failpoint.<name>" lines that injection builds append
/// to `stats`; the transcripts were recorded without them.
inline std::string WithoutFailpointStats(std::string_view wire) {
  std::string out;
  std::size_t pos = 0;
  while (pos < wire.size()) {
    std::size_t eol = wire.find('\n', pos);
    eol = eol == std::string_view::npos ? wire.size() : eol + 1;
    const std::string_view line = wire.substr(pos, eol - pos);
    if (line.substr(0, 15) != "STAT failpoint.") out.append(line);
    pos = eol;
  }
  return out;
}

}  // namespace pamakv::test
