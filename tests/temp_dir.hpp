// A fresh directory under the test's working directory, removed with
// everything in it when the object goes, so repeated runs stay clean.
#pragma once

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace olfui {

struct TempDir {
  std::string path;
  /// The directory is named `prefix` plus six random characters.
  explicit TempDir(const std::string& prefix) {
    std::string tmpl = prefix + "XXXXXX";
    if (!mkdtemp(tmpl.data())) throw std::runtime_error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

}  // namespace olfui
