#include "serve/access_log.hpp"

#include <cerrno>
#include <cstring>

namespace ptb::serve {

AccessLog::~AccessLog() {
  if (file_ != nullptr && owns_file_) std::fclose(file_);
}

bool AccessLog::open(const std::string& path, LogLevel level,
                     std::string& err) {
  if (path == "-") {
    file_ = stderr;
    owns_file_ = false;
  } else {
    file_ = std::fopen(path.c_str(), "ab");
    if (file_ == nullptr) {
      err = "cannot open log file '" + path + "': " + std::strerror(errno);
      return false;
    }
    owns_file_ = true;
  }
  level_ = level;
  return true;
}

void AccessLog::write_line(std::string_view json) {
  if (file_ == nullptr) return;
  MutexLock lock(mu_);
  std::fwrite(json.data(), 1, json.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

}  // namespace ptb::serve
