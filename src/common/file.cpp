#include "common/file.hpp"

#include <atomic>
#include <cstdint>
#include <cstdio>

#include <unistd.h>

namespace ptb {

bool read_file(const std::string& path, std::string& out, std::string* err,
               std::string_view what) {
  out.clear();
  const auto fail = [&](const char* why) {
    if (err != nullptr) *err = why + std::string(what) + " '" + path + "'";
    return false;
  };
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail("cannot open ");
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, got);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) {
    out.clear();
    return fail("read error on ");
  }
  return true;
}

bool write_file(const std::string& path, std::string_view bytes,
                std::string* err) {
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  const auto fail = [&](std::string why) {
    std::remove(tmp.c_str());  // no-op when the temp was never created
    if (err != nullptr) *err = std::move(why);
    return false;
  };
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return fail("cannot open '" + tmp + "' for writing");
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) return fail("short write to '" + tmp + "'");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("cannot rename into '" + path + "'");
  }
  return true;
}

}  // namespace ptb
