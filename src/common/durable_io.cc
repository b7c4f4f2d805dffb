#include "common/durable_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace collie::durable_io {
namespace {

// Slicing-by-8 tables: tables[0] is the classic bytewise table, and
// tables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// input bytes fold into the register with eight independent lookups.
using CrcTables = std::array<std::array<u32, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (u32 i = 0; i < 256; ++i) {
      const u32 prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

u32 load_u32le(const unsigned char* p) {
  return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
         (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
}

std::string errno_string(const char* what, const std::string& path) {
  return std::string(what) + " '" + path + "': " + std::strerror(errno);
}

// Directory containing `path` ("." when the path has no slash), so the
// rename itself can be made durable with a directory fsync.
std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

bool fail(std::string* error, std::string message, const std::string& tmp) {
  if (!tmp.empty()) ::unlink(tmp.c_str());
  if (error) *error = std::move(message);
  return false;
}

}  // namespace

u32 crc32(const void* data, std::size_t n, u32 seed) {
  static const CrcTables t = make_crc_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  u32 c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const u32 lo = load_u32le(p) ^ c;
    const u32 hi = load_u32le(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

bool atomic_write(const std::string& path, std::string_view content,
                  std::string* error) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail(error, errno_string("cannot create", tmp), "");

  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string msg = errno_string("write failed for", tmp);
      ::close(fd);
      return fail(error, msg, tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string msg = errno_string("fsync failed for", tmp);
    ::close(fd);
    return fail(error, msg, tmp);
  }
  if (::close(fd) != 0) {
    return fail(error, errno_string("close failed for", tmp), tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail(error, errno_string("rename failed onto", path), tmp);
  }
  // Persist the rename itself.  Failure here is not fatal to correctness of
  // the content (the file is complete either way), so only report it.
  const std::string dir = parent_dir(path);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

}  // namespace collie::durable_io
