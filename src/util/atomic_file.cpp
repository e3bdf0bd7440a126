#include "util/atomic_file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <unistd.h>

namespace ep {

void write_file_atomic(const std::string& path, const std::string& content,
                       bool durable) {
  std::string tmp = path + ".tmp.XXXXXX";
  int fd = ::mkstemp(tmp.data());
  if (fd < 0)
    throw std::runtime_error("cannot write '" + path +
                             "': " + std::strerror(errno));
  const char* failed = nullptr;
  std::size_t off = 0;
  while (!failed && off < content.size()) {
    ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0 && errno != EINTR) failed = "write";
    if (n > 0) off += static_cast<std::size_t>(n);
  }
  if (!failed && durable && ::fsync(fd) != 0) failed = "fsync";
  if (::close(fd) != 0 && !failed) failed = "close";
  if (!failed && std::rename(tmp.c_str(), path.c_str()) != 0)
    failed = "rename";
  if (failed) {
    const int saved = errno;
    (void)::unlink(tmp.c_str());
    throw std::runtime_error("cannot write '" + path + "' (" + failed +
                             "): " + std::strerror(saved));
  }
}

}  // namespace ep
