#include "util/errno.hpp"

namespace ep {

std::string_view err_name(Err e) {
  switch (e) {
    case Err::ok: return "OK";
    case Err::noent: return "ENOENT";
    case Err::acces: return "EACCES";
    case Err::exist: return "EEXIST";
    case Err::notdir: return "ENOTDIR";
    case Err::isdir: return "EISDIR";
    case Err::loop: return "ELOOP";
    case Err::nametoolong: return "ENAMETOOLONG";
    case Err::perm: return "EPERM";
    case Err::badf: return "EBADF";
    case Err::inval: return "EINVAL";
    case Err::noexec: return "ENOEXEC";
    case Err::nosys: return "ENOSYS";
    case Err::srch: return "ESRCH";
    case Err::conn: return "ECONNREFUSED";
    case Err::proto: return "EPROTO";
    case Err::again: return "EAGAIN";
    case Err::io: return "EIO";
    case Err::xdev: return "EXDEV";
    case Err::notempty: return "ENOTEMPTY";
    case Err::busy: return "EBUSY";
  }
  return "E?";
}

std::string_view err_message(Err e) {
  switch (e) {
    case Err::ok: return "success";
    case Err::noent: return "no such file or directory";
    case Err::acces: return "permission denied";
    case Err::exist: return "file exists";
    case Err::notdir: return "not a directory";
    case Err::isdir: return "is a directory";
    case Err::loop: return "too many levels of symbolic links";
    case Err::nametoolong: return "file name too long";
    case Err::perm: return "operation not permitted";
    case Err::badf: return "bad file descriptor";
    case Err::inval: return "invalid argument";
    case Err::noexec: return "exec format error";
    case Err::nosys: return "function not implemented";
    case Err::srch: return "no such process";
    case Err::conn: return "connection refused";
    case Err::proto: return "protocol error";
    case Err::again: return "resource temporarily unavailable";
    case Err::io: return "input/output error";
    case Err::xdev: return "cross-device link";
    case Err::notempty: return "directory not empty";
    case Err::busy: return "device or resource busy";
  }
  return "unknown error";
}

}  // namespace ep
