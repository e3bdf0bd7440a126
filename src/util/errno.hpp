// Error codes for the simulated syscall layer.
//
// These mirror the POSIX errno values the paper's target programs would
// have seen on a real UNIX; the names are kept close to errno(3) so the
// simulated applications read like the originals.
#pragma once

#include <string_view>

namespace ep {

enum class Err {
  ok = 0,
  noent,        // no such file or directory
  acces,        // permission denied
  exist,        // file exists (O_EXCL)
  notdir,       // a path component is not a directory
  isdir,        // operation not valid on a directory
  loop,         // too many symbolic links
  nametoolong,  // path or component too long
  perm,         // operation not permitted (ownership / privilege)
  badf,         // bad file descriptor
  inval,        // invalid argument
  noexec,       // not an executable / no registered image
  nosys,        // unsupported operation
  srch,         // no such process
  conn,         // connection refused / service unavailable
  proto,        // protocol error
  again,        // resource temporarily unavailable
  io,           // input/output error
  xdev,         // cross-device link
  notempty,     // directory not empty
  busy,         // resource busy (rename of `.` or `..`)
};

/// errno-style short name, e.g. Err::acces -> "EACCES".
std::string_view err_name(Err e);

/// Human-readable message, e.g. Err::acces -> "permission denied".
std::string_view err_message(Err e);

}  // namespace ep
