// The one way the tool writes a real file.
//
// The paper's most common flaw is a privileged program writing to a
// path an attacker can predict: a symlink planted at the target, or at
// its temp name, redirects the write. write_file_atomic() creates its
// temp file with mkstemp() in the target's directory (O_CREAT|O_EXCL,
// mode 0600, an unguessable name), writes it, optionally fsyncs it, and
// renames it over the target. rename() replaces a symlink at the target
// instead of following it, so a reader sees the old file or the new
// one, never half of each and never a file somewhere else.
#pragma once

#include <string>

namespace ep {

/// Write `content` to `path` through a fresh temp file
/// `<path>.tmp.XXXXXX` and a rename. `durable` fsyncs the temp file
/// before the rename — for reports and checkpoints a resume depends on;
/// a file that means nothing once its writer is gone (a port file) skips
/// the flush. The temp file is unlinked on any failure. Throws
/// std::runtime_error naming the path.
void write_file_atomic(const std::string& path, const std::string& content,
                       bool durable = true);

}  // namespace ep
