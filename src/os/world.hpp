// World building: root-privileged helpers for constructing the initial
// environment of a scenario (directories, files, programs, users).
//
// These operate directly on the Vfs with root credentials and never touch
// the hook chain — the world builder is the experimenter, not the program
// under test. Campaign runs rebuild the world from scratch through these
// helpers, which is what makes injection runs independent.
#pragma once

#include <string>
#include <string_view>

#include "os/kernel.hpp"

namespace ep::os::world {

/// mkdir -p: create every missing component as root. The leaf takes
/// `uid`, `gid` and `mode`; any ancestor that has to be created is
/// root:root 0755. Returns the final directory's inode. Throws
/// std::logic_error if a component exists as a non-directory (a broken
/// scenario is a programming error).
Ino mkdirs(Kernel& k, std::string_view path, Uid uid = kRootUid,
           Gid gid = kRootGid, unsigned mode = 0755);

/// Install (or overwrite) a regular file, creating parent directories.
Ino put_file(Kernel& k, const std::string& path, std::string content,
             Uid uid = kRootUid, Gid gid = kRootGid, unsigned mode = 0644);

/// Install a symlink (parents created as root/0755).
Ino put_symlink(Kernel& k, const std::string& linkpath, std::string target,
                Uid uid = kRootUid, Gid gid = kRootGid);

/// Install an executable backed by a registered image name.
/// mode may include kSetUidBit for set-uid programs.
Ino put_program(Kernel& k, const std::string& path, const std::string& image,
                Uid uid = kRootUid, Gid gid = kRootGid, unsigned mode = 0755);

/// Remove a path if present (root privilege), for perturbers and tests.
void force_remove(Kernel& k, const std::string& path);

/// Standard skeleton: /etc (incl. passwd + shadow with secret content),
/// /bin, /usr/bin, /usr/local/lib, /tmp (world-writable), /home, /var.
void standard_unix(Kernel& k);

/// Content markers used by standard_unix for the classic victim files, so
/// tests and the oracle can recognize leaked or clobbered secrets.
inline constexpr const char* kShadowContent =
    "root:$1$SECRET-SHADOW-HASH$:10000:0:99999\n"
    "daemon:*:10000:0:99999\n";
inline constexpr const char* kPasswdContent =
    "root:x:0:0:root:/:/bin/sh\n"
    "daemon:x:1:1:daemon:/:/bin/false\n";

}  // namespace ep::os::world
