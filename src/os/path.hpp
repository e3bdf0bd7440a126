// Path manipulation for the simulated file system.
//
// Paths are UNIX-style strings. Lexical normalization here never touches
// the file system; symlink-aware resolution lives in Vfs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ep::os::path {

/// True if p starts with '/'.
bool is_absolute(std::string_view p);

/// Call fn(component) for each non-empty component of p, in order, as a
/// view into p ("/a//b" -> "a", "b"): components() without a string per
/// component.
template <typename Fn>
void for_each_component(std::string_view p, Fn&& fn) {
  for (std::size_t i = 0; i < p.size();) {
    if (p[i] == '/') {
      ++i;
      continue;
    }
    std::size_t end = p.find('/', i);
    if (end == std::string_view::npos) end = p.size();
    fn(p.substr(i, end - i));
    i = end;
  }
}

/// Split into components, dropping empty ones ("/a//b" -> {"a","b"}).
std::vector<std::string> components(std::string_view p);

/// Join two paths; if `rel` is absolute it wins.
std::string join(std::string_view base, std::string_view rel);

/// Lexically normalize: collapse "//" and "." and apply ".." against named
/// components ("/a/b/../c" -> "/a/c"; ".." at the root is dropped).
/// Relative inputs are normalized relative ("a/../b" -> "b").
std::string normalize(std::string_view p);

/// Make p absolute against cwd, then normalize.
std::string absolutize(std::string_view p, std::string_view cwd);

/// Final component ("/a/b" -> "b", "/" -> "/").
std::string basename(std::string_view p);

/// Everything before the final component ("/a/b" -> "/a", "b" -> ".").
std::string dirname(std::string_view p);

/// True if `p` is lexically inside `root` (or equal). Both must be
/// normalized absolute paths.
bool is_under(std::string_view p, std::string_view root);

}  // namespace ep::os::path
