#include "os/path.hpp"

#include "util/strings.hpp"

namespace ep::os::path {

namespace {

/// p without its trailing slashes ("/a/b//" -> "/a/b", "///" -> "").
std::string_view trim_trailing_slashes(std::string_view p) {
  std::size_t last = p.find_last_not_of('/');
  return last == std::string_view::npos ? std::string_view{}
                                        : p.substr(0, last + 1);
}

}  // namespace

bool is_absolute(std::string_view p) { return !p.empty() && p[0] == '/'; }

std::vector<std::string> components(std::string_view p) {
  std::vector<std::string> out;
  for_each_component(p, [&](std::string_view c) { out.emplace_back(c); });
  return out;
}

std::string join(std::string_view base, std::string_view rel) {
  if (is_absolute(rel) || base.empty()) return std::string(rel);
  if (rel.empty()) return std::string(base);
  std::string out(base);
  if (out.back() != '/') out += '/';
  out += rel;
  return out;
}

std::string normalize(std::string_view p) {
  const bool abs = is_absolute(p);
  std::string out;
  out.reserve(p.size() + 1);
  if (abs) out += '/';
  const std::size_t base = out.size();
  // Named components in `out`, after any leading ".." a relative path
  // keeps: only these can be taken back by a "..".
  std::size_t named = 0;
  auto append = [&](std::string_view c) {
    if (out.size() > base) out += '/';
    out += c;
  };
  for_each_component(p, [&](std::string_view c) {
    if (c == ".") return;
    if (c == "..") {
      if (named > 0) {
        std::size_t cut = out.rfind('/');
        out.resize(cut == std::string::npos || cut < base ? base : cut);
        --named;
      } else if (!abs) {
        append("..");  // relative paths keep leading ".."
      }
      // ".." at the root of an absolute path is dropped, as the kernel does
      return;
    }
    append(c);
    ++named;
  });
  if (out.empty()) return ".";
  return out;
}

std::string absolutize(std::string_view p, std::string_view cwd) {
  if (is_absolute(p)) return normalize(p);
  return normalize(join(cwd, p));
}

std::string basename(std::string_view p) {
  std::string_view head = trim_trailing_slashes(p);
  if (head.empty()) return is_absolute(p) ? "/" : ".";
  return std::string(head.substr(head.rfind('/') + 1));  // npos + 1 == 0
}

std::string dirname(std::string_view p) {
  const bool abs = is_absolute(p);
  std::string_view head = trim_trailing_slashes(p);
  std::size_t cut = head.rfind('/');
  std::string out;
  if (cut != std::string_view::npos) {
    out.reserve(cut + 1);
    for_each_component(head.substr(0, cut), [&](std::string_view c) {
      if (abs || !out.empty()) out += '/';
      out += c;
    });
  }
  if (out.empty()) return abs ? "/" : ".";
  return out;
}

bool is_under(std::string_view p, std::string_view root) {
  if (root == "/") return is_absolute(p);
  if (p == root) return true;
  return p.size() > root.size() && ep::starts_with(p, root) &&
         p[root.size()] == '/';
}

}  // namespace ep::os::path
