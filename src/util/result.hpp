// SysResult<T>: expected-style result for simulated syscalls.
//
// C++20 has no std::expected, so we carry a small dedicated type. Syscall
// failure (ENOENT, EACCES, ...) is an ordinary outcome in this domain —
// target programs branch on it — so it is modelled as a value, not an
// exception. Programming errors (accessing value() of a failed result)
// throw, per the Core Guidelines split between recoverable errors and
// precondition violations.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "util/errno.hpp"

namespace ep {

class BadResultAccess : public std::logic_error {
 public:
  explicit BadResultAccess(Err e)
      : std::logic_error("SysResult accessed with error: " +
                         std::string(err_name(e))) {}
};

template <typename T>
class SysResult {
 public:
  SysResult(T value) : state_(std::move(value)) {}  // NOLINT: implicit by design
  SysResult(Err e) : state_(e) {}                   // NOLINT: implicit by design

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] Err error() const {
    return ok() ? Err::ok : std::get<Err>(state_);
  }

  [[nodiscard]] const T& value() const& {
    if (!ok()) throw BadResultAccess(std::get<Err>(state_));
    return std::get<T>(state_);
  }
  [[nodiscard]] T& value() & {
    if (!ok()) throw BadResultAccess(std::get<Err>(state_));
    return std::get<T>(state_);
  }
  [[nodiscard]] T&& value() && {
    if (!ok()) throw BadResultAccess(std::get<Err>(state_));
    return std::get<T>(std::move(state_));
  }

  [[nodiscard]] T value_or(T fallback) const {
    return ok() ? std::get<T>(state_) : std::move(fallback);
  }

 private:
  std::variant<T, Err> state_;
};

/// Tag for syscalls that return no payload (chmod, unlink, ...).
struct Unit {
  friend bool operator==(Unit, Unit) { return true; }
};

using SysStatus = SysResult<Unit>;

inline SysStatus ok_status() { return SysStatus{Unit{}}; }

/// The status a call's Err stands for: success for Err::ok.
inline SysStatus status_of(Err e) {
  if (e != Err::ok) return e;
  return ok_status();
}

}  // namespace ep
