// FixedBuffer: the simulated fixed-size C buffer.
//
// Target programs copy environment-derived strings into these. An
// *unchecked* copy that exceeds capacity is the classic smash: it reports
// a buffer_overflow app fault through the kernel (so the oracle sees a
// memory-safety violation if the process is privileged, and the Fuzz
// baseline sees the subsequent crash) and then aborts the program the way
// a SIGSEGV would. A *checked* copy models strncpy-style defensive code.
//
// Every buffer also carries a token-poisoned redzone past its storage
// (see os/redzone.hpp): the constructor registers the guard with the
// kernel and the destructor validates it, so a *wild* copy — one that
// silently runs past capacity without self-reporting, the corruption
// class copy_unchecked's explicit check cannot model — is caught as an
// AppFault::redzone_corruption at the buffer's site.
#pragma once

#include <algorithm>
#include <string>

#include "os/kernel.hpp"
#include "os/redzone.hpp"

namespace ep::apps {

class FixedBuffer {
 public:
  FixedBuffer(os::Kernel& k, os::Pid pid, os::Site site, std::size_t capacity)
      : kernel_(k), pid_(pid), site_(std::move(site)), capacity_(capacity) {
    kernel_.register_redzone_guard(
        site_, pid_, "buffer at " + site_.str(), &redzone_);
  }

  /// Validates the guard (reporting redzone_corruption if a wild copy
  /// overwrote the poison) and drops the registration. Runs during
  /// AppCrash unwinding too, so a crashing run still gets its report.
  ~FixedBuffer() { kernel_.unregister_redzone_guard(&redzone_); }

  // The kernel holds a pointer to redzone_ until destruction; a copied
  // buffer would dangle or double-report.
  FixedBuffer(const FixedBuffer&) = delete;
  FixedBuffer& operator=(const FixedBuffer&) = delete;

  /// strcpy: no bounds check. Overflow = report + crash.
  void copy_unchecked(const std::string& s) {
    if (s.size() >= capacity_) {
      kernel_.app_fault(site_, pid_, os::AppFault::buffer_overflow,
                        "copied " + std::to_string(s.size()) +
                            " bytes into a " + std::to_string(capacity_) +
                            "-byte buffer");
      data_ = s.substr(0, capacity_ - 1);
      throw os::AppCrash{139, "buffer overflow at " + site_.str()};
    }
    data_ = s;
  }

  /// strncpy-with-check: returns false (and copies nothing) when the
  /// string does not fit. Never touches the redzone — a checked copy is
  /// exactly the defensive idiom the guard exists to vindicate.
  [[nodiscard]] bool copy_checked(const std::string& s) {
    if (s.size() >= capacity_) return false;
    data_ = s;
    return true;
  }

  /// memcpy with a wrong (or missing) length computation: copies up to
  /// capacity into storage and lets the excess run silently into the
  /// redzone. No report, no crash — the program keeps running on
  /// corrupted memory. Detection is the oracle's job, at the next
  /// syscall touching the region or at the buffer's destruction.
  void copy_wild(const std::string& s) {
    data_ = s.substr(0, std::min(s.size(), capacity_));
    if (s.size() > capacity_) {
      std::size_t spill = std::min(s.size() - capacity_, redzone_.size());
      std::copy_n(s.begin() + static_cast<std::ptrdiff_t>(capacity_), spill,
                  redzone_.begin());
    }
  }

  [[nodiscard]] const std::string& str() const { return data_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  os::Kernel& kernel_;
  os::Pid pid_;
  os::Site site_;
  std::size_t capacity_;
  std::string data_;
  os::redzone::Guard redzone_;
};

}  // namespace ep::apps
