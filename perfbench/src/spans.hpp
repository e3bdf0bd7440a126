// The traced run's span recorder.
//
// A span is one call into a layer, timed from the benchmark's side of the
// boundary: name, start, end, the span that caused it (parent), the op it
// belongs to, the thread it ran on, and up to three integer attributes
// whose meaning depends on the name (worker id, lease seq, byte count...).
// Spans stay in memory, one buffer per thread so pool threads never
// contend, and are written out once at exit. Every per-layer metric is
// derived from them (ledger.cpp).
//
// Recording is off unless set_enabled(true): the untraced run never turns
// it on, and its ops do not go through the decorators at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // a string literal: names are never freed
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint32_t op = 0;
  std::uint32_t thread = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;

  [[nodiscard]] std::int64_t dur_ns() const { return end_ns - start_ns; }
};

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

namespace spans {

void set_enabled(bool on);
bool enabled();

/// Spans opened on threads with no open span of their own (the engine's
/// pool threads) are parented to the current op's root span.
void set_op(std::uint32_t op, std::uint64_t root_span);

/// How many spans have been recorded so far, across threads.
std::size_t recorded();

/// Every span recorded so far, across threads, in start order.
std::vector<Span> collect();

/// One JSON object per line: name, start/end (ns), id, parent, op,
/// thread, a/b/c.
void write_jsonl(const std::string& path, const std::vector<Span>& all);

}  // namespace spans

/// RAII span: opened at construction, closed at destruction. A no-op
/// while recording is disabled.
class Scope {
 public:
  explicit Scope(const char* name, std::int64_t a = 0, std::int64_t b = 0,
                 std::int64_t c = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Attributes known only once the call returns (a returned worker id,
  /// an encoded size).
  void set(std::int64_t a, std::int64_t b = 0, std::int64_t c = 0);
  [[nodiscard]] std::uint64_t id() const;

 private:
  void* buf_ = nullptr;  // the owning thread's buffer; null = disabled
  std::size_t slot_ = 0;
};

}  // namespace perfbench
