#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench {

namespace {

struct ThreadBuf {
  std::uint32_t index = 0;
  std::vector<Span> spans;
  std::vector<std::size_t> open;  // slots of this thread's open spans
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_op{0};
std::atomic<std::uint64_t> g_op_root{0};

// Buffers outlive their threads: the engine's pool threads exit after
// every parallel_for, and their spans are collected at the end.
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_registry;

ThreadBuf& this_thread_buf() {
  thread_local ThreadBuf* tb = nullptr;
  if (!tb) {
    auto owned = std::make_unique<ThreadBuf>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    owned->index = static_cast<std::uint32_t>(g_registry.size());
    owned->spans.reserve(4096);
    tb = owned.get();
    g_registry.push_back(std::move(owned));
  }
  return *tb;
}

std::uint64_t span_id(const ThreadBuf& tb, std::size_t slot) {
  return (static_cast<std::uint64_t>(tb.index + 1) << 32) |
         static_cast<std::uint64_t>(slot);
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace spans {

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_op(std::uint32_t op, std::uint64_t root_span) {
  g_op.store(op, std::memory_order_relaxed);
  g_op_root.store(root_span, std::memory_order_relaxed);
}

std::size_t recorded() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::size_t n = 0;
  for (const auto& tb : g_registry) n += tb->spans.size();
  return n;
}

std::vector<Span> collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& tb : g_registry)
    all.insert(all.end(), tb->spans.begin(), tb->spans.end());
  std::sort(all.begin(), all.end(), [](const Span& x, const Span& y) {
    return x.start_ns != y.start_ns ? x.start_ns < y.start_ns : x.id < y.id;
  });
  return all;
}

void write_jsonl(const std::string& path, const std::vector<Span>& all) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + path);
  for (const Span& s : all)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"op\":%u,\"thread\":%u,"
                 "\"a\":%lld,\"b\":%lld,\"c\":%lld}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.op, s.thread,
                 static_cast<long long>(s.a), static_cast<long long>(s.b),
                 static_cast<long long>(s.c));
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace spans

Scope::Scope(const char* name, std::int64_t a, std::int64_t b,
             std::int64_t c) {
  if (!spans::enabled()) return;
  ThreadBuf& tb = this_thread_buf();
  Span s;
  s.name = name;
  s.op = g_op.load(std::memory_order_relaxed);
  s.thread = tb.index;
  s.a = a;
  s.b = b;
  s.c = c;
  slot_ = tb.spans.size();
  s.id = span_id(tb, slot_);
  s.parent = tb.open.empty() ? g_op_root.load(std::memory_order_relaxed)
                             : span_id(tb, tb.open.back());
  tb.spans.push_back(s);
  tb.open.push_back(slot_);
  buf_ = &tb;
  tb.spans[slot_].start_ns = now_ns();
}

Scope::~Scope() {
  if (!buf_) return;
  auto& tb = *static_cast<ThreadBuf*>(buf_);
  tb.spans[slot_].end_ns = now_ns();
  tb.open.pop_back();
}

void Scope::set(std::int64_t a, std::int64_t b, std::int64_t c) {
  if (!buf_) return;
  Span& s = static_cast<ThreadBuf*>(buf_)->spans[slot_];
  s.a = a;
  s.b = b;
  s.c = c;
}

std::uint64_t Scope::id() const {
  if (!buf_) return 0;
  return span_id(*static_cast<ThreadBuf*>(buf_), slot_);
}

}  // namespace perfbench
