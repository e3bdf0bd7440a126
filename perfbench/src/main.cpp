// perfbench_driver: the repository benchmark (see perfbench/README.md).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --epa-cli PATH --out DIR [--commit ID]
//
// One closed-loop client: set up (timed), compute the reference outputs
// (untimed), then run ops back to back for S seconds, checking every op's
// output bytes. Set-up is repeated between ops across the S seconds and
// its median reported. Prints a human summary, then as its last stdout
// line one JSON object: correct, attempted, failed, and the end-to-end
// metrics (--trace 0) or the per-layer
// metrics derived from spans (--trace 1). Writes a ledger (and, traced,
// the span dump) under DIR.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "procs.hpp"

using namespace perfbench;

namespace {

constexpr std::size_t kSetupRepeats = 11;
constexpr std::size_t kSpanBudget = 150000;

std::FILE* g_diag = stderr;  // the real stderr; fd 2 goes to a log

struct Fingerprint {
  long nproc = 0;
  unsigned hardware_threads = 0;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string compiler = __VERSION__;
  std::string sanitizer = PERFBENCH_SANITIZE;
  std::string cxx_flags = PERFBENCH_CXX_FLAGS;
  std::string commit;

  Fingerprint() {
    nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    hardware_threads = std::thread::hardware_concurrency();
#if defined(__SANITIZE_ADDRESS__)
    sanitizer += " address";
#endif
#if defined(__SANITIZE_THREAD__)
    sanitizer += " thread";
#endif
  }

  /// Why this build's numbers must not be reported, or "".
  [[nodiscard]] std::string refusal() const {
    if (build_type != "Release" && build_type != "RelWithDebInfo")
      return "build type '" + build_type + "' is not an optimized build";
    if (sanitizer.find_first_not_of(' ') != std::string::npos)
      return "sanitizer build (" + sanitizer + ")";
    return "";
  }
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(g_diag,
               "perfbench: %s\nusage: perfbench_driver --workload "
               "suite-sweep|fleet-campaigns|search-fleet --seed N "
               "--seconds S --trace 0|1 --epa-cli PATH --out DIR "
               "[--commit ID]\n",
               why);
  std::exit(2);
}

long long int_arg(const std::string& flag, const char* v, long long lo,
                  long long hi) {
  errno = 0;
  char* end = nullptr;
  long long x = std::strtoll(v, &end, 10);
  if (errno || end == v || *end || x < lo || x > hi)
    usage((flag + ": bad value").c_str());
  return x;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Every end-to-end figure, including those that exist on one workload
/// only (printed, not part of the JSON contract).
struct EndToEnd {
  Metrics contract;
  std::vector<std::string> extra;  // "name value unit" lines
};

EndToEnd end_to_end(const std::string& workload,
                    const std::vector<double>& setup_s,
                    const std::vector<OpRecord>& ops, const Options& o) {
  EndToEnd e;
  const bool suite = workload == "suite-sweep";
  // suite-sweep gates each figure on the lane where it is steady on a
  // shared host: the median and the rate on the jobs=N lane, whose pool
  // spreads over every CPU; the tail on the jobs=1 lane, because one
  // process in five starts its jobs=N lane in a seconds-long slow mode
  // (see README.md) that would decide the jobs=N tail on its own.
  std::vector<double> ms, rate, serial_ms, serial_rate;
  double hit = 0, ref = 0;
  long rss_kb = 0;
  std::vector<double> plane_ms[3];
  for (const OpRecord& r : ops) {
    hit += r.classes_hit;
    ref += r.classes_ref;
    rss_kb = std::max(rss_kb, r.maxrss_kb);
    const double runs_per_s = static_cast<double>(r.runs) / (r.ms() / 1e3);
    if (suite && r.lane == 1) {
      serial_ms.push_back(r.ms());
      serial_rate.push_back(runs_per_s);
    }
    if (suite && r.lane != o.jobs_max) continue;
    ms.push_back(r.ms());
    rate.push_back(runs_per_s);
    if (workload == "fleet-campaigns") plane_ms[r.lane].push_back(r.ms());
  }
  const std::vector<double>& tail_ms = suite ? serial_ms : ms;
  if (suite) {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    rss_kb = ru.ru_maxrss;
  }
  auto& m = e.contract;
  m["setup_s"] = {median(setup_s), "s"};
  m["runs_per_s"] = {median(rate), "1/s"};
  m["op_ms_p50"] = {median(ms), "ms"};
  m["op_ms_p90"] = {quantile(tail_ms, 0.9), "ms"};
  m["coverage_ratio"] = {ref > 0 ? hit / ref : 0, "ratio"};
  m["peak_rss_mb"] = {rss_kb / 1024.0, "MB"};

  std::size_t failed = 0;
  for (const OpRecord& r : ops) failed += r.ok ? 0 : 1;
  e.extra.push_back("error_rate " +
                    fmt(ops.empty() ? 0 : double(failed) / ops.size()) +
                    " ratio");
  e.extra.push_back("op_ms_p50_samples " + std::to_string(ms.size()) +
                    " count");
  e.extra.push_back("op_ms_p90_samples " + std::to_string(tail_ms.size()) +
                    " count");
  if (suite) {
    e.extra.push_back("serial_runs_per_s " + fmt(median(serial_rate)) +
                      " 1/s (jobs=1)");
    e.extra.push_back("serial_op_ms_p50 " + fmt(median(serial_ms)) +
                      " ms (jobs=1)");
    e.extra.push_back("parallel_op_ms_p90 " + fmt(quantile(ms, 0.9)) +
                      " ms (jobs=" + std::to_string(o.jobs_max) + ")");
  }
  if (workload == "fleet-campaigns") {
    const char* names[] = {"pipe", "shm", "tcp"};
    for (int p = 0; p < 3; ++p)
      e.extra.push_back(std::string(names[p]) + "_op_ms_p50 " +
                        fmt(median(plane_ms[p])) + " ms (n=" +
                        std::to_string(plane_ms[p].size()) + ")");
  }
  return e;
}

void write_ledger(const std::string& path, const Options& o,
                  const Fingerprint& fp, const std::vector<double>& setup_s,
                  const std::vector<OpRecord>& ops, const Workload& w,
                  const Metrics& metrics,
                  const std::vector<std::string>& extra) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + path);
  std::fprintf(f,
               "{\n\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
               "\"trace\": %d,\n\"fingerprint\": {\"nproc\": %ld, "
               "\"hardware_threads\": %u, \"build_type\": \"%s\", "
               "\"compiler\": \"%s\", \"sanitizer\": \"%s\", "
               "\"cxx_flags\": \"%s\", \"commit\": \"%s\"},\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.seconds, o.trace ? 1 : 0, fp.nproc, fp.hardware_threads,
               json_escape(fp.build_type).c_str(),
               json_escape(fp.compiler).c_str(),
               json_escape(fp.sanitizer).c_str(),
               json_escape(fp.cxx_flags).c_str(),
               json_escape(fp.commit).c_str());
  std::fprintf(f, "\"setup_s\": [");
  for (std::size_t i = 0; i < setup_s.size(); ++i)
    std::fprintf(f, "%s%s", i ? ", " : "", fmt(setup_s[i]).c_str());
  std::fprintf(f, "],\n\"metrics\": {");
  bool first = true;
  for (const auto& [name, mv] : metrics) {
    std::fprintf(f, "%s\n  \"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                 first ? "" : ",", name.c_str(), fmt(mv.value).c_str(),
                 mv.unit.c_str());
    first = false;
  }
  std::fprintf(f, "\n},\n\"extra\": [");
  for (std::size_t i = 0; i < extra.size(); ++i)
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", json_escape(extra[i]).c_str());
  std::fprintf(f, "],\n\"ops\": [");
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& r = ops[i];
    std::fprintf(f,
                 "%s\n  {\"index\": %u, \"slot\": %u, \"lane\": \"%s\", "
                 "\"traced\": %s, \"ok\": %s, \"ms\": %s, \"runs\": %lld, "
                 "\"maxrss_kb\": %ld, \"failure\": \"%s\"}",
                 i ? "," : "", r.index, r.slot, w.lane_name(r.lane).c_str(),
                 r.traced ? "true" : "false", r.ok ? "true" : "false",
                 fmt(r.ms()).c_str(), r.runs, r.maxrss_kb,
                 json_escape(r.failure).c_str());
  }
  std::fprintf(f, "\n]\n}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

/// Reap whatever children are left (orphaned workers come back to this
/// process as their subreaper), waiting a bounded time for stragglers.
void reap_leftovers() {
  const std::int64_t deadline = now_ns() + 5000000000LL;
  for (;;) {
    int status = 0;
    pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid > 0) continue;
    if (pid < 0 && errno == EINTR) continue;
    if (pid < 0 || now_ns() > deadline) return;  // ECHILD: none left
    ::usleep(1000);
  }
}

int run(const Options& o, const Fingerprint& fp) {
  std::unique_ptr<Workload> w = o.workload == "suite-sweep"
                                    ? make_suite_sweep(o)
                                : o.workload == "fleet-campaigns"
                                    ? make_fleet_campaigns(o)
                                    : make_search_fleet(o);

  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const std::int64_t t0 = now_ns();
    w->setup();
    setup_s.push_back((now_ns() - t0) / 1e9);
  };
  timed_setup();
  w->reference();

  std::vector<OpRecord> ops;
  const std::int64_t period =
      static_cast<std::int64_t>(o.seconds) * 1000000000LL;
  const std::int64_t t_start = now_ns();
  const std::int64_t t_end = t_start + period;
  const std::int64_t setup_every =
      period / static_cast<std::int64_t>(kSetupRepeats);
  for (std::uint32_t i = 0;; ++i) {
    check_interrupted();
    const std::uint32_t slot = o.trace ? i / 2 : i;
    // The other set-ups fall due at even fractions of the period, between
    // ops (never inside a traced pair). Host speed drifts in episodes of
    // seconds; back-to-back set-ups sampled one episode, so the median
    // swung by half from run to run.
    while ((!o.trace || i % 2 == 0) && setup_s.size() < kSetupRepeats &&
           now_ns() >= t_start + setup_every * static_cast<std::int64_t>(
                                                   setup_s.size()))
      timed_setup();
    // Stop only between whole cycles of slots (each traced slot paired
    // with its bypassed twin), after at least one cycle.
    if ((!o.trace || i % 2 == 0) && slot >= w->cycle_slots() &&
        slot % w->cycle_slots() == 0 && now_ns() >= t_end)
      break;
    // Past the span budget the rest of a traced run's slots run bypassed:
    // enough samples for every percentile, a bounded memory and dump.
    const bool traced =
        o.trace && i % 2 == 0 && spans::recorded() < kSpanBudget;
    OpRecord rec;
    spans::set_enabled(traced);
    {
      Scope op_span("op");
      spans::set_op(i, op_span.id());
      rec = w->op(i, slot, traced);
    }
    spans::set_enabled(false);
    rec.index = i;
    rec.slot = slot;
    rec.traced = traced;
    if (!rec.ok)
      std::fprintf(g_diag, "perfbench: op %u (%s) failed: %s\n", i,
                   w->lane_name(rec.lane).c_str(), rec.failure.c_str());
    ops.push_back(std::move(rec));
  }

  std::size_t failed = 0;
  for (const OpRecord& r : ops) failed += r.ok ? 0 : 1;
  EndToEnd e2e = end_to_end(o.workload, setup_s, ops, o);
  Metrics metrics = e2e.contract;
  if (o.trace) {
    std::vector<Span> all = spans::collect();
    metrics = derive_layer_metrics(o.workload, all, ops, w->count_slots());
    spans::write_jsonl(o.out_dir + "/spans." + o.workload + ".jsonl", all);
  }
  write_ledger(o.out_dir + "/ledger." + o.workload +
                   (o.trace ? ".traced" : "") + ".json",
               o, fp, setup_s, ops, *w, metrics, e2e.extra);

  std::printf("# perfbench %s seed=%llu seconds=%d trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("# fingerprint nproc=%ld hardware_threads=%u build=%s "
              "compiler=\"%s\" sanitizer=\"%s\" commit=%s\n",
              fp.nproc, fp.hardware_threads, fp.build_type.c_str(),
              fp.compiler.c_str(), fp.sanitizer.c_str(), fp.commit.c_str());
  for (const auto& [name, mv] : metrics)
    std::printf("# %s %s %s\n", name.c_str(), fmt(mv.value).c_str(),
                mv.unit.c_str());
  for (const std::string& line : e2e.extra) std::printf("# %s\n", line.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", ops.size(), failed);
  bool first = true;
  for (const auto& [name, mv] : metrics) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), fmt(mv.value).c_str(),
                mv.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  Fingerprint fp;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage((flag + ": missing value").c_str());
    const char* v = argv[++i];
    if (flag == "--workload") o.workload = v;
    else if (flag == "--seed") {
      o.seed = static_cast<std::uint64_t>(int_arg(flag, v, 0, 1LL << 62));
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<int>(int_arg(flag, v, 1, 3600));
      have_seconds = true;
    } else if (flag == "--trace") {
      o.trace = int_arg(flag, v, 0, 1) == 1;
      have_trace = true;
    } else if (flag == "--epa-cli") o.epa_cli = v;
    else if (flag == "--out") o.out_dir = v;
    else if (flag == "--commit") fp.commit = v;
    else usage(("unknown flag " + flag).c_str());
  }
  if (o.workload != "suite-sweep" && o.workload != "fleet-campaigns" &&
      o.workload != "search-fleet")
    usage(("unknown workload '" + o.workload + "'").c_str());
  if (!have_seed || !have_seconds || !have_trace ||
      o.epa_cli.empty() || o.out_dir.empty())
    usage("missing a required flag");
  if (::access(o.epa_cli.c_str(), X_OK) != 0)
    usage(("epa_cli not executable: " + o.epa_cli).c_str());
  const std::string refusal = fp.refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers: %s\n",
                 refusal.c_str());
    return 2;
  }
  o.jobs_max = static_cast<int>(std::max(1L, std::min(4L, fp.nproc)));

  o.tmp_dir = o.out_dir + "/tmp." + std::to_string(::getpid());
  TempDir tmp(o.tmp_dir);
  ::setenv("TMPDIR", o.tmp_dir.c_str(), 1);

  // Worker processes inherit fd 2; their banners go to a log, and the
  // driver's own diagnostics to the real stderr.
  g_diag = ::fdopen(::dup(STDERR_FILENO), "w");
  if (!g_diag) g_diag = stderr;
  const std::string log = o.out_dir + "/children." + o.workload + ".log";
  int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log_fd >= 0) {
    ::dup2(log_fd, STDERR_FILENO);
    ::close(log_fd);
  }
  install_process_guards();

  int rc = 0;
  try {
    rc = run(o, fp);
  } catch (const Interrupted&) {
    std::fprintf(g_diag, "perfbench: interrupted; cleaning up\n");
    rc = 130;
  } catch (const std::exception& e) {
    std::fprintf(g_diag, "perfbench: %s\n", e.what());
    rc = 1;
  }
  reap_leftovers();
  std::fflush(g_diag);
  return rc;
}
