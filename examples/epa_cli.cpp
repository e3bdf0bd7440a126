// epa — the prototype security-testing tool the paper's future work
// promises ("we hope to be able to develop a prototype tool for security
// testing based on this methodology").
//
// Drives any packaged scenario through the full methodology from the
// command line. Every subcommand parses its argv against one declarative
// flag table (kFlags below), and `epa_cli` alone prints the usage
// generated from it:
//
//   epa_cli run turnin --jobs 4          # full campaign + report
//   epa_cli run lpr --merge              # equivalence-reduced campaign
//   epa_cli sweep --jobs 8               # every scenario, one shared pool
//   epa_cli compare turnin turnin-hardened   # did the repair work?
//
// Sharded execution (docs/WIRE_FORMAT.md, scripts/shard_local.sh):
//
//   epa_cli plan turnin --out turnin.plan.json
//   epa_cli run-shard turnin.plan.json --shard 1/3 --out shard1.json  # x3
//   epa_cli merge turnin.plan.json shard1.json shard2.json shard3.json
//
// Every report file owns one strided lease — the ids begin, begin +
// stride, ... below end; `--shard K/N` is begin K-1, stride N — and
// merge output is bit-identical to `epa_cli run turnin` for any set of
// complete reports that partitions the plan: work items carry stable
// ids and outcomes land by id.
//
// Orchestrated execution (docs/ARCHITECTURE.md, core/orchestrator.hpp):
//
//   epa_cli orchestrate --all --workers 4     # dynamic leases, persistent
//                                             # workers, auto re-lease on
//                                             # preemption (exit 4)
//   epa_cli orchestrate turnin --data-plane tcp --listen 7070  # remote
//   epa_cli worker --connect host:7070        # workers dial in
//
// Coverage-guided search (docs/SEARCH.md, core/search.hpp):
//
//   epa_cli search --family fam-relay --budget 120  # cumulative family search
//   epa_cli search turnin --budget 40 --state s.json --resume
//
// `epa_cli worker` is the orchestrator's worker half: it parses a plan
// and re-freezes the COW prototype once per plan, then serves LEASE
// frames over one framed stream (stdin/stdout when orchestrate forks it,
// a socket with --connect) until EXIT/EOF — the per-process costs are
// paid per worker, not per work slice, and a multi-scenario command keeps
// one fleet for all its plans. Every worker speaks worker protocol v7
// (core/protocol.hpp): HELLO handshake, the binary plan, work-items and
// report frames, PING heartbeats at checkpoints, STEAL/YIELD work
// stealing, FEEDBACK item appends for search, PLAN switches between
// plans.
// Orchestrated output is bit-identical to `run`.
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "apps/families.hpp"
#include "apps/scenarios.hpp"
#include "apps/spec_env.hpp"
#include "core/compare.hpp"
#include "core/equivalence.hpp"
#include "core/orchestrator.hpp"
#include "core/planner.hpp"
#include "core/protocol.hpp"
#include "core/report.hpp"
#include "core/scheduler.hpp"
#include "core/scenario_spec.hpp"
#include "core/search.hpp"
#include "core/transport.hpp"
#include "core/wire.hpp"
#include "net/transport_tcp.hpp"
#include "util/atomic_file.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "vulndb/classifier.hpp"
#include "vulndb/coverage.hpp"

using namespace ep;

namespace {

// --- the command line -------------------------------------------------------
// Every subcommand parses its argv against one declarative flag table: a
// row per flag with its value kind and range, metavar, the subcommands
// that take it, and its help text. One loop parses any subcommand's argv
// against those rows, check_flags holds every rule that spans flags, and
// usage() prints from the same rows.

/// One bit per subcommand, so a flag row names every subcommand that
/// takes it.
enum Command : unsigned {
  kList = 1u << 0,
  kScenarios = 1u << 1,
  kTrace = 1u << 2,
  kRun = 1u << 3,
  kSweep = 1u << 4,
  kPlan = 1u << 5,
  kRunShard = 1u << 6,
  kMerge = 1u << 7,
  kOrchestrate = 1u << 8,
  kSearch = 1u << 9,
  kWorker = 1u << 10,
  kCompare = 1u << 11,
  kDb = 1u << 12,
};

struct CommandRow {
  const char* name;
  unsigned bit;
  int max_args;      // positional arguments it takes at most; -1: any
  const char* args;  // their synopsis
};

constexpr CommandRow kCommands[] = {
    {"list", kList, 0, ""},
    {"scenarios", kScenarios, 0, ""},
    {"trace", kTrace, 1, " <scenario>"},
    {"run", kRun, 1, " <scenario>"},
    {"sweep", kSweep, 0, ""},
    {"plan", kPlan, 1, " <scenario>"},
    {"run-shard", kRunShard, 1, " <plan-file>"},
    {"merge", kMerge, -1, " <plan-file> <shard-file>..."},
    {"orchestrate", kOrchestrate, 1, " <scenario>"},
    {"search", kSearch, 1, " <scenario>"},
    {"worker", kWorker, 0, ""},
    {"compare", kCompare, 2, " <before-scenario> <after-scenario>"},
    {"db", kDb, 1, " [indirect|direct|other|excluded]"},
};

/// Every flag a command line can set, parsed and validated. A default
/// that differs by subcommand (orchestrate's two workers) is the
/// subcommand's own.
struct Flags {
  const CommandRow* cmd = nullptr;
  std::vector<std::string> args;  // positional arguments, in order
  std::uint64_t given = 0;        // bit r: row r of kFlags was given

  bool json = false, all = false, merge = false;
  bool no_redzone = false, resume = false, tcp = false;
  std::string family, spec, scenario_file, sites, out, out_dir = ".";
  std::string shard, resume_file, port_file, connect, state;
  long long jobs = 1, checkpoint = 0, preempt_after = 0;
  long long drain_delay_ms = 0, workers = 0, lease = 0, deadman_ms = 0;
  long long listen = 0, budget = 0, batch = 16, stop_after = 0;
  std::uint64_t seed = 1;
  double coverage = 1.0;

  /// Whether the subcommand is one of `commands` (Command bits).
  bool is(unsigned commands) const { return (cmd->bit & commands) != 0; }
  /// Whether `flag` was given.
  bool has(const char* flag) const;
};

/// How a flag's value is read. A value flag takes the next argv slot
/// verbatim, even one that starts with "--", and every value is strictly
/// validated: garbage exits 1 with an epa: diagnostic, never silently
/// becomes 0 (atoi) or is taken for a flag.
enum class Kind {
  on,         // a switch: no value
  text,       // any string
  integer,    // an integer in [min, max]
  seed,       // an unsigned 64-bit integer
  unit,       // a number in [0, 1]
  lease,      // "auto" (stored as 0) or an integer in [1, 2^30]
  plane,      // pipe|shm|tcp, stored as whether it is tcp
  host_port,  // HOST:PORT, the port in [1, 65535]
};

/// Where a row stores its value in Flags; nullptr: accepted and unused.
using Dest = std::variant<std::nullptr_t, bool Flags::*, std::string Flags::*,
                          long long Flags::*, std::uint64_t Flags::*,
                          double Flags::*>;

struct FlagRow {
  const char* name;
  Kind kind;
  long long min, max;   // Kind::integer's range
  const char* metavar;  // nullptr for a switch
  unsigned commands;    // Command bits of the subcommands that take it
  Dest dest;
  const char* help;
};

constexpr long long kMaxCount = 1LL << 30;

constexpr FlagRow kFlags[] = {
    {"--json", Kind::on, 0, 0, nullptr,
     kScenarios | kRun | kSweep | kMerge | kOrchestrate | kSearch,
     &Flags::json, "machine-readable output"},
    {"--all", Kind::on, 0, 0, nullptr, kPlan | kOrchestrate, &Flags::all,
     "every packaged scenario, not <scenario>"},
    {"--family", Kind::text, 0, 0, "F", kScenarios | kSweep | kSearch,
     &Flags::family, "a family's members, not <scenario>"},
    {"--spec", Kind::text, 0, 0, "NAME", kScenarios, &Flags::spec,
     "print a scenario's declarative spec JSON"},
    {"--scenario-file", Kind::text, 0, 0, "FILE",
     kRun | kSweep | kPlan | kRunShard | kOrchestrate | kSearch | kWorker,
     &Flags::scenario_file, "a spec file, not <scenario>"},
    {"--sites", Kind::text, 0, 0, "a,b,...", kRun | kPlan, &Flags::sites,
     "perturb only these traced site tags"},
    {"--coverage", Kind::unit, 0, 0, "F", kRun | kPlan, &Flags::coverage,
     "stop at this interaction coverage (0..1)"},
    {"--seed", Kind::seed, 0, 0, "N", kRun | kSweep | kPlan | kSearch,
     &Flags::seed, "random seed"},
    {"--merge", Kind::on, 0, 0, nullptr, kRun | kSweep | kPlan,
     &Flags::merge, "one site per injection-equivalence class"},
    {"--jobs", Kind::integer, 1, 4096, "N",
     kRun | kSweep | kPlan | kRunShard | kOrchestrate | kSearch | kWorker,
     &Flags::jobs, "threads per process (plan: with --all)"},
    {"--no-redzone", Kind::on, 0, 0, nullptr,
     kRun | kSweep | kRunShard | kOrchestrate | kSearch | kWorker,
     &Flags::no_redzone, "turn the redzone memory oracle off"},
    {"--out", Kind::text, 0, 0, "FILE", kPlan | kRunShard, &Flags::out,
     "write the plan or report here"},
    {"--out-dir", Kind::text, 0, 0, "DIR", kPlan, &Flags::out_dir,
     "plan --all's directory (default .)"},
    {"--shard", Kind::text, 0, 0, "K/N", kRunShard, &Flags::shard,
     "own ids K-1, K-1+N, ... of the plan"},
    {"--resume", Kind::text, 0, 0, "FILE", kRunShard, &Flags::resume_file,
     "complete this partial report"},
    {"--checkpoint", Kind::integer, 1, kMaxCount, "K",
     kRunShard | kOrchestrate | kWorker, &Flags::checkpoint,
     "flush, or PING and poll, every K outcomes"},
    {"--preempt-after", Kind::integer, 1, kMaxCount, "N",
     kRunShard | kOrchestrate | kWorker, &Flags::preempt_after,
     "self-SIGTERM after N flushes or leases (CI)"},
    {"--drain-delay-ms", Kind::integer, 1, 1LL << 20, "MS",
     kOrchestrate | kWorker, &Flags::drain_delay_ms,
     "sleep before each checkpoint chunk (CI)"},
    {"--workers", Kind::integer, 1, 1024, "N", kOrchestrate | kSearch,
     &Flags::workers, "fleet size (orchestrate: 2; search: none)"},
    {"--lease", Kind::lease, 0, 0, "auto|K", kOrchestrate | kSearch,
     &Flags::lease, "items per lease; auto: from planning time"},
    {"--data-plane", Kind::plane, 0, 0, "pipe|shm|tcp",
     kOrchestrate | kSearch, &Flags::tcp,
     "pipe, shm: forked workers; tcp: dialed in"},
    {"--deadman-ms", Kind::integer, 1, kMaxCount, "MS", kOrchestrate,
     &Flags::deadman_ms, "kill a busy worker silent this long"},
    {"--listen", Kind::integer, 0, 65535, "PORT", kOrchestrate | kSearch,
     &Flags::listen, "tcp: port to bind (0 = ephemeral)"},
    {"--port-file", Kind::text, 0, 0, "FILE", kOrchestrate | kSearch,
     &Flags::port_file, "tcp: publish the bound port here"},
    {"--dir", Kind::text, 0, 0, "DIR", kOrchestrate | kSearch, nullptr,
     "accepted and unused: no plane writes files"},
    {"--connect", Kind::host_port, 0, 0, "HOST:PORT", kWorker,
     &Flags::connect, "dial a tcp coordinator"},
    {"--budget", Kind::integer, 1, kMaxCount, "N", kSearch, &Flags::budget,
     "total injection runs to spend (required)"},
    {"--batch", Kind::integer, 1, 1LL << 20, "K", kSearch, &Flags::batch,
     "wave size cap (default 16)"},
    {"--state", Kind::text, 0, 0, "FILE", kSearch, &Flags::state,
     "checkpoint at every wave barrier"},
    {"--resume", Kind::on, 0, 0, nullptr, kSearch, &Flags::resume,
     "replay --state when it exists"},
    {"--stop-after", Kind::integer, 1, kMaxCount, "W", kSearch,
     &Flags::stop_after, "stop after W wave barriers, exit 4"},
};
constexpr std::size_t kFlagCount = sizeof kFlags / sizeof kFlags[0];
static_assert(kFlagCount <= 64, "Flags::given holds one bit per row");

bool Flags::has(const char* flag) const {
  for (std::size_t r = 0; r < kFlagCount; ++r)
    if ((given >> r & 1) != 0 && std::strcmp(kFlags[r].name, flag) == 0)
      return true;
  return false;
}

/// The usage text, printed from the two tables: each subcommand with the
/// flags it takes, then every flag's help.
int usage() {
  const auto spelled = [](const FlagRow& row) {
    return row.metavar ? std::string(row.name) + " " + row.metavar
                       : std::string(row.name);
  };
  std::printf("epa - environment perturbation analysis (prototype tool)\n\n"
              "usage:\n");
  for (const CommandRow& c : kCommands) {
    std::string line = std::string("  epa_cli ") + c.name + c.args;
    for (const FlagRow& row : kFlags) {
      if ((row.commands & c.bit) == 0) continue;
      const std::string item = " [" + spelled(row) + "]";
      if (line.size() + item.size() > 78) {
        std::printf("%s\n", line.c_str());
        line = std::string(15, ' ');
      }
      line += item;
    }
    std::printf("%s\n", line.c_str());
  }
  std::printf("\nflags:\n");
  for (const FlagRow& row : kFlags)
    std::printf("  %-28s %s\n", spelled(row).c_str(), row.help);
  return 2;
}

[[noreturn]] void flag_fail(const std::string& flag, const std::string& why) {
  std::fprintf(stderr, "epa: %s %s\n", flag.c_str(), why.c_str());
  std::exit(1);
}

/// `text` as an integer in [min, max]; `what` names the accepted forms.
long long integer_value(const char* flag, const std::string& text,
                        long long min, long long max,
                        const char* what = "an integer") {
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0')
    flag_fail(flag, "value '" + text + "' is not " + what);
  if (errno == ERANGE || v < min || v > max)
    flag_fail(flag, "value " + text + " out of range [" +
                        std::to_string(min) + ", " + std::to_string(max) +
                        "]");
  return v;
}

/// The Flags member `row` stores its value in.
template <typename T>
T& slot(const FlagRow& row, Flags* f) {
  return f->*std::get<T Flags::*>(row.dest);
}

/// Validate `v` as `row`'s kind and store it where the row says.
void store_value(const FlagRow& row, const std::string& v, Flags* f) {
  errno = 0;
  char* end = nullptr;
  switch (row.kind) {
    case Kind::on:
      slot<bool>(row, f) = true;
      break;
    case Kind::text:
      if (row.dest.index() != 0) slot<std::string>(row, f) = v;
      break;
    case Kind::integer:
      slot<long long>(row, f) = integer_value(row.name, v, row.min, row.max);
      break;
    case Kind::seed:
      slot<std::uint64_t>(row, f) = std::strtoull(v.c_str(), &end, 10);
      if (errno == ERANGE || end == v.c_str() || *end != '\0' || v[0] == '-')
        flag_fail(row.name, "value '" + v + "' is not an unsigned integer");
      break;
    case Kind::unit:
      slot<double>(row, f) = std::strtod(v.c_str(), &end);
      if (errno == ERANGE || end == v.c_str() || *end != '\0')
        flag_fail(row.name, "value '" + v + "' is not a number");
      if (!(slot<double>(row, f) >= 0.0 && slot<double>(row, f) <= 1.0))
        flag_fail(row.name, "value " + v + " out of range [0, 1]");
      break;
    case Kind::lease:
      slot<long long>(row, f) =
          v == "auto" ? 0
                      : integer_value(row.name, v, 1, kMaxCount,
                                      "an integer or 'auto'");
      break;
    case Kind::plane:
      if (v != "pipe" && v != "shm" && v != "tcp")
        flag_fail(row.name, "value '" + v + "' is not 'pipe', 'shm', or 'tcp'");
      slot<bool>(row, f) = v == "tcp";
      break;
    case Kind::host_port: {
      // Split on the *last* colon, as cmd_worker splits it.
      const std::size_t colon = v.rfind(':');
      if (colon == std::string::npos || colon == 0)
        flag_fail(row.name, "value '" + v + "' is not HOST:PORT");
      integer_value(row.name, v.substr(colon + 1), 1, 65535);
      slot<std::string>(row, f) = v;
      break;
    }
  }
}

/// Parse argv[2..] against the rows of f->cmd: each flag's value checked
/// and stored, every argument not starting with "--" kept as a positional
/// one. A bad or missing value exits 1; a flag the subcommand does not
/// take returns false after its epa: line.
bool parse_flags(int argc, char** argv, Flags* f) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      f->args.push_back(arg);
      continue;
    }
    std::size_t r = 0;
    while (r < kFlagCount &&
           (arg != kFlags[r].name || !f->is(kFlags[r].commands)))
      ++r;
    if (r == kFlagCount) {
      std::fprintf(stderr, "epa: unknown option '%s'\n", arg.c_str());
      return false;
    }
    f->given |= std::uint64_t{1} << r;
    const bool on = kFlags[r].kind == Kind::on;
    if (!on && i + 1 == argc) flag_fail(arg, "requires a value");
    store_value(kFlags[r], on ? "" : argv[++i], f);
  }
  return true;
}

/// "epa: A and B are exclusive" when both were given.
bool both(const Flags& f, const char* a, const char* b) {
  if (!f.has(a) || !f.has(b)) return false;
  std::fprintf(stderr, "epa: %s and %s are exclusive\n", a, b);
  return true;
}

/// "epa: WHO needs WHAT" when `given` holds and `has_it` does not.
bool lacks(bool given, bool has_it, const char* who, const char* what) {
  if (!given || has_it) return false;
  std::fprintf(stderr, "epa: %s needs %s\n", who, what);
  return true;
}

/// Every rule that spans arguments or flags, each written once for every
/// subcommand it concerns: a flag that would mean nothing where it was
/// given is refused, never silently ignored. Returns 0 when all hold,
/// else the exit code after the diagnostic: 2 (with usage) for a
/// malformed command shape, 1 for a flag in the wrong company.
int check_flags(const Flags& f) {
  // A command with fixed positional arguments got one more, or db a
  // category that is none of the four: reject it rather than ignore it.
  const std::size_t args = f.args.size();
  const std::size_t max_args = static_cast<std::size_t>(f.cmd->max_args);
  const bool bad_db = f.is(kDb) && args == 1 && f.args[0] != "indirect" &&
                      f.args[0] != "direct" && f.args[0] != "other" &&
                      f.args[0] != "excluded";
  if (args > max_args || bad_db) {
    std::fprintf(stderr, "epa: unexpected argument '%s'\n",
                 f.args[bad_db ? 0 : max_args].c_str());
    return usage();
  }
  if ((f.is(kTrace | kRunShard) && args != 1) ||
      (f.is(kCompare) && args != 2) || (f.is(kMerge) && args < 2) ||
      (f.is(kRunShard) && !f.has("--shard") && !f.has("--resume")))
    return usage();
  // Exactly one scenario source where a subcommand drains one: a name,
  // --scenario-file, --family or --all. sweep's default is the packaged
  // suite.
  const std::size_t sources = args + !f.scenario_file.empty() +
                              !f.family.empty() + (f.all ? 1 : 0);
  if (f.is(kRun | kPlan | kOrchestrate | kSearch) && sources != 1)
    return usage();
  // plan --all writes one plan per packaged scenario into --out-dir: the
  // single-scenario flags mean nothing there, and the reverse.
  static constexpr std::pair<const char*, bool> kPlanModes[] = {
      {"--out", false},     {"--sites", false}, {"--coverage", false},
      {"--out-dir", true}, {"--jobs", true}};
  for (const auto& [flag, all_only] : kPlanModes)
    if (f.is(kPlan) && f.has(flag) && f.all != all_only) {
      std::fprintf(stderr, "epa: %s applies to %s only\n", flag,
                   all_only ? "plan --all" : "single-scenario plan");
      return usage();
    }
  // A search without --workers drains in-process, with no fleet to lease
  // to nor a plane to carry it. On tcp, workers are started by the
  // operator, not forked by the coordinator: worker-side flags have
  // nowhere to be forwarded.
  const bool fleet = f.is(kOrchestrate) || f.has("--workers");
  for (const char* flag : {"--jobs", "--preempt-after", "--checkpoint",
                           "--drain-delay-ms", "--no-redzone"})
    if (f.tcp && fleet && f.has(flag)) {
      std::fprintf(stderr,
                   "epa: %s is worker-side; pass it to `epa_cli worker "
                   "--connect` (tcp workers are not spawned by %s)\n",
                   flag, f.cmd->name);
      return 1;
    }
  // A family search runs its members through one scorer: a checkpoint of
  // member N alone could not reproduce that state.
  if (both(f, "--family", "--spec") || both(f, "--spec", "--json") ||
      both(f, "--family", "--scenario-file") ||
      both(f, "--sites", "--coverage") ||
      lacks(f.is(kSearch), f.has("--budget"), "search",
            "--budget N (the total number of injection runs to spend)") ||
      lacks(f.has("--state") || f.has("--stop-after"), f.family.empty(),
            f.has("--state") ? "--state" : "--stop-after",
            "a single scenario, not --family") ||
      lacks(f.has("--data-plane") || f.has("--lease"), fleet,
            f.has("--data-plane") ? "--data-plane" : "--lease",
            "--workers N") ||
      lacks(f.resume, !f.state.empty(), "--resume", "--state FILE") ||
      lacks(f.has("--stop-after"), !f.state.empty(), "--stop-after",
            "--state FILE (stopping without a checkpoint would just "
            "discard the waves)") ||
      lacks(f.has("--listen") || f.has("--port-file"), f.tcp,
            f.has("--listen") ? "--listen" : "--port-file",
            "--data-plane tcp") ||
      lacks(f.has("--deadman-ms"), f.tcp || f.has("--checkpoint"),
            "--deadman-ms",
            "--checkpoint on the pipe/shm data planes (heartbeats are "
            "sent at checkpoint flushes)") ||
      lacks(f.has("--drain-delay-ms"), f.has("--checkpoint"),
            "--drain-delay-ms",
            "--checkpoint (the delay is applied per checkpoint chunk)") ||
      lacks(f.is(kRunShard) && f.has("--checkpoint"),
            !f.out.empty() || !f.resume_file.empty(), "--checkpoint",
            "--out (checkpoints are flushed to the report file)") ||
      lacks(f.is(kRunShard) && f.has("--preempt-after"),
            f.has("--checkpoint"), "--preempt-after",
            "--checkpoint (preemption is delivered at a checkpoint "
            "flush)"))
    return 1;
  return 0;
}

// --- sharded execution (docs/WIRE_FORMAT.md) --------------------------------

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f)
    throw std::runtime_error("cannot read '" + path +
                             "': " + std::strerror(errno));
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad)
    throw std::runtime_error("error while reading '" + path + "'");
  return out;
}

/// "K/N" with 1 <= K <= N (1-based on the command line, 0-based inside).
void parse_shard_spec(const std::string& spec, std::size_t* index,
                      std::size_t* count) {
  auto bad = [&]() -> std::runtime_error {
    return std::runtime_error("invalid --shard '" + spec +
                              "' (expected K/N with 1 <= K <= N)");
  };
  // strtoll, not sscanf: overflow must be a rejected spec, not UB.
  errno = 0;
  char* slash = nullptr;
  long long k = std::strtoll(spec.c_str(), &slash, 10);
  if (errno == ERANGE || slash == spec.c_str() || *slash != '/') throw bad();
  char* end = nullptr;
  long long n = std::strtoll(slash + 1, &end, 10);
  if (errno == ERANGE || end == slash + 1 || *end != '\0') throw bad();
  if (k < 1 || n < 1 || k > n) throw bad();
  *index = static_cast<std::size_t>(k - 1);
  *count = static_cast<std::size_t>(n);
}

/// Run `read`, naming `source` (a file, or a worker's stream) in any
/// wire-format failure.
template <typename Fn>
auto naming(const std::string& source, Fn&& read) -> decltype(read()) {
  try {
    return read();
  } catch (const core::WireError& e) {
    throw std::runtime_error(source + ": " + e.what());
  }
}

/// Load + validate a plan file, naming the file in any failure.
core::InjectionPlan load_plan(const std::string& path) {
  return naming(path, [&] { return core::plan_from_json(read_file(path)); });
}

core::ShardReport load_shard_report(const std::string& path) {
  return naming(path,
                [&] { return core::shard_report_from_json(read_file(path)); });
}

/// The unknown-scenario failure: name what was asked for, then the full
/// inventory — packaged names, redzone-demo, family patterns — so a
/// typo'd generated name is diagnosable without a second command.
std::runtime_error unknown_scenario(const std::string& name) {
  return std::runtime_error("unknown scenario '" + name + "'\nepa: " +
                            apps::scenario_names_hint());
}

/// Name resolution covers the packaged suite, the unlisted redzone-demo,
/// and every generated family member (apps::resolve_scenario).
core::Scenario named_scenario(const std::string& name) {
  std::optional<core::Scenario> s = apps::resolve_scenario(name);
  if (!s) throw unknown_scenario(name);
  return std::move(*s);
}

/// `--sites` tags are per-scenario, and the planner skips a tag no traced
/// point carries: a typo'd tag would plan nothing and report no findings.
/// Throws (an epa: diagnostic listing the traced tags) on such a tag.
void check_site_tags(const std::vector<std::string>& tags,
                     const std::vector<core::InteractionPoint>& points,
                     const std::string& scenario) {
  std::set<std::string> traced;
  for (const auto& p : points) traced.insert(p.site.tag);
  for (const std::string& tag : tags) {
    if (traced.count(tag)) continue;
    std::string list;
    for (const std::string& t : traced)
      list += (list.empty() ? "" : ", ") + t;
    throw std::runtime_error("--sites: '" + tag + "' is not a traced site "
                             "of " + scenario + " (traced: " + list + ")");
  }
}

/// Compile a declarative spec file (docs/SCENARIO_AUTHORING.md) against
/// the standard image/handler environment. Parse and validation failures
/// name the file; the spec reader adds line/column for syntax errors.
core::Scenario scenario_from_file(const std::string& path) {
  return naming(path, [&] {
    core::ScenarioSpec spec = core::spec_from_json(read_file(path));
    return core::compile_spec(spec, apps::spec_environment());
  });
}

/// The scenario a plan drains against (run-shard, worker): the spec file
/// when given — its name must match the plan's, or the report ids would
/// silently describe a different world — otherwise the plan's scenario
/// name through the name registry.
core::Scenario plan_scenario(const core::InjectionPlan& plan,
                             const std::string& plan_src,
                             const std::string& scenario_file) {
  if (!scenario_file.empty()) {
    core::Scenario s = scenario_from_file(scenario_file);
    if (s.name != plan.scenario_name)
      throw std::runtime_error(scenario_file + ": spec names scenario '" +
                               s.name + "' but " + plan_src +
                               " was planned for '" + plan.scenario_name +
                               "'");
    return s;
  }
  std::optional<core::Scenario> s = apps::resolve_scenario(plan.scenario_name);
  if (!s)
    throw std::runtime_error(
        plan_src + ": plan names unknown scenario '" + plan.scenario_name +
        "' (written by a different scenario set? pass its spec with "
        "--scenario-file); " +
        apps::scenario_names_hint());
  return std::move(*s);
}

/// apps::find_family; throws, listing what exists, on an unknown name.
const core::ScenarioFamily& known_family(const std::string& name) {
  const core::ScenarioFamily* fam = apps::find_family(name);
  if (!fam)
    throw std::runtime_error("unknown family '" + name + "'\nepa: " +
                             apps::scenario_names_hint());
  return *fam;
}

/// The scenarios a subcommand drains, from the one source it was given:
/// --family, --scenario-file, a name, or else the packaged suite (--all,
/// and sweep's default).
std::vector<core::Scenario> resolve_scenarios(const Flags& f) {
  if (!f.family.empty()) return apps::family_scenarios(known_family(f.family));
  if (!f.scenario_file.empty()) return {scenario_from_file(f.scenario_file)};
  if (!f.args.empty()) return {named_scenario(f.args[0])};
  return apps::all_scenarios();
}

int cmd_list() {
  TextTable t({"scenario", "description"});
  for (const auto& s : apps::all_scenarios())
    t.add_row({s.name, s.description});
  std::printf("%s", t.render().c_str());
  return 0;
}

/// The full name inventory: packaged scenarios, the name-reachable but
/// unlisted redzone-demo, and the generated families. With --family F the
/// listing expands to F's members — every name `run`, `plan`, `sweep`,
/// and `orchestrate` will accept.
int cmd_scenarios(const std::string& family_name,
                  const std::string& spec_name, bool as_json) {
  if (!spec_name.empty()) {
    // Canonical serializer output — exactly what --scenario-file parses
    // back, so this doubles as the authoring template.
    auto spec = apps::resolve_spec(spec_name);
    if (!spec) throw unknown_scenario(spec_name);
    std::string json = core::spec_to_json(*spec);
    std::fwrite(json.data(), 1, json.size(), stdout);
    return 0;
  }
  if (!family_name.empty()) {
    const core::ScenarioFamily* fam = &known_family(family_name);
    auto specs = core::expand_family(*fam);
    if (as_json) {
      std::printf("{\n\"family\": %s,\n\"members\": [\n",
                  json_quote(fam->name).c_str());
      for (std::size_t i = 0; i < specs.size(); ++i)
        std::printf("%s%s\n", json_quote(specs[i].name).c_str(),
                    i + 1 < specs.size() ? "," : "");
      std::printf("]\n}\n");
    } else {
      for (const auto& spec : specs) std::printf("%s\n", spec.name.c_str());
      std::printf("%zu members of family %s\n", specs.size(),
                  fam->name.c_str());
    }
    return 0;
  }

  const std::string demo_note =
      "name-reachable but unlisted: resolves on every command, excluded "
      "from the packaged sweep (pinned negative control)";
  if (as_json) {
    std::printf("{\n\"scenarios\": [\n");
    for (const auto& s : apps::all_scenarios())
      std::printf("{\"name\": %s, \"kind\": \"packaged\", "
                  "\"description\": %s},\n",
                  json_quote(s.name).c_str(),
                  json_quote(s.description).c_str());
    std::printf("{\"name\": \"redzone-demo\", \"kind\": \"unlisted\", "
                "\"description\": %s}\n",
                json_quote(demo_note).c_str());
    std::printf("],\n\"families\": [\n");
    const auto& fams = apps::scenario_families();
    for (std::size_t i = 0; i < fams.size(); ++i) {
      std::printf("{\"name\": %s, \"members\": %zu, \"axes\": [",
                  json_quote(fams[i].name).c_str(),
                  core::family_size(fams[i]));
      for (std::size_t j = 0; j < fams[i].axes.size(); ++j)
        std::printf("%s%s", json_quote(fams[i].axes[j].name).c_str(),
                    j + 1 < fams[i].axes.size() ? ", " : "");
      std::printf("], \"description\": %s}%s\n",
                  json_quote(fams[i].description).c_str(),
                  i + 1 < fams.size() ? "," : "");
    }
    // The EAI coverage universe (vulndb/coverage.hpp): external tooling
    // computes adequacy against these class names without re-implementing
    // the fault-to-class mapping.
    auto universe = vulndb::coverage_universe();
    std::printf("],\n\"coverage_universe\": [\n");
    for (std::size_t i = 0; i < universe.size(); ++i)
      std::printf("%s%s\n", json_quote(universe[i]).c_str(),
                  i + 1 < universe.size() ? "," : "");
    std::printf("]\n}\n");
    return 0;
  }

  TextTable t({"scenario", "kind", "description"});
  for (const auto& s : apps::all_scenarios())
    t.add_row({s.name, "packaged", s.description});
  t.add_row({"redzone-demo", "unlisted", demo_note});
  std::printf("%s\n", t.render().c_str());
  TextTable ft({"family", "members", "axes", "description"});
  for (const auto& f : apps::scenario_families()) {
    std::string axes;
    for (const auto& a : f.axes) {
      if (!axes.empty()) axes += " x ";
      axes += a.name + "(" + std::to_string(a.values.size()) + ")";
    }
    ft.add_row({f.name, std::to_string(core::family_size(f)), axes,
                f.description});
  }
  std::printf("%s", ft.render().c_str());
  std::printf("expand a family with: epa_cli scenarios --family <name>\n");
  return 0;
}

int cmd_trace(const std::string& name) {
  core::Campaign campaign(named_scenario(name));
  core::CampaignOptions opts;
  opts.only_sites = {"--none--"};  // discovery only
  auto r = campaign.execute(opts);

  std::printf("interaction points of %s:\n\n", name.c_str());
  TextTable t({"site", "call", "object", "kind", "input"});
  for (const auto& p : r.points)
    t.add_row({p.site.tag, p.call, p.object,
               std::string(to_string(p.kind)), p.has_input ? "yes" : "no"});
  std::printf("%s\n", t.render().c_str());
  std::printf("equivalence partition:\n%s",
              core::render_equivalence(
                  core::find_equivalence_classes(r.points))
                  .c_str());
  return 0;
}

/// The campaign options of a command line that plans or runs campaigns.
core::CampaignOptions campaign_options(const Flags& f) {
  core::CampaignOptions opts;
  if (f.has("--sites")) opts.only_sites = split(f.sites, ',');
  opts.target_interaction_coverage = f.coverage;
  opts.seed = f.seed;
  opts.merge_equivalent_sites = f.merge;
  opts.jobs = static_cast<int>(f.jobs);
  opts.use_redzone = !f.no_redzone;
  return opts;
}

/// Print one campaign's report and return the run exit contract: 0
/// clean, 3 candidate vulnerabilities.
int print_report(const core::CampaignResult& r, bool as_json) {
  std::printf("%s", (as_json ? core::render_json(r)
                             : core::render_report(r))
                        .c_str());
  return r.exploitable().empty() ? 0 : 3;
}

int cmd_run(const Flags& f) {
  core::CampaignOptions opts = campaign_options(f);
  core::Campaign campaign(std::move(resolve_scenarios(f).front()));
  auto r = campaign.execute(opts);
  check_site_tags(opts.only_sites, r.points, r.scenario_name);
  return print_report(r, f.json);
}

int cmd_compare(const std::string& before_name,
                const std::string& after_name) {
  core::Scenario before_s = named_scenario(before_name);
  core::Scenario after_s = named_scenario(after_name);
  auto before = core::Campaign(std::move(before_s)).execute();
  auto after = core::Campaign(std::move(after_s)).execute();
  auto c = core::compare(before, after);
  std::printf("%s", core::render_comparison(c).c_str());
  return c.safe() ? 0 : 3;
}

/// Render a whole-suite result (sweep or orchestrate --all) and return
/// the run/sweep exit contract: 0 clean, 3 candidate vulnerabilities.
/// `with_coverage` appends the vulnerability-coverage adequacy figures
/// (vulndb/coverage.hpp) to the totals — generated-suite sweeps only,
/// so the packaged sweep's bytes stay the pinned control.
int print_sweep(const core::SweepResult& sweep, bool as_json,
                bool with_coverage = false) {
  if (as_json) {
    std::printf("{\n\"scenarios\": [\n");
    for (std::size_t i = 0; i < sweep.results.size(); ++i)
      std::printf("%s%s", core::render_json(sweep.results[i]).c_str(),
                  i + 1 < sweep.results.size() ? ",\n" : "\n");
    std::printf(
        "],\n\"totals\": {\"points\": %d, \"injections\": %d, "
        "\"violations\": %d, \"exploitable\": %d, "
        "\"mean_vulnerability_score\": %.6f",
        sweep.total_points(), sweep.total_injections(),
        sweep.total_violations(), sweep.total_exploitable(),
        sweep.mean_vulnerability_score());
    if (with_coverage) {
      vulndb::VulnCoverage cov = vulndb::vulnerability_coverage(sweep.results);
      std::printf(", \"vuln_classes_fired\": %zu, "
                  "\"vuln_classes_total\": %d, \"vuln_coverage_pct\": %.1f",
                  cov.fired.size(), cov.total(), 100.0 * cov.fraction());
    }
    std::printf("}\n}\n");
  } else {
    TextTable t({"scenario", "points", "injections", "violations", "rho",
                 "region", "exploitable"});
    for (const auto& r : sweep.results) {
      char rho[16];
      std::snprintf(rho, sizeof rho, "%.3f", r.vulnerability_score());
      t.add_row({r.scenario_name, std::to_string(r.points.size()),
                 std::to_string(r.n()), std::to_string(r.violation_count()),
                 rho, std::string(to_string(r.region())),
                 std::to_string(r.exploitable().size())});
    }
    std::printf("%s\n%d scenarios, %d injection runs, %d violations, "
                "%d exploitable (mean rho %.3f)\n",
                t.render().c_str(), static_cast<int>(sweep.results.size()),
                sweep.total_injections(), sweep.total_violations(),
                sweep.total_exploitable(), sweep.mean_vulnerability_score());
    if (with_coverage) {
      vulndb::VulnCoverage cov = vulndb::vulnerability_coverage(sweep.results);
      std::printf("vulnerability coverage: %zu of %d EAI classes fired "
                  "(%.1f%%)\n",
                  cov.fired.size(), cov.total(), 100.0 * cov.fraction());
      for (const auto& c : cov.silent)
        std::printf("  silent %s\n", c.c_str());
    }
  }
  return sweep.total_exploitable() == 0 ? 0 : 3;
}

int cmd_sweep(const Flags& f) {
  core::MultiCampaign suite;
  for (auto& s : resolve_scenarios(f)) suite.add(std::move(s));
  core::SweepOptions opts;
  opts.jobs = static_cast<int>(f.jobs);
  opts.campaign = campaign_options(f);
  // Generated suites carry the adequacy report; the packaged sweep's
  // output is a byte-pinned regression control and stays untouched.
  return print_sweep(suite.run(opts), f.json,
                     !f.family.empty() || !f.scenario_file.empty());
}

int cmd_db(const std::string& filter) {
  const auto& db = vulndb::database();
  TextTable t({"id", "name", "os", "EAI class", "description"});
  int shown = 0;
  for (const auto& r : db) {
    auto cls = vulndb::classify_record(r);
    std::string cls_name;
    switch (cls) {
      case vulndb::EaiClass::indirect:
        cls_name = "indirect/" + std::string(to_string(*r.input_origin));
        break;
      case vulndb::EaiClass::direct:
        cls_name = "direct/" + std::string(to_string(*r.entity));
        break;
      case vulndb::EaiClass::other: cls_name = "other"; break;
      default: cls_name = "excluded/" + std::string(to_string(r.cause));
    }
    // Each class name starts with its category (check_flags allows only
    // the four).
    if (cls_name.compare(0, filter.size(), filter) != 0) continue;
    ++shown;
    std::string desc = r.description.size() > 60
                           ? r.description.substr(0, 57) + "..."
                           : r.description;
    t.add_row({std::to_string(r.id), r.name, r.os, cls_name, desc});
  }
  std::printf("%s%d of %zu records\n", t.render().c_str(), shown, db.size());
  return 0;
}

int cmd_plan(const Flags& f) {
  const core::Scenario scenario = std::move(resolve_scenarios(f).front());
  core::CampaignOptions opts = campaign_options(f);
  // The plan file never carries the world snapshot; don't build one.
  opts.use_world_cache = false;
  core::InjectionPlan plan = core::Planner(scenario).plan(opts);
  check_site_tags(opts.only_sites, plan.points, plan.scenario_name);
  std::string json = plan.to_json();
  if (f.out.empty()) {
    std::printf("%s", json.c_str());
    return 0;
  }
  write_file_atomic(f.out, json);
  std::printf("%s: %zu interaction points, %zu work items -> %s\n",
              scenario.name.c_str(), plan.points.size(), plan.items.size(),
              f.out.c_str());
  return 0;
}

int cmd_plan_all(const Flags& f) {
  // Create the output directory up front: planning every scenario only
  // to fail on the first write would discard all of that work.
  if (::mkdir(f.out_dir.c_str(), 0777) != 0 && errno != EEXIST)
    throw std::runtime_error("cannot create '" + f.out_dir +
                             "': " + std::strerror(errno));
  core::MultiCampaign suite;
  for (auto& s : apps::all_scenarios()) suite.add(std::move(s));
  core::SweepOptions plan_opts;
  plan_opts.jobs = static_cast<int>(f.jobs);
  plan_opts.campaign = campaign_options(f);
  plan_opts.campaign.use_world_cache = false;  // plan files carry no snapshot
  auto plans = suite.plan_all(plan_opts);
  for (const auto& plan : plans) {
    std::string path = f.out_dir + "/" + plan.scenario_name + ".plan.json";
    write_file_atomic(path, plan.to_json());
    std::printf("%s: %zu interaction points, %zu work items -> %s\n",
                plan.scenario_name.c_str(), plan.points.size(),
                plan.items.size(), path.c_str());
  }
  return 0;
}

/// Set by the SIGTERM handler; run-shard's drain polls it between
/// checkpoint chunks, flushes the partial report, and exits 4 — a
/// preempted worker loses at most one chunk, never the shard.
volatile std::sig_atomic_t g_preempted = 0;

extern "C" void on_sigterm(int) { g_preempted = 1; }

int cmd_run_shard(Flags a) {
  core::InjectionPlan plan = load_plan(a.args[0]);

  // --shard K/N is the strided lease [K-1, n) stride N.
  core::IdRange owned;
  if (!a.shard.empty()) {
    std::size_t index = 0, count = 0;
    parse_shard_spec(a.shard, &index, &count);
    owned = core::static_shard(plan.items.size(), index, count);
  }
  core::ShardReport partial;
  const bool resuming = !a.resume_file.empty();
  if (resuming) {
    partial = load_shard_report(a.resume_file);
    if (!a.shard.empty() && partial.owned != owned)
      throw std::runtime_error(
          a.resume_file + ": holds ids " + partial.owned.str() +
          " but --shard " + a.shard + " owns ids " + owned.str());
    // Completing in place is the natural resume: the partial file becomes
    // the finished report unless --out redirects it.
    if (a.out.empty()) a.out = a.resume_file;
  }

  core::Scenario scenario = plan_scenario(plan, a.args[0], a.scenario_file);
  // The wire never carries the snapshot; re-freeze a local prototype so
  // the shard drains through the same COW clone path as a local run.
  core::refreeze_snapshot(plan, scenario);

  core::Executor executor(scenario);
  core::ExecutorOptions opts;
  opts.jobs = static_cast<int>(a.jobs);
  opts.use_redzone = !a.no_redzone;

  long long flushes = 0;
  core::ShardDrainHooks hooks;
  if (a.checkpoint > 0) {
    // Catch SIGTERM only when the drain can actually act on it (the stop
    // flag is polled between checkpoint chunks). Without --checkpoint
    // the drain is one uninterruptible chunk and the default disposition
    // — terminate — is the right behavior, not a swallowed signal.
    std::signal(SIGTERM, on_sigterm);
    hooks.checkpoint_every = a.checkpoint;
    hooks.interrupted = [] { return g_preempted != 0; };
    hooks.on_checkpoint = [&](const core::ShardReport& r) {
      write_file_atomic(a.out, r.to_json());
      // The CI determinism hook: deliver the preemption signal to
      // ourselves after N flushes, through the real handler.
      if (a.preempt_after > 0 && ++flushes >= a.preempt_after)
        (void)std::raise(SIGTERM);
    };
  }

  core::ShardReport report =
      resuming ? core::resume_shard(executor, plan, partial, opts, hooks)
               : core::run_lease(executor, plan, owned, opts, hooks);
  std::string json = report.to_json();
  if (a.out.empty()) {
    std::printf("%s", json.c_str());
    return report.complete ? 0 : 4;
  }
  write_file_atomic(a.out, json);
  std::printf("%s -> %s\n", core::render_shard_summary(report).c_str(),
              a.out.c_str());
  if (!report.complete) {
    std::fprintf(stderr,
                 "epa: preempted; partial report flushed to %s "
                 "(complete it with run-shard --resume)\n",
                 a.out.c_str());
    return 4;  // 4 = preempted, valid partial report on disk
  }
  return 0;
}

int cmd_merge(const std::string& plan_path,
              const std::vector<std::string>& shard_paths, bool as_json) {
  core::InjectionPlan plan = load_plan(plan_path);
  std::vector<core::ShardReport> shards;
  shards.reserve(shard_paths.size());
  // load_shard_report prefixes per-file failures with the path; the
  // paths double as labels so cross-shard validation failures (duplicate
  // shard, partial file, foreign plan) also name the offending file.
  for (const auto& path : shard_paths)
    shards.push_back(load_shard_report(path));
  // The same report and exit contract as `run`.
  return print_report(
      core::merge_shard_reports(plan, std::move(shards), shard_paths),
      as_json);
}

// --- orchestrated execution (core/orchestrator.hpp) -------------------------

/// The worker's protocol version for HELLO. EPA_WORKER_PROTOCOL overrides
/// it — the test hook that manufactures an old fleet so the handshake
/// rejection path is exercised on every plane.
long long worker_protocol_version() {
  const char* env = std::getenv("EPA_WORKER_PROTOCOL");
  if (!env || !*env) return core::kWorkerProtocolVersion;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(env, &end, 10);
  if (errno == ERANGE || end == env || *end != '\0')
    return core::kWorkerProtocolVersion;
  return v;
}

/// The plan a worker serves, with everything derived from it: the
/// scenario it drains against, the COW prototype frozen into the plan,
/// and the executor over both. PLAN replaces the whole bundle.
struct ServedPlan {
  core::InjectionPlan plan;
  core::Scenario scenario;
  std::unique_ptr<core::Executor> executor;  // refers to `scenario`
};

/// Read the next frame as a binary plan and re-freeze its prototype.
/// Logs one line per plan: the CLI tests count these to pin "parse +
/// re-freeze happen once per plan, not per lease".
std::unique_ptr<ServedPlan> load_served_plan(const Flags& a,
                                             core::FrameChannel& chan,
                                             const std::string& src) {
  auto s = std::make_unique<ServedPlan>();
  std::string frame;
  if (!chan.recv(&frame))
    throw std::runtime_error(src +
                             ": coordinator closed the stream before "
                             "sending a plan (handshake rejected?)");
  s->plan = naming(src, [&] { return core::plan_from_binary(frame); });
  s->scenario = plan_scenario(s->plan, src, a.scenario_file);
  core::refreeze_snapshot(s->plan, s->scenario);
  s->executor = std::make_unique<core::Executor>(s->scenario);
  std::fprintf(stderr,
               "epa worker: parsed %s (%zu items), prototype %s; serving\n",
               s->plan.scenario_name.c_str(), s->plan.items.size(),
               s->plan.snapshot ? "frozen" : "uncached");
  return s;
}

/// The persistent worker half of the orchestrator: parse a plan and
/// re-freeze the COW prototype once per plan, then serve LEASE frames
/// until EXIT/EOF. One framed stream carries everything (core/
/// protocol.hpp): stdin/stdout when a local coordinator forked us, the
/// socket with --connect. The first frame out is always `HELLO
/// <version>`; the first frame in is always the binary plan, and `PLAN`
/// (protocol v4) is followed by the next one — the old plan is freed
/// first, so one fleet serves a whole suite or family. Each lease is
/// answered with DONE and its binary report frame; the last frame out is
/// `BYE <status>`. Everything human-facing goes to stderr. SIGTERM is
/// graceful preemption: with --checkpoint the in-flight lease stops at
/// the next chunk boundary (no DONE, exit 4); without it the in-flight
/// lease finishes and the *next* one is refused with exit 4. Either way
/// the orchestrator re-leases the unfinished range whole.
///
/// With --checkpoint the worker also sends a PING heartbeat after every
/// chunk (feeding the coordinator's deadman) and polls for STEAL between
/// chunks: a stolen lease is answered with `YIELD <mid> <end>` — the
/// worker keeps the drained prefix [begin, mid) and the coordinator
/// re-leases the tail to an idle worker.
int cmd_worker(const Flags& a) {
  const bool remote = !a.connect.empty();
  const std::size_t colon = a.connect.rfind(':');  // as the parser split it
  const int sock = remote ? net::tcp_connect(a.connect.substr(0, colon),
                                             std::atoi(&a.connect[colon + 1]))
                          : -1;
  core::FrameChannel chan(remote ? sock : STDIN_FILENO,
                          remote ? sock : STDOUT_FILENO);
  const std::string src = remote ? a.connect : "stdin";
  chan.send(core::format_hello(worker_protocol_version()));

  long long done = 0;
  long long checkpoints = 0;  // cumulative across leases, like `done`
  auto serve = [&]() -> int {
    std::unique_ptr<ServedPlan> served = load_served_plan(a, chan, src);
    core::ExecutorOptions opts;
    opts.jobs = static_cast<int>(a.jobs);
    opts.use_redzone = !a.no_redzone;
    std::signal(SIGTERM, on_sigterm);

    std::string cmd;
    while (chan.recv(&cmd)) {
      core::ProtocolMsg msg;
      if (!core::parse_protocol_line(cmd, &msg)) {
        std::fprintf(stderr, "epa: worker: malformed command %s\n",
                     core::quote_frame(cmd).c_str());
        return 1;
      }
      if (msg.type == core::ProtocolMsg::Type::exit_cmd) break;
      if (msg.type == core::ProtocolMsg::Type::steal) continue;  // the
      // benign race: the lease it wanted stolen finished before the
      // STEAL arrived; there is nothing left to yield.
      if (msg.type == core::ProtocolMsg::Type::plan) {
        // The next plan of a fleet that outlives one (protocol v4). Free
        // the old bundle first, so the worker never holds two plans.
        served.reset();
        served = load_served_plan(a, chan, src);
        continue;
      }
      if (msg.type == core::ProtocolMsg::Type::feedback) {
        core::InjectionPlan& plan = served->plan;
        // The search plane's item append: the coordinator generated items
        // past the range this worker's plan copy carries, and the
        // work-items frame that follows holds them. The append must be
        // gap-free — begin names exactly the current item count, or a
        // lost FEEDBACK would silently shift every later id — and the
        // frame must hold exactly the announced range.
        if (msg.begin != plan.items.size()) {
          std::fprintf(stderr,
                       "epa: worker: FEEDBACK begins at %zu but the plan "
                       "holds %zu items (lost feedback?)\n",
                       msg.begin, plan.items.size());
          return 1;
        }
        std::string frame;
        if (!chan.recv(&frame))
          throw std::runtime_error(src + ": stream closed before the "
                                         "FEEDBACK items frame");
        std::vector<core::WorkItem> appended = naming(src, [&] {
          return core::work_items_from_binary(frame, plan.points.size());
        });
        if (msg.end != msg.begin + appended.size()) {
          std::fprintf(stderr,
                       "epa: worker: FEEDBACK range [%zu, %zu) but the "
                       "frame carries %zu item(s)\n",
                       msg.begin, msg.end, appended.size());
          return 1;
        }
        for (auto& item : appended) plan.items.push_back(std::move(item));
        // A search plan can start empty (every item arrives as
        // feedback); the prototype freeze was a no-op then, so pay it on
        // the first append instead.
        core::refreeze_snapshot(plan, served->scenario);
        continue;
      }
      if (msg.type != core::ProtocolMsg::Type::lease) {
        std::fprintf(stderr, "epa: worker: unexpected command %s\n",
                     core::quote_frame(cmd).c_str());
        return 1;
      }
      std::size_t begin = msg.begin, end = msg.end;
      if (g_preempted) {
        std::fprintf(stderr,
                     "epa: worker preempted; lease [%zu, %zu) not drained\n",
                     begin, end);
        return 4;  // the orchestrator re-leases [begin, end)
      }

      bool steal_requested = false;
      std::size_t chunks = 0;
      core::ShardDrainHooks hooks;
      if (a.checkpoint > 0) {
        hooks.checkpoint_every = a.checkpoint;
        hooks.interrupted = [&] {
          // The straggler hook: slow every chunk down so CI can force a
          // lease split deterministically.
          if (a.drain_delay_ms > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(a.drain_delay_ms));
          if (g_preempted) return true;
          std::string in;
          while (chan.poll(&in)) {
            core::ProtocolMsg m;
            if (core::parse_protocol_line(in, &m) &&
                m.type == core::ProtocolMsg::Type::steal)
              steal_requested = true;
          }
          // Honor a STEAL only once a chunk has landed — the yielded
          // split point must sit strictly inside the lease.
          return steal_requested && chunks > 0;
        };
        hooks.on_checkpoint = [&](const core::ShardReport&) {
          ++chunks;
          // Heartbeat at every checkpoint: the coordinator's deadman
          // only trusts a worker it has heard from recently.
          chan.send(core::format_ping());
          // CI determinism hook (--checkpoint mode): preempt mid-lease
          // at the Nth checkpoint, counted across the worker's whole
          // lifetime so replacements make progress before being
          // preempted too.
          if (a.preempt_after > 0 && ++checkpoints >= a.preempt_after)
            (void)std::raise(SIGTERM);
        };
      }
      core::ShardReport report = core::run_lease(
          *served->executor, served->plan, {begin, end}, opts, hooks);
      if (!report.complete && g_preempted) {
        // Preempted mid-lease: exit *without* DONE — a DONE is always
        // followed by a complete report. The orchestrator re-drains the
        // whole range.
        std::fprintf(stderr,
                     "epa: worker preempted mid-lease; [%zu, %zu) will be "
                     "re-leased\n",
                     begin, end);
        return 4;
      }
      if (!report.complete) {
        // Stopped for a STEAL: keep the drained prefix [begin, mid) and
        // surrender [mid, end). Shrinking the range to end at mid makes
        // the prefix a *complete* report for the kept half — the DONE
        // below names the shrunk lease.
        std::size_t mid = begin + report.item_ids.size();
        report.owned.end = mid;
        report.complete = true;
        chan.send(core::format_yield(mid, end));
        std::fprintf(stderr,
                     "epa worker: yielded [%zu, %zu) of lease [%zu, %zu)\n",
                     mid, end, begin, end);
        end = mid;
      }
      chan.send(core::format_done(begin, end));
      chan.send(core::shard_report_to_binary(report));
      ++done;
      // CI determinism hook (lease mode): deliver the preemption signal
      // to ourselves after N served leases, through the real handler.
      if (a.checkpoint == 0 && a.preempt_after > 0 && done >= a.preempt_after)
        (void)std::raise(SIGTERM);
    }
    return 0;
  };

  int rc = 0;
  try {
    rc = serve();
  } catch (...) {
    // A remote coordinator cannot see an exit status — announce the
    // death so it is classified `died`, not a lost host to re-lease
    // around.
    chan.send(core::format_bye(1));
    throw;
  }
  chan.send(core::format_bye(rc));
  std::fprintf(stderr, "epa worker: served %lld lease(s), exiting\n", done);
  return rc;
}

/// One worker fleet for a whole command, on either plane, configured from
/// the command's flags. The first drain builds the transport on its plan;
/// each later drain makes its plan current in place (Transport::load_plan,
/// worker protocol v4), so `orchestrate --all` and `search --family` spawn
/// or accept their workers once rather than once per scenario.
class CommandFleet {
 public:
  CommandFleet(const Flags& f, int workers, const char* argv0)
      : tcp_(f.tcp), lease_(static_cast<std::size_t>(f.lease)),
        who_(f.cmd->name) {
    cfg_.epa_cli = core::LocalProcessTransport::self_exe(argv0);
    // A spec file is forwarded so workers compile the same spec the
    // coordinator planned, even when its name is not in the registry.
    cfg_.scenario_file = f.scenario_file;
    cfg_.jobs = static_cast<int>(f.jobs);
    cfg_.use_redzone = !f.no_redzone;
    cfg_.preempt_after = f.preempt_after;
    cfg_.checkpoint = f.checkpoint;
    cfg_.drain_delay_ms = f.drain_delay_ms;
    tcfg_.listen_port = static_cast<int>(f.listen);
    tcfg_.port_file = f.port_file;
    tcfg_.workers = workers;
    opts_.workers = workers;
    opts_.deadman_ms = f.deadman_ms;
  }

  /// Items per lease for a wave of `items` items: --lease K, or --lease
  /// auto's sizing from the plan's measured planning time.
  std::size_t grain(std::size_t items, double plan_ms) const {
    return lease_ > 0 ? lease_
                      : core::auto_lease_items(items, opts_.workers, plan_ms);
  }

  /// Drain `source` over the fleet with `grain` items per lease and print
  /// the member's lease counts on stderr. The last member closes the
  /// fleet first, so its line also counts any shutdown deadman kills.
  core::CampaignResult drain(core::WorkSource& source,
                             std::size_t known_items, std::size_t grain,
                             const std::string& member, bool last) {
    const core::InjectionPlan& plan = source.plan();
    if (transport_) {
      transport_->load_plan(plan);
    } else if (tcp_) {
      auto t = std::make_unique<net::TcpTransport>(tcfg_, plan);
      std::fprintf(stderr,
                   "epa %s: listening on port %d; waiting for %d worker(s) "
                   "(epa_cli worker --connect HOST:%d)\n",
                   who_, t->port(), opts_.workers, t->port());
      transport_ = std::move(t);
    } else {
      transport_ = std::make_unique<core::LocalProcessTransport>(cfg_);
      transport_->load_plan(plan);
    }
    if (!fleet_) fleet_.emplace(*transport_, opts_);
    core::OrchestratorStats stats;
    core::CampaignResult result =
        fleet_->drain(source, known_items, grain, &stats);
    if (last) fleet_->close(&stats);
    std::fprintf(stderr,
                 "epa %s: %s: %zu leases across %zu worker(s) "
                 "(%zu re-leased, %zu preempted, %zu spawned, %zu split, "
                 "%zu deadman)\n",
                 who_, member.c_str(), stats.leases_total,
                 static_cast<std::size_t>(opts_.workers),
                 stats.leases_released, stats.workers_preempted,
                 stats.workers_spawned, stats.leases_split,
                 stats.deadman_expiries);
    return result;
  }

 private:
  bool tcp_;
  std::size_t lease_;  // --lease K; 0 = auto
  const char* who_;
  core::LocalProcessConfig cfg_;
  net::TcpTransportConfig tcfg_;
  core::OrchestratorOptions opts_;
  std::unique_ptr<core::Transport> transport_;
  std::optional<core::Fleet> fleet_;  // over *transport_
};

/// Plan `scenario` in-process and time it: the planning wall time is the
/// per-item cost sample --lease auto sizes leases from.
core::InjectionPlan timed_plan(const core::Scenario& scenario,
                               const Flags& f, bool use_world_cache,
                               double* plan_ms) {
  core::CampaignOptions popts;
  popts.use_world_cache = use_world_cache;
  popts.use_redzone = !f.no_redzone;
  const auto plan_t0 = std::chrono::steady_clock::now();
  core::InjectionPlan plan = core::Planner(scenario).plan(popts);
  *plan_ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - plan_t0)
                 .count();
  return plan;
}

/// The adequacy lines on stderr (stdout stays byte-identical to a
/// single-process run on every plane): the coverage figure after `spent`,
/// then one line per fired class, which adequacy tooling and the CI
/// superset check read without parsing the report.
void print_coverage(const char* who, const core::SweepResult& sweep,
                    const std::string& spent) {
  vulndb::VulnCoverage cov = vulndb::vulnerability_coverage(sweep.results);
  std::fprintf(stderr,
               "epa %s: %svulnerability coverage %zu/%d EAI classes "
               "(%.1f%%)\n",
               who, spent.c_str(), cov.fired.size(), cov.total(),
               100.0 * cov.fraction());
  for (const auto& c : cov.fired)
    std::fprintf(stderr, "epa %s: fired %s\n", who, c.c_str());
}

int cmd_orchestrate(const Flags& f, const char* argv0) {
  const std::vector<core::Scenario> scenarios = resolve_scenarios(f);
  CommandFleet fleet(f, f.workers > 0 ? static_cast<int>(f.workers) : 2,
                     argv0);

  core::SweepResult sweep;
  for (std::size_t m = 0; m < scenarios.size(); ++m) {
    const core::Scenario& scenario = scenarios[m];
    // The coordinator plans in-process and keeps the plan in memory for
    // the merge; only workers pay a plan parse (once per plan), and the
    // plan they get carries no snapshot.
    double plan_ms = 0.0;
    core::InjectionPlan plan = timed_plan(scenario, f, false, &plan_ms);
    const std::size_t grain = fleet.grain(plan.items.size(), plan_ms);
    if (f.lease == 0)
      std::fprintf(stderr,
                   "epa orchestrate: %s: auto lease grain %zu item(s) "
                   "(planning took %.0f ms)\n",
                   scenario.name.c_str(), grain, plan_ms);

    // The exhaustive drain: one wave over the whole fixed plan, exactly
    // what core::orchestrate() runs, so every byte matches `run`.
    core::PlanWorkSource source(plan);
    sweep.results.push_back(fleet.drain(source, plan.items.size(), grain,
                                        scenario.name,
                                        m + 1 == scenarios.size()));
  }
  print_coverage("orchestrate", sweep, "");
  if (f.all) return print_sweep(sweep, f.json);
  return print_report(sweep.results.front(), f.json);
}

// --- coverage-guided search (core/search.hpp, docs/SEARCH.md) ---------------

/// The search drive: one SearchWorkSource per scenario, drained through
/// the one wave loop either in-process (one run_lease per wave) or
/// across a worker fleet (the workers learn generated items via protocol
/// FEEDBACK). A family search runs its members sequentially through ONE
/// shared NoveltyScorer with the budget split evenly (remainder to the
/// first member), so a class fired by member one stops paying rent in
/// member two. Exit
/// contract: 0/3 like `run`, 4 when --stop-after ended the search early
/// on either drive (checkpoint flushed; finish with --resume).
int cmd_search(const Flags& f, const char* argv0) {
  const std::vector<core::Scenario> scenarios = resolve_scenarios(f);

  // An orchestrated search drains every member over one fleet.
  const bool orchestrated = f.workers > 0;
  std::optional<CommandFleet> fleet;
  if (orchestrated) fleet.emplace(f, static_cast<int>(f.workers), argv0);

  core::NoveltyScorer scorer;  // shared across family members
  core::SweepResult sweep;
  std::size_t exhaustive_items = 0;
  std::size_t generated_items = 0;
  for (std::size_t m = 0; m < scenarios.size(); ++m) {
    const core::Scenario& scenario = scenarios[m];
    const std::size_t budget = static_cast<std::size_t>(f.budget);
    const std::size_t member_budget =
        budget / scenarios.size() +
        (m == 0 ? budget % scenarios.size() : 0);

    // The exhaustive plan is the candidate frontier; its planning wall
    // time doubles as the per-item cost sample for --lease auto.
    double plan_ms = 0.0;
    core::InjectionPlan base =
        timed_plan(scenario, f, !orchestrated, &plan_ms);
    exhaustive_items += base.items.size();

    core::SearchOptions sopts;
    sopts.seed = f.seed;
    sopts.budget = member_budget;
    sopts.batch = static_cast<std::size_t>(f.batch);
    sopts.stop_after_waves = static_cast<std::size_t>(f.stop_after);
    sopts.classify = [](core::FaultKind kind, const std::string& name) {
      return vulndb::coverage_class(kind, name);
    };
    core::SearchWorkSource source(std::move(base), sopts, &scorer);

    // Resume replays the checkpointed waves *before* the checkpoint hook
    // is installed, so replay never re-writes the state file. A missing
    // state file is a fresh start — a search killed before its first
    // wave barrier left nothing behind, by design.
    if (f.resume) {
      struct stat st{};
      if (::stat(f.state.c_str(), &st) == 0)
        naming(f.state, [&] {
          source.resume(core::search_state_from_json(read_file(f.state)));
        });
    }
    if (!f.state.empty())
      source.set_checkpoint([&](const core::SearchState& s) {
        write_file_atomic(f.state, core::search_state_to_json(s));
      });

    core::CampaignResult result;
    if (!orchestrated) {
      core::Executor executor(scenario);
      core::ExecutorOptions eopts;
      eopts.jobs = static_cast<int>(f.jobs);
      eopts.use_redzone = !f.no_redzone;
      result = core::drain_waves(
          source, [&](std::size_t begin, std::size_t end, auto& reports,
                      auto& labels) {
            reports.push_back(
                core::run_lease(executor, source.plan(), {begin, end}, eopts));
            labels.push_back("wave " +
                             std::to_string(source.waves_generated()));
          });
    } else {
      // Waves are at most `batch` items, so the auto grain sizes leases
      // against the wave, not the (unbounded) generated stream.
      result = fleet->drain(source, source.plan().items.size(),
                            fleet->grain(sopts.batch, plan_ms),
                            scenario.name, m + 1 == scenarios.size());
    }
    if (source.stopped()) {
      std::fprintf(stderr,
                   "epa search: stopped after %zu wave(s); state "
                   "checkpointed to %s (finish with --resume)\n",
                   source.waves_generated(), f.state.c_str());
      return 4;
    }
    generated_items += source.plan().items.size();
    std::fprintf(stderr,
                 "epa search: %s: %zu item(s) in %zu wave(s), budget %zu\n",
                 scenario.name.c_str(), source.plan().items.size(),
                 source.waves_generated(), member_budget);
    sweep.results.push_back(std::move(result));
  }

  char spent[128];
  std::snprintf(spent, sizeof spent,
                "%zu of %zu exhaustive item(s) spent (%.1f%%), ",
                generated_items, exhaustive_items,
                exhaustive_items == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(generated_items) /
                          static_cast<double>(exhaustive_items));
  print_coverage("search", sweep, spent);
  if (scenarios.size() > 1) return print_sweep(sweep, f.json, true);
  return print_report(sweep.results.front(), f.json);
}

/// Malformed or partial wire files must exit non-zero with a clear
/// message, never let an exception escape main.
template <typename Fn>
int guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "epa: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags f;
  for (const CommandRow& c : kCommands)
    if (argc >= 2 && std::strcmp(argv[1], c.name) == 0) f.cmd = &c;
  if (!f.cmd || !parse_flags(argc, argv, &f)) return usage();
  if (int rc = check_flags(f)) return rc;
  return guarded([&] {
    switch (f.cmd->bit) {
      case kList: return cmd_list();
      case kScenarios: return cmd_scenarios(f.family, f.spec, f.json);
      case kTrace: return cmd_trace(f.args[0]);
      case kRun: return cmd_run(f);
      case kSweep: return cmd_sweep(f);
      case kPlan: return f.all ? cmd_plan_all(f) : cmd_plan(f);
      case kRunShard: return cmd_run_shard(f);
      case kMerge:
        return cmd_merge(f.args[0], {f.args.begin() + 1, f.args.end()},
                         f.json);
      case kOrchestrate: return cmd_orchestrate(f, argv[0]);
      case kSearch: return cmd_search(f, argv[0]);
      case kWorker: return cmd_worker(f);
      case kCompare: return cmd_compare(f.args[0], f.args[1]);
      default: return cmd_db(f.args.empty() ? "" : f.args[0]);
    }
  });
}
