// The real epa_cli's argv parser, subcommand by subcommand, against every
// flag name: a value flag a subcommand takes, given last, is "requires a
// value" (exit 1); a switch it takes is accepted, so the parser goes on
// to the unknown probe after it (exit 2); every other flag is an unknown
// option (exit 2). The accepted sets are written out here by hand, so a
// flag that drifts onto or off a subcommand fails this test. No probe
// gets past the parser, so no campaign runs.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace {

/// The exit status and stderr of one epa_cli command line; stdin and
/// stdout are /dev/null (usage goes to stdout).
struct Outcome {
  int status = -1;
  std::string err;
};

/// Runs `runs` a few at a time, each one posix_spawn of epa_cli (no copy
/// of this process's address space, which is large under ASan).
std::vector<Outcome> run_all(
    const std::vector<std::vector<std::string>>& runs) {
  constexpr std::size_t kInFlight = 4;
  std::vector<Outcome> out(runs.size());
  for (std::size_t first = 0; first < runs.size(); first += kInFlight) {
    const std::size_t last = std::min(runs.size(), first + kInFlight);
    std::vector<std::pair<pid_t, int>> live;  // pid, read end of stderr
    for (std::size_t i = first; i < last; ++i) {
      int fds[2];
      EXPECT_EQ(::pipe2(fds, O_CLOEXEC), 0);
      posix_spawn_file_actions_t io;
      posix_spawn_file_actions_init(&io);
      posix_spawn_file_actions_addopen(&io, STDIN_FILENO, "/dev/null",
                                       O_RDONLY, 0);
      posix_spawn_file_actions_addopen(&io, STDOUT_FILENO, "/dev/null",
                                       O_WRONLY, 0);
      posix_spawn_file_actions_adddup2(&io, fds[1], STDERR_FILENO);
      std::vector<char*> argv = {const_cast<char*>(EP_EPA_CLI)};
      for (const std::string& a : runs[i])
        argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      pid_t pid = -1;
      EXPECT_EQ(posix_spawn(&pid, EP_EPA_CLI, &io, nullptr, argv.data(),
                            environ),
                0);
      posix_spawn_file_actions_destroy(&io);
      ::close(fds[1]);
      live.emplace_back(pid, fds[0]);
    }
    for (std::size_t k = 0; k < live.size(); ++k) {
      Outcome& o = out[first + k];
      char buf[4096];
      ssize_t n;
      while ((n = ::read(live[k].second, buf, sizeof buf)) > 0)
        o.err.append(buf, static_cast<std::size_t>(n));
      ::close(live[k].second);
      int status = 0;
      ::waitpid(live[k].first, &status, 0);
      o.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
  }
  return out;
}

struct Accepted {
  std::set<std::string> values;    // flags that take the next argv slot
  std::set<std::string> switches;  // flags that take nothing
};

TEST(CliFlagTable, EveryCommandTakesExactlyItsFlags) {
  const std::map<std::string, Accepted> accepted = {
      {"list", {}},
      {"scenarios", {{"--family", "--spec"}, {"--json"}}},
      {"trace", {}},
      {"run",
       {{"--scenario-file", "--sites", "--coverage", "--seed", "--jobs"},
        {"--json", "--merge", "--no-redzone"}}},
      {"sweep",
       {{"--family", "--scenario-file", "--seed", "--jobs"},
        {"--json", "--merge", "--no-redzone"}}},
      {"plan",
       {{"--scenario-file", "--sites", "--coverage", "--seed", "--jobs",
         "--out", "--out-dir"},
        {"--all", "--merge"}}},
      {"run-shard",
       {{"--scenario-file", "--jobs", "--out", "--shard", "--resume",
         "--checkpoint", "--preempt-after"},
        {"--no-redzone"}}},
      {"merge", {{}, {"--json"}}},
      {"orchestrate",
       {{"--scenario-file", "--jobs", "--checkpoint", "--preempt-after",
         "--drain-delay-ms", "--workers", "--lease", "--data-plane",
         "--deadman-ms", "--listen", "--port-file", "--dir"},
        {"--json", "--all", "--no-redzone"}}},
      {"search",
       {{"--family", "--scenario-file", "--seed", "--jobs", "--workers",
         "--lease", "--data-plane", "--listen", "--port-file", "--dir",
         "--budget", "--batch", "--state", "--stop-after"},
        {"--json", "--no-redzone", "--resume"}}},
      {"worker",
       {{"--scenario-file", "--jobs", "--checkpoint", "--preempt-after",
         "--drain-delay-ms", "--connect"},
        {"--no-redzone"}}},
      {"compare", {}},
      {"db", {}},
  };
  // Every flag any subcommand takes, plus --no-world-cache and --binary,
  // which none takes any more.
  std::set<std::string> names = {"--no-world-cache", "--binary"};
  for (const auto& [cmd, a] : accepted) {
    names.insert(a.values.begin(), a.values.end());
    names.insert(a.switches.begin(), a.switches.end());
  }

  const std::string probe = "--no-such-flag";
  std::vector<std::vector<std::string>> runs;
  std::vector<std::pair<int, std::string>> expected;  // status, stderr
  for (const auto& [cmd, a] : accepted)
    for (const std::string& flag : names) {
      if (a.values.count(flag)) {
        runs.push_back({cmd, flag});
        expected.emplace_back(1, "epa: " + flag + " requires a value\n");
      } else if (a.switches.count(flag)) {
        runs.push_back({cmd, flag, probe});
        expected.emplace_back(2, "epa: unknown option '" + probe + "'\n");
      } else {
        runs.push_back({cmd, flag});
        expected.emplace_back(2, "epa: unknown option '" + flag + "'\n");
      }
    }

  const std::vector<Outcome> got = run_all(runs);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const std::string line = "epa_cli " + runs[i][0] + " " + runs[i][1] +
                             (runs[i].size() > 2 ? " " + runs[i][2] : "");
    EXPECT_EQ(got[i].status, expected[i].first) << line;
    EXPECT_EQ(got[i].err, expected[i].second) << line;
  }
}

}  // namespace
