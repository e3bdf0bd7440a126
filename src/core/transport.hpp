// LocalProcessTransport: the orchestrator's first Transport — epa_cli
// worker processes on this machine, pipes as the control wire, files as
// the data wire.
//
// Each spawn() forks one `epa_cli worker PLAN` process with its stdin
// and stdout connected to the coordinator. The control protocol is the
// versioned line grammar in core/protocol.hpp (HELLO handshake, LEASE
// grants, PING heartbeats, STEAL/YIELD work stealing, DONE results) —
// deliberately shell-debuggable, and byte-identical to what the tcp
// transport frames over sockets.
//
// The worker parses its plan and re-freezes the COW prototype once per
// plan — at startup, and again on each PLAN line load_plan() queues for
// it — then drains leases until told to stop; it writes each lease's
// ShardReport atomically to the LEASE-named target *before* printing
// DONE, so a DONE line always names a readable, complete report. Worker
// stderr is inherited (progress and diagnostics pass through); stdout
// carries protocol lines only, starting with `HELLO 5`.
//
// Exit statuses mirror run-shard: 0 clean, 1 failure, 4 preempted
// (SIGTERM — the worker finishes its in-flight lease, then refuses the
// next one). wait_any() classifies a death into a typed event: exit 0 is
// `exited`, exit 4 and the preemption signals are `preempted` (re-lease
// and replace), anything else is `died` (would only fail again).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <sys/types.h>
#include <vector>

#include "core/arena.hpp"
#include "core/orchestrator.hpp"
#include "core/protocol.hpp"

namespace ep::core {

struct LocalProcessConfig {
  /// The worker binary — normally the running epa_cli itself
  /// (self_exe()).
  std::string epa_cli;
  /// Serialized plan a worker parses at startup (JSON data plane; the
  /// shm transport ships the plan inside its arena instead). Empty is
  /// fine when load_plan() names the first plan.
  std::string plan_path;
  /// Directory lease report files, load_plan()'s plan files and the shm
  /// transport's arena files are written to.
  std::string out_dir;
  /// Lease files are named <file_prefix>.lease<seq>.json; the shm
  /// transport's arena is <file_prefix>.arena. load_plan() sets it to
  /// the plan's scenario name.
  std::string file_prefix = "plan";
  /// --jobs forwarded to each worker.
  int jobs = 1;
  /// --no-world-cache forwarded when false.
  bool use_world_cache = true;
  /// --no-redzone forwarded when false (the redzone memory oracle is on
  /// by default; see os/redzone.hpp).
  bool use_redzone = true;
  /// --preempt-after forwarded when > 0: each worker self-preempts
  /// (exit 4) — after serving N leases, or, with `checkpoint` set, after
  /// N checkpoint flushes (which lands the preemption *mid-lease*). The
  /// CI determinism hook for the kill-and-re-lease path.
  long long preempt_after = 0;
  /// --checkpoint forwarded when > 0: workers drain leases in chunks of
  /// K items, flush a valid partial report after each chunk (so a
  /// preemption mid-lease leaves a re-leasable partial behind), send a
  /// PING heartbeat, and poll for STEAL — checkpointing is what makes
  /// the deadman and work stealing live.
  long long checkpoint = 0;
  /// --drain-delay-ms forwarded when > 0: each worker sleeps this long
  /// before every checkpoint chunk. A testing hook that manufactures
  /// deterministic stragglers for the work-stealing path.
  long long drain_delay_ms = 0;
  /// --scenario-file forwarded when set: workers compile the declarative
  /// spec instead of resolving the plan's scenario name through the
  /// registry — how an orchestrated run drives a spec-file-only scenario.
  std::string scenario_file;
};

/// The JSON-pipe data plane. Subclasses swap the data plane (how the
/// plan reaches workers and how reports come back) by overriding the
/// protected hooks; the process plumbing — fork/exec, poll, protocol
/// dispatch, exit-status classification — is shared.
class LocalProcessTransport : public Transport {
 public:
  explicit LocalProcessTransport(LocalProcessConfig config);
  /// Kills (SIGTERM) and reaps any worker still alive — orchestrate()
  /// shuts workers down cleanly on success; this is the error-path net.
  ~LocalProcessTransport() override;

  LocalProcessTransport(const LocalProcessTransport&) = delete;
  LocalProcessTransport& operator=(const LocalProcessTransport&) = delete;

  std::optional<std::size_t> spawn() override;
  void submit(std::size_t worker, const Lease& lease) override;
  void steal(std::size_t worker) override;
  /// FEEDBACK line down the worker's stdin — the search plane's item
  /// append. Shared by the pipe and shm data planes (both drive workers
  /// over stdin); the item spec rides as one token (wire.hpp's
  /// feedback_spec()).
  void feedback(std::size_t worker, const InjectionPlan& plan,
                std::size_t begin, std::size_t end) override;
  /// Writes <out_dir>/<scenario>.plan.json and makes it current: later
  /// spawns parse it, live workers get `PLAN <path>`. `leases` is unused
  /// on this plane.
  void load_plan(const InjectionPlan& plan,
                 const std::vector<Lease>& leases) override;
  std::optional<WorkerEvent> wait_any(long timeout_ms) override;
  void shutdown(std::size_t worker) override;
  /// SIGKILL + reap, immediately — the deadman's path for a worker that
  /// is wedged (stopped, not exited) and will never answer SIGTERM.
  void kill(std::size_t worker) override;

  /// The absolute path of the running binary (/proc/self/exe), falling
  /// back to `argv0` where the link is unavailable — how `epa_cli
  /// orchestrate` names the worker binary without guessing.
  static std::string self_exe(const char* argv0);

 protected:
  struct Proc {
    pid_t pid = -1;
    int in_fd = -1;   // worker stdin (coordinator writes)
    int out_fd = -1;  // worker stdout (coordinator reads)
    std::string buf;  // partial protocol line
    bool alive = false;
    bool saw_eof = false;
    bool said_hello = false;  // HELLO handshake completed
    bool has_lease = false;
    Lease lease;  // shrinks in place when the worker YIELDs a tail
    std::string lease_token;  // what LEASE named as the report target
    std::size_t plan_gen = 0;  // the load_plan() generation it holds
  };

  /// Worker argv after the binary path. Base: worker <plan> --jobs N
  /// [...]; the shm transport substitutes --arena for the plan file.
  virtual std::vector<std::string> worker_args() const;
  /// The report-target token of a LEASE line: a report file path (base)
  /// or the shm transport's @<seq> segment reference.
  virtual std::string lease_token(const Lease& lease) const;
  /// The token of a PLAN line for the current plan: the plan file (base)
  /// or the shm transport's arena path.
  virtual std::string plan_token() const;
  /// Turn a parsed DONE message into ev.report + ev.label. Base: no
  /// handoff allowed, the report is read from the lease file. Shm: the
  /// (offset, length) handoff is decoded from the coordinator's own
  /// mapping. Throws OrchestratorError/WireError on a broken worker.
  virtual void load_report(const Proc& p, const ProtocolMsg& done,
                           WorkerEvent& ev);
  /// Common flags (--jobs, --no-world-cache, --no-redzone,
  /// --preempt-after, --checkpoint, --drain-delay-ms) every data plane
  /// forwards.
  void append_common_args(std::vector<std::string>& args) const;

  const LocalProcessConfig& config() const { return config_; }

  /// Finish a load_plan(): name later files after `prefix` and mark
  /// every live worker as owing a PLAN line.
  void plan_loaded(const std::string& prefix);

 private:
  WorkerEvent handle_line(std::size_t worker, const std::string& line);
  WorkerEvent reap(std::size_t worker);
  /// Write `PLAN <token>` to a worker still on an older plan, so it
  /// switches before the FEEDBACK or LEASE about to follow.
  void sync_plan(Proc& p);

  LocalProcessConfig config_;
  std::vector<Proc> procs_;
  std::size_t plan_gen_ = 0;  // bumped by every load_plan()
};

/// The same-host shared-memory data plane (core/arena.hpp): the binary
/// plan is frozen into an mmap'd arena once per plan, each lease owns a
/// fixed arena segment indexed by its seq, workers write binary reports
/// into their lease's segment directly, and DONE carries only an
/// (offset, length) handoff — zero parse and zero copy on the
/// coordinator's hot path, and no JSON anywhere between the processes.
class ShmLocalTransport : public LocalProcessTransport {
 public:
  /// `leases` must be the exact partition orchestrate() will schedule
  /// (lease_partition()) — segments are indexed by lease seq and sized
  /// for the largest lease. kMaxLeaseSplits extra segments are reserved
  /// past the partition so stolen-tail leases (fresh seqs) have arena
  /// homes too. Creates <out_dir>/<file_prefix>.arena.
  ShmLocalTransport(LocalProcessConfig config, const InjectionPlan& plan,
                    const std::vector<Lease>& leases);

  const std::string& arena_path() const { return arena_.path(); }

  /// Creates <out_dir>/<scenario>.arena for `plan`, sized for `leases`
  /// like the constructor, and unmaps the previous arena; live workers
  /// get `PLAN <arena path>`.
  void load_plan(const InjectionPlan& plan,
                 const std::vector<Lease>& leases) override;

 protected:
  std::vector<std::string> worker_args() const override;
  std::string lease_token(const Lease& lease) const override;
  std::string plan_token() const override;
  void load_report(const Proc& p, const ProtocolMsg& done,
                   WorkerEvent& ev) override;

 private:
  ShmArena arena_;
};

/// How large a lease's arena segment is for a lease of `lease_items`
/// items: a fixed base plus a generous per-item budget. A report that
/// still does not fit is a clean worker error, not a truncation.
std::size_t arena_segment_bytes(std::size_t lease_items);

}  // namespace ep::core
