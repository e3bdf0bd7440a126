// The worker transports' shared half, and the local one.
//
// Every worker — forked on this machine or dialed in from another —
// speaks the same frame stream (core/protocol.hpp): HELLO up, the binary
// plan down, then LEASE/FEEDBACK + work-items frame/PLAN + plan frame/
// STEAL/EXIT down and PING/YIELD/DONE + report frame/BYE up.
// FramedTransport owns that conversation for every transport: the HELLO
// check (version, 64 KiB opening cap), plan shipping and plan switches,
// lease bookkeeping, the poll loop, and the one frame dispatcher. A
// transport adds only how it gets a worker (fork or accept) and how it
// learns why a worker's stream ended.
//
// LocalProcessTransport forks `epa_cli worker` with one end of a
// socketpair as its stdin and stdout; stderr is inherited (progress and
// diagnostics pass through). The worker parses its plan and re-freezes
// the COW prototype once per plan — the frame shipped at spawn, and the
// frame after each `PLAN` load_plan() queues for it — then drains
// leases until told to stop. Nothing touches the file system.
//
// Exit statuses mirror run-shard: 0 clean, 1 failure, 4 preempted
// (SIGTERM — the worker finishes its in-flight lease, then refuses the
// next one). A local worker's death is classified by its wait status:
// exit 0 is `exited`, exit 4 and the preemption signals are `preempted`
// (re-lease and replace), anything else is `died` (would only fail
// again).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <sys/types.h>
#include <vector>

#include "core/orchestrator.hpp"
#include "core/protocol.hpp"

namespace ep::core {

/// The frame dispatcher every transport shares. Subclasses get workers
/// (spawn() + adopt()) and classify how their streams end (ended()).
class FramedTransport : public Transport {
 public:
  /// Closes every worker stream still open.
  ~FramedTransport() override;

  FramedTransport(const FramedTransport&) = delete;
  FramedTransport& operator=(const FramedTransport&) = delete;

  void submit(std::size_t worker, const Lease& lease) override;
  void steal(std::size_t worker) override;
  /// FEEDBACK and the work-items frame (wire.hpp's
  /// work_items_to_binary()) — the search plane's item append.
  void feedback(std::size_t worker, const InjectionPlan& plan,
                std::size_t begin, std::size_t end) override;
  /// Re-encodes the plan frame. Workers adopted later get it first
  /// thing; live ones get `PLAN` plus the frame, once, before their
  /// next FEEDBACK or LEASE.
  void load_plan(const InjectionPlan& plan) override;
  std::optional<WorkerEvent> wait_any(long timeout_ms) override;
  /// EXIT, then half-close: the worker reads EOF after EXIT even if it
  /// missed the frame, and its BYE and exit still arrive.
  void shutdown(std::size_t worker) override;
  /// Closes the stream now, then killed() — no further events arrive.
  void kill(std::size_t worker) override;

 protected:
  /// `kind` names workers in diagnostics ("worker 3", "tcp worker 3").
  explicit FramedTransport(std::string kind);

  /// Take over a connected worker stream (`fd`, read and written) and
  /// ship it the current plan frame; returns the worker id. `greeted`
  /// says HELLO was already checked (check_hello()); otherwise it must
  /// be the stream's first frame, under kMaxOpeningFrameBytes.
  std::size_t adopt(int fd, bool greeted);
  bool has_plan() const { return !plan_wire_.empty(); }
  bool alive(std::size_t worker) const { return conns_[worker].fd >= 0; }
  /// Close a worker's stream without classifying its end.
  void close_stream(std::size_t worker);
  /// Throws OrchestratorError unless `frame` is
  /// `HELLO <kWorkerProtocolVersion>`.
  static void check_hello(const std::string& who, const std::string& frame);
  std::string who(std::size_t worker) const;
  /// The exit-status rule both kinds of worker share: 0 exited, 4
  /// preempted, anything else died.
  static WorkerEvent::Kind kind_of_status(int status);

  /// Classify the end of `worker`'s stream (already closed): `bye` is
  /// the status it announced with BYE, if it did.
  virtual WorkerEvent ended(std::size_t worker, std::optional<int> bye) = 0;
  /// After kill() closed the stream: the transport's own hammer.
  virtual void killed(std::size_t worker) { (void)worker; }

 private:
  struct Conn {
    int fd = -1;
    bool saw_eof = false;
    bool writable = true;  // false once shutdown() half-closed it
    bool greeted = false;  // HELLO checked
    std::optional<int> bye;
    bool has_lease = false;
    bool awaiting_report = false;  // DONE seen; next frame is the report
    Lease lease;  // shrinks in place when the worker YIELDs a tail
    FrameBuffer frames;
    std::size_t plan_gen = 0;  // the load_plan() generation it holds
  };

  Conn& conn(std::size_t worker, const char* op);
  std::optional<WorkerEvent> dispatch(std::size_t worker,
                                      const std::string& frame);
  WorkerEvent reap(std::size_t worker);
  /// Send `PLAN` and the current plan frame to a worker still on an
  /// older plan, ahead of the FEEDBACK or LEASE about to follow.
  void sync_plan(Conn& c);

  std::string kind_;
  std::string plan_wire_;     // binary EPAB plan, shipped per worker
  std::size_t plan_gen_ = 0;  // bumped by every load_plan()
  std::vector<Conn> conns_;
};

/// The worker process every local spawn starts.
struct LocalProcessConfig {
  /// The worker binary — normally the running epa_cli itself
  /// (self_exe()).
  std::string epa_cli;
  /// A JSON plan file the constructor parses and makes
  /// current; empty when load_plan() names the first plan. Kept with
  /// out_dir and file_prefix for perfbench's in-process fleets until
  /// ROADMAP item 10 retires them with the benchmark's plane rotation.
  std::string plan_path;
  /// Unused: nothing is written anywhere (ROADMAP item 10).
  std::string out_dir;
  /// Unused (ROADMAP item 10).
  std::string file_prefix = "plan";
  /// --jobs forwarded to each worker.
  int jobs = 1;
  /// --no-redzone forwarded when false (the redzone memory oracle is on
  /// by default; see os/redzone.hpp).
  bool use_redzone = true;
  /// --preempt-after forwarded when > 0: each worker self-preempts
  /// (exit 4) — after serving N leases, or, with `checkpoint` set, after
  /// N checkpoints (which lands the preemption *mid-lease*). The CI
  /// determinism hook for the kill-and-re-lease path.
  long long preempt_after = 0;
  /// --checkpoint forwarded when > 0: workers drain leases in chunks of
  /// K items, send a PING heartbeat after each chunk, and poll for STEAL
  /// — checkpointing is what makes the deadman and work stealing live.
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

/// Workers forked on this machine, one socketpair each.
class LocalProcessTransport : public FramedTransport {
 public:
  explicit LocalProcessTransport(LocalProcessConfig config);
  /// Kills (SIGTERM) and reaps any worker still alive — orchestrate()
  /// shuts workers down cleanly on success; this is the error-path net.
  ~LocalProcessTransport() override;

  /// Fork one `epa_cli worker`; its HELLO is checked as it arrives.
  std::optional<std::size_t> spawn() override;

  /// The absolute path of the running binary (/proc/self/exe), falling
  /// back to `argv0` where the link is unavailable — how `epa_cli
  /// orchestrate` names the worker binary without guessing.
  static std::string self_exe(const char* argv0);

 protected:
  /// Reaps the worker and classifies its wait status.
  WorkerEvent ended(std::size_t worker, std::optional<int> bye) override;
  /// SIGKILL + reap, immediately — the deadman's path for a worker that
  /// is wedged (stopped, not exited) and will never answer SIGTERM.
  void killed(std::size_t worker) override;

 private:
  LocalProcessConfig config_;
  std::vector<pid_t> pids_;  // by worker id
};

/// Constructor-only: a LocalProcessTransport with `plan` current, kept
/// so perfbench's shm lane still builds until ROADMAP item 10 retires it.
/// `leases` is unused.
class ShmLocalTransport : public LocalProcessTransport {
 public:
  ShmLocalTransport(LocalProcessConfig config, const InjectionPlan& plan,
                    const std::vector<Lease>& leases);
};

}  // namespace ep::core
