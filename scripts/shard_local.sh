#!/usr/bin/env bash
# Fan one scenario's campaign across N worker processes on this machine:
#
#   scripts/shard_local.sh [-n SHARDS] [-b EPA_CLI] [-o OUTDIR] [-j] [-O]
#                          [-D PLANE] [-c CHECKPOINT] [-P PREEMPT]
#                          SCENARIO
#
#   -n SHARDS       worker process count (default 4)
#   -b EPA_CLI      path to the epa_cli binary (default ./build/epa_cli)
#   -o OUTDIR       where plan/shard files go (default: a fresh temp dir)
#   -j              print the merged report as JSON
#   -O              drive the campaign through `epa_cli orchestrate`
#                   (dynamic stride-1 leases, persistent workers,
#                   automatic re-lease of preempted work) instead of the
#                   static K/N run-shard fan-out (shard K/N owns the
#                   strided lease of ids K-1, K-1+N, ...)
#   -D PLANE        orchestrate data plane: pipe, shm, or tcp (implies
#                   -O). shm orchestrates over the mmap'd arena — no
#                   JSON between the processes at all; tcp runs the
#                   coordinator with --listen 0 and dials the workers
#                   into the published port over localhost — the remote
#                   fan-out, end to end, on one machine
#   -c CHECKPOINT   flush a resumable partial report every K outcomes; a
#                   worker that exits 4 (preempted, e.g. SIGTERM) is
#                   automatically completed with run-shard --resume
#                   (with -O/-D: workers flush partials mid-lease and
#                   preemption re-leases the unfinished range)
#   -P PREEMPT      self-preempt each worker after N checkpoint flushes
#                   (with -O/-D and no -c: after N served leases;
#                   testing hook)
#
# plan -> N x run-shard (parallel processes) -> merge. The merged report
# is bit-identical to a single-process `epa_cli run SCENARIO` for any N
# (docs/WIRE_FORMAT.md); exit status is merge's: 0 clean, 3 candidate
# vulnerabilities found, 1 on any malformed input or worker failure.
set -euo pipefail

shards=4
epa_cli=./build/epa_cli
outdir=
json_flag=
orchestrate=
data_plane=
checkpoint=
preempt=

usage() {
  sed -n '2,30p' "$0" >&2
  exit 2
}

while getopts 'n:b:o:jOD:c:P:h' opt; do
  case "$opt" in
    n) shards=$OPTARG ;;
    b) epa_cli=$OPTARG ;;
    o) outdir=$OPTARG ;;
    j) json_flag=--json ;;
    O) orchestrate=1 ;;
    D) orchestrate=1; data_plane=$OPTARG ;;
    c) checkpoint=$OPTARG ;;
    P) preempt=$OPTARG ;;
    *) usage ;;
  esac
done
shift $((OPTIND - 1))
[ $# -eq 1 ] || usage
scenario=$1

case "${data_plane:-pipe}" in
  pipe|shm|tcp) ;;
  *) echo "shard_local: -D must be pipe, shm, or tcp" >&2; exit 2 ;;
esac

case "$shards" in
  ''|*[!0-9]*|0) echo "shard_local: -n must be a positive integer" >&2; exit 2 ;;
esac
case "${checkpoint:-1}" in
  ''|*[!0-9]*|0) echo "shard_local: -c must be a positive integer" >&2; exit 2 ;;
esac
case "${preempt:-1}" in
  ''|*[!0-9]*|0) echo "shard_local: -P must be a positive integer" >&2; exit 2 ;;
esac
if [ -n "$preempt" ] && [ -z "$checkpoint" ] && [ -z "$orchestrate" ]; then
  echo "shard_local: -P needs -c (preemption is delivered at a checkpoint flush)" >&2
  exit 2
fi
[ -x "$epa_cli" ] || { echo "shard_local: no epa_cli at '$epa_cli' (build first, or pass -b)" >&2; exit 2; }
if [ -z "$outdir" ]; then
  outdir=$(mktemp -d "${TMPDIR:-/tmp}/epa-shard.XXXXXX")
else
  mkdir -p "$outdir"
fi

# Any exit — success, a failed worker, set -e on a bad merge — must kill
# and reap whatever background workers are still running: without this, a
# first-worker failure left the rest writing into $outdir after the
# script had already reported failure. Reaped pids are cleared from the
# array so the trap never signals a recycled pid. A failed run must also
# not strand mmap'd arena files (-D shm): unlike shard JSON they are
# per-run scratch, not resumable artifacts, so unlink them on any exit
# that is not a campaign result (0 clean, 3 findings).
pids=()
cleanup() {
  local rc=$? pid
  for pid in "${pids[@]}"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  for pid in "${pids[@]}"; do
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
  done
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 3 ]; then
    rm -f "$outdir"/*.arena "$outdir"/*.port
  fi
}
trap cleanup EXIT

# -D tcp: the remote fan-out on one machine. The coordinator binds an
# ephemeral port and publishes it; the workers dial in over localhost and
# hold sockets, not pipes — but they are background children of this
# script all the same, so they go into the same pids array the EXIT trap
# kills and reaps on every failure path. With -P a spare worker is
# pre-started: it parks in the accept backlog until a self-preempted
# worker needs replacing, and the coordinator adopts it instantly.
if [ "$data_plane" = tcp ]; then
  portfile="$outdir/$scenario.port"
  rm -f "$portfile"
  "$epa_cli" orchestrate "$scenario" --workers "$shards" \
    --data-plane tcp --listen 0 --port-file "$portfile" \
    ${json_flag:+"$json_flag"} &
  coord=$!
  pids+=("$coord")
  for _ in $(seq 1 100); do
    [ -s "$portfile" ] && break
    kill -0 "$coord" 2>/dev/null || break
    sleep 0.1
  done
  if ! [ -s "$portfile" ]; then
    echo "shard_local: coordinator never published a port" >&2
    exit 1
  fi
  port=$(cat "$portfile")
  worker_flags=()
  [ -n "$checkpoint" ] && worker_flags+=(--checkpoint "$checkpoint")
  [ -n "$preempt" ] && worker_flags+=(--preempt-after "$preempt")
  spares=0
  [ -n "$preempt" ] && spares=1
  for _ in $(seq 1 $((shards + spares))); do
    "$epa_cli" worker --connect "127.0.0.1:$port" "${worker_flags[@]}" >&2 &
    pids+=($!)
  done
  rc=0
  wait "$coord" || rc=$?
  pids[0]=  # reaped: the trap must not kill a recycled pid
  # 3 = candidate vulnerabilities: a finding, not a pipeline failure.
  [ "$rc" -eq 0 ] || [ "$rc" -eq 3 ] || exit "$rc"
  echo "tcp coordinator port file in $outdir" >&2
  exit "$rc"
fi

# -O/-D: hand the whole pipeline to the orchestrator — dynamic id-range
# leases over persistent workers, preempted leases re-leased
# automatically. -n is the worker count; plan and lease files (or the
# shm arena, with -D shm) land in OUTDIR like the shard files below would.
if [ -n "$orchestrate" ]; then
  orch_flags=()
  [ -n "$data_plane" ] && orch_flags+=(--data-plane "$data_plane")
  [ -n "$checkpoint" ] && orch_flags+=(--checkpoint "$checkpoint")
  [ -n "$preempt" ] && orch_flags+=(--preempt-after "$preempt")
  [ -n "$json_flag" ] && orch_flags+=("$json_flag")
  rc=0
  "$epa_cli" orchestrate "$scenario" --workers "$shards" --dir "$outdir" \
    "${orch_flags[@]}" || rc=$?
  # 3 = candidate vulnerabilities: a finding, not a pipeline failure.
  [ "$rc" -eq 0 ] || [ "$rc" -eq 3 ] || exit "$rc"
  if [ -n "$data_plane" ]; then
    echo "plan+report arena in $outdir" >&2
  else
    echo "lease files in $outdir" >&2
  fi
  exit "$rc"
fi

worker_flags=()
[ -n "$checkpoint" ] && worker_flags+=(--checkpoint "$checkpoint")
[ -n "$preempt" ] && worker_flags+=(--preempt-after "$preempt")

# Progress goes to stderr: stdout carries only the merged report, so
# `shard_local.sh -j NAME > report.json` stays clean.
plan="$outdir/$scenario.plan.json"
"$epa_cli" plan "$scenario" --out "$plan" >&2

for k in $(seq 1 "$shards"); do
  "$epa_cli" run-shard "$plan" --shard "$k/$shards" \
    --out "$outdir/$scenario.shard$k.json" "${worker_flags[@]}" >&2 &
  pids+=($!)
done
for idx in "${!pids[@]}"; do
  k=$((idx + 1))
  rc=0
  wait "${pids[$idx]}" || rc=$?
  pids[$idx]=  # reaped: the trap must not kill a recycled pid
  # Preempted worker (exit 4): a valid partial report is on disk —
  # resume it (--resume re-drains only the missing ids and completes in
  # place). A resume can itself be preempted, so loop; each round makes
  # progress (at least one checkpoint interval), so this terminates.
  resume_flags=()
  [ -n "$checkpoint" ] && resume_flags+=(--checkpoint "$checkpoint")
  while [ "$rc" -eq 4 ]; do
    echo "shard_local: shard $k/$shards preempted; resuming" >&2
    rc=0
    "$epa_cli" run-shard "$plan" \
      --resume "$outdir/$scenario.shard$k.json" "${resume_flags[@]}" >&2 \
      || rc=$?
  done
  if [ "$rc" -ne 0 ]; then
    echo "shard_local: a shard worker failed" >&2
    exit 1
  fi
done

shard_files=()
for k in $(seq 1 "$shards"); do
  shard_files+=("$outdir/$scenario.shard$k.json")
done
rc=0
"$epa_cli" merge "$plan" "${shard_files[@]}" $json_flag || rc=$?
# 3 = candidate vulnerabilities: a finding, not a failure of the pipeline.
[ "$rc" -eq 0 ] || [ "$rc" -eq 3 ] || exit "$rc"
echo "shard files in $outdir" >&2
exit "$rc"
