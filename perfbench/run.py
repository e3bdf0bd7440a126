#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload suite-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Builds the engine library, epa_cli and the driver (Release) under
$CARGO_TARGET_DIR/perfbench (default .bench_build, relative to the
repository root), then runs the driver. The driver's last stdout line is the JSON result. `--workload
all` runs every workload in turn.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["suite-sweep", "fleet-campaigns", "search-fleet"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then build the two targets the driver needs."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_driver",
                  "epa_cli", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (" + " ".join(cmd[:2]) + "); see " +
                     log_path, 1)
    driver = os.path.join(bdir, "perfbench_driver")
    epa_cli = os.path.join(bdir, "repo", "epa_cli")
    return driver, epa_cli


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "examples", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sources-sha256-" + h.hexdigest()[:16]


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the engine sources (CMakeLists.txt, src/) are not beside "
             "perfbench/; run from a full checkout")
    workload = None
    for i, a in enumerate(argv):
        if a == "--workload" and i + 1 < len(argv):
            workload = argv[i + 1]
    if workload is None:
        fail("usage: run.py --workload NAME|all --seed N --seconds S "
             "--trace 0|1")
    bdir = build_dir()
    driver, epa_cli = build(bdir)
    tail = ["--epa-cli", epa_cli, "--out", os.path.join(bdir, "out"),
            "--commit", commit_id()]
    if workload != "all":
        sys.stdout.flush()
        os.execv(driver, [driver] + argv + tail)
    rc = 0
    for w in WORKLOADS:
        args = list(argv)
        args[args.index("--workload") + 1] = w
        rc = max(rc, subprocess.call([driver] + args + tail))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
