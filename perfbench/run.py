#!/usr/bin/env python3
"""Build the benchmark and the server from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 10 --trace 0

Builds go into .bench_build/ at the repository root (or $CARGO_TARGET_DIR
when set, relative to the root), with the Go build cache, module cache and
tool configuration kept there too, so a run reads and writes only inside the
checkout. Build output goes to standard error; the benchmark's last line of
standard output is its JSON result. Without the repository's sources next to
this directory the build fails and the script exits non-zero.
"""
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # the benchmark itself; the first build may take longer


def commit():
    """The checkout's git commit, or "" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def source_hash():
    """A hash of the Go sources being built, committed or not."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith((".go", ".s", ".mod")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    data = f.read()
                h.update(b"%d\0" % len(data) + data)
    return h.hexdigest()[:16]


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bin_dir = os.path.join(build, "bin")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    builds = [
        (["go", "build", "-o", os.path.join(bin_dir, "rlibm-serve"), "./cmd/rlibm-serve"], ROOT, {}),
        (["go", "build", "-o", os.path.join(bin_dir, "perfbench"), "."], HERE, {}),
        (["go", "build", "-o", os.path.join(bin_dir, "perfbench-v3"), "."], HERE, {"GOAMD64": "v3"}),
    ]
    for cmd, cwd, extra in builds:
        if subprocess.run(cmd, cwd=cwd, env={**env, **extra}, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    env.update(PERFBENCH_BIN=bin_dir, PERFBENCH_COMMIT=commit(), PERFBENCH_SOURCE=source_hash())
    # Turn SIGTERM into an exit, so the finally clause below stops the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen([os.path.join(bin_dir, "perfbench")] + sys.argv[1:], cwd=ROOT, env=env,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds; stopping it" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        # The benchmark stops its own server processes; on a timeout or an
        # interrupt, stop the whole process group and wait for it.
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
