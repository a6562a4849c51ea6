#!/usr/bin/env python3
"""Build the benchmark and the cold_serve daemon from source, then run one
workload and pass its result line through.

    python3 coldbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 coldbench/run.py --selftest

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
when that is set (relative to the checkout or absolute), else to _build.
"""
import os
import shutil
import signal
import subprocess
import sys
import time

RUN_TIMEOUT = 170  # seconds; the benchmark itself stops well before this


def fail(msg, code=2):
    sys.stderr.write("coldbench: %s\n" % msg)
    sys.exit(code)


def group_alive(pgid):
    """Whether a process of group pgid is still running (zombies excepted)."""
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


def stop_group(pgid):
    """Kill what is left of the run's process group and wait until none of
    it runs. The benchmark stops its daemons itself; this covers a
    benchmark killed by a signal, whose daemon would otherwise outlive it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)


def find_dune():
    """dune on PATH, else in the opam switch the environment names, else in
    the one opam reports."""
    found = shutil.which("dune")
    if found:
        return found
    candidates = []
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix:
        candidates.append(os.path.join(prefix, "bin", "dune"))
    if shutil.which("opam"):
        try:
            out = subprocess.run(["opam", "var", "bin"], capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0 and out.stdout.strip():
                candidates.append(os.path.join(out.stdout.strip(), "dune"))
        except (OSError, subprocess.TimeoutExpired):
            pass
    for c in candidates:
        if os.path.isfile(c) and os.access(c, os.X_OK):
            return c
    return None


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("bin", "cold_serve_main.ml"))):
        fail("run from the root of a cold checkout: no dune-project, lib/ "
             "or bin/cold_serve_main.ml here")
    dune = find_dune()
    if dune is None:
        fail("dune not found on PATH nor in the current opam switch")
    # Relative or absolute, as given; dune accepts both.
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    # The compilers dune calls sit next to it in an opam switch.
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    built = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", build_dir, "-j", "2",
         "./coldbench/coldbench.exe", "./bin/cold_serve.exe"],
        stdout=sys.stderr, env=env)
    if built.returncode != 0:
        fail("build failed", built.returncode)
    exe = os.path.join(build_dir, "default", "coldbench", "coldbench.exe")
    daemon = os.path.join(build_dir, "default", "bin", "cold_serve.exe")
    proc = subprocess.Popen([exe] + argv + ["--daemon", daemon],
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT, 3)
    stop_group(proc.pid)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
