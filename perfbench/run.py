#!/usr/bin/env python3
"""Entry point of the xenergy benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload daemon-warm --seed 1 --seconds 25 --trace 0

It builds the CLI and the harness from source with dune (build output
goes to stderr), runs the harness (perfbench/perfbench.ml), and passes
its standard output through unchanged: the last line is the result
JSON.  The exit code is the harness's.

Fail-closed: the harness runs in a session of its own and so does every
daemon and CLI process it starts.  This wrapper makes itself a child
subreaper, so processes orphaned by a crashed harness are re-parented
here, and tags every descendant with a PERFBENCH_TAG environment value.
On every exit path (normal end, failed check, exception, SIGINT, SIGTERM,
timeout) it kills whatever still carries the tag and reaps every child,
so no process the benchmark started outlives it.
"""

import argparse
import ctypes
import os
import signal
import subprocess
import sys
import time
import uuid

WORKLOADS = ("daemon-warm", "daemon-cold", "explore-cold")
HARNESS = os.path.join("_build", "default", "perfbench", "perfbench.exe")
XENERGY = os.path.join("_build", "default", "bin", "xenergy.exe")
BUILD_TIMEOUT_S = 850
HARNESS_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def parse_args(argv):
    p = argparse.ArgumentParser(description="xenergy benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="one set-up and few repetitions: a quick schema check")
    p.add_argument("--fail-at", choices=("setup", "load"),
                   help="inject a failure at this stage (self-test of the cleanup)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def become_subreaper():
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # the tag scan below still finds and kills survivors


def tagged_pids(tag):
    """Live processes (not zombies) whose environment carries the tag."""
    needle = ("PERFBENCH_TAG=" + tag).encode()
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        try:
            with open("/proc/%s/environ" % entry, "rb") as f:
                env = f.read().split(b"\0")
        except OSError:
            continue
        if needle in env:
            found.append(int(entry))
    return found


def reap_children():
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def kill_survivors(tag):
    """SIGKILL every tagged process and reap our children until none is left."""
    deadline = time.monotonic() + 10
    while True:
        pids = tagged_pids(tag)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        reap_children()
        if not pids or time.monotonic() > deadline:
            return
        time.sleep(0.01)


def build(env):
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", XENERGY, HARNESS]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return False
    if r.returncode != 0:
        log("build failed (exit %d)" % r.returncode)
        return False
    return True


def main(argv):
    args = parse_args(argv)
    for need in ("dune-project", os.path.join("bin", "xenergy.ml"),
                 os.path.join("perfbench", "perfbench.ml")):
        if not os.path.exists(need):
            log("run from the root of an xenergy checkout (%s is missing)" % need)
            return 2
    tag = os.environ.get("PERFBENCH_TAG") or uuid.uuid4().hex
    env = dict(os.environ, PERFBENCH_TAG=tag, DUNE_CACHE="disabled")
    become_subreaper()
    harness = None

    def on_signal(signum, _frame):
        if harness is not None and harness.poll() is None:
            try:
                os.killpg(harness.pid, signal.SIGTERM)
            except OSError:
                pass
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGHUP, on_signal)
    try:
        if not build(env):
            return 3
        cmd = [os.path.join(".", HARNESS), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--exe", os.path.join(".", XENERGY)]
        if args.smoke:
            cmd.append("--smoke")
        if args.fail_at:
            cmd += ["--fail-at", args.fail_at]
        sys.stdout.flush()
        harness = subprocess.Popen(cmd, env=env, start_new_session=True)
        try:
            return harness.wait(timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("harness still running after %d s; killed" % HARNESS_TIMEOUT_S)
            return 4
    except KeyboardInterrupt:
        log("interrupted")
        return 130
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        if harness is not None and harness.poll() is None:
            # Give the harness a moment to stop its daemons in order.
            try:
                os.killpg(harness.pid, signal.SIGTERM)
                harness.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                pass
        kill_survivors(tag)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
