#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the root of the checkout:

    python3 perfbench/test_perfbench.py

- smoke: every workload, untraced and traced, briefly (--smoke
  --seconds 1); the result line must carry exactly the metrics that
  BENCHMARK.json declares, with their units, and correct answers.
- fail closed: an injected failure during set-up and after the load,
  SIGTERM to the entry point mid-run, and SIGKILL of the harness
  mid-run.  Each must exit non-zero without a result line, and no
  process the run started may survive it.
- a directory holding only BENCHMARK.json and perfbench/ must make the
  benchmark exit non-zero without a result.
"""

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest
import uuid

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open("BENCHMARK.json") as f:
    BENCH = json.load(f)


def start(workload, *extra, seconds=1, trace=0, smoke=True):
    tag = uuid.uuid4().hex
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd + list(extra), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PERFBENCH_TAG=tag))
    return proc, tag


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def cmdline(pid):
    try:
        with open("/proc/%d/cmdline" % pid, "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def wait_for(predicate, timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        found = predicate()
        if found:
            return found
        time.sleep(0.05)
    return None


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        proc, tag = start(workload, trace=trace)
        out, err = proc.communicate(timeout=600)
        self.assertEqual(proc.returncode, 0, err[-2000:])
        self.assertEqual(run.tagged_pids(tag), [])
        result = result_line(out)
        self.assertIsNotNone(result, out[-2000:])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in declared))
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(sorted(got), ["unit", "value"])
            self.assertEqual(got["unit"], m["unit"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        context = [l for l in out.splitlines() if l.startswith("context: ")]
        self.assertEqual(len(context), 1)
        ctx = json.loads(context[0][len("context: "):])
        for key in ("schema", "git_rev", "ocaml", "host", "nproc", "backend", "seed",
                    "request_stream_digest", "host_ref_ms"):
            self.assertIn(key, ctx)

    def test_daemon_warm(self):
        self.check("daemon-warm", 0)

    def test_daemon_warm_traced(self):
        self.check("daemon-warm", 1)

    def test_daemon_cold(self):
        self.check("daemon-cold", 0)

    def test_daemon_cold_traced(self):
        self.check("daemon-cold", 1)

    def test_explore_cold(self):
        self.check("explore-cold", 0)

    def test_explore_cold_traced(self):
        self.check("explore-cold", 1)

    def test_same_seed_same_stream(self):
        digests = []
        for _ in range(2):
            proc, _ = start("daemon-cold")
            out, _ = proc.communicate(timeout=600)
            line = [l for l in out.splitlines() if l.startswith("context: ")][0]
            digests.append(json.loads(line[len("context: "):])["request_stream_digest"])
        self.assertEqual(digests[0], digests[1])


class FailClosed(unittest.TestCase):
    def assert_failed_clean(self, proc, tag, out, scratch_removed=True):
        self.assertNotEqual(proc.returncode, 0)
        result = result_line(out)
        self.assertFalse(isinstance(result, dict) and "metrics" in result, out[-2000:])
        self.assertEqual(run.tagged_pids(tag), [])
        if scratch_removed:
            self.assertFalse(os.path.exists(".perfbench-run"))

    def injected(self, workload, stage):
        proc, tag = start(workload, "--fail-at", stage)
        out, _ = proc.communicate(timeout=600)
        self.assert_failed_clean(proc, tag, out)

    def test_injected_failure_in_setup(self):
        self.injected("daemon-warm", "setup")

    def test_injected_failure_after_load(self):
        self.injected("daemon-cold", "load")

    def daemon_with_lanes(self, tag):
        """A tagged `xenergy serve` with its pool lanes forked."""
        for pid in run.tagged_pids(tag):
            if "serve" in cmdline(pid) and len(run.tagged_pids(tag)) >= 4:
                return pid
        return None

    def test_sigterm_mid_run(self):
        proc, tag = start("daemon-warm", seconds=60, smoke=False)
        self.assertIsNotNone(wait_for(lambda: self.daemon_with_lanes(tag)))
        time.sleep(0.5)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        self.assert_failed_clean(proc, tag, out)

    def test_harness_killed_mid_run(self):
        proc, tag = start("daemon-warm", seconds=60, smoke=False)
        self.assertIsNotNone(wait_for(lambda: self.daemon_with_lanes(tag)))
        harness = [p for p in run.tagged_pids(tag) if "perfbench.exe" in cmdline(p)]
        self.assertEqual(len(harness), 1)
        os.kill(harness[0], signal.SIGKILL)
        out, _ = proc.communicate(timeout=60)
        # A SIGKILLed harness cannot tidy up; the next run clears it.
        self.assert_failed_clean(proc, tag, out, scratch_removed=False)

    def test_bare_directory_fails(self):
        bare = os.path.join(".perfbench-test", uuid.uuid4().hex)
        os.makedirs(bare)
        try:
            shutil.copy("BENCHMARK.json", bare)
            for path in BENCH["paths"]:
                shutil.copytree(path, os.path.join(bare, path))
            r = subprocess.run(BENCH["command"] + ["--workload", "daemon-warm", "--seed", "1",
                                                   "--seconds", "1", "--trace", "0"],
                               cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertIsNone(result_line(r.stdout))
        finally:
            shutil.rmtree(".perfbench-test")


if __name__ == "__main__":
    unittest.main(verbosity=2)
