#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see NOTES.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the repository root. The first call configures and builds the
library sources plus perfbench/perfbench.cpp into .bench_build/perfbench
(Release); later calls rebuild incrementally. The benchmark binary prints its
environment block and one metric per line, and a final JSON line
{"correct", "attempted", "failed", "metrics"}, which this script re-emits as
the last line of its own output. With --trace 1 the binary also writes its
spans once, at exit, through the obs Perfetto exporter; this script validates
that file with tools/check_trace_json.py and prints each span's self time
(its duration minus the part its child spans on the same thread cover).

--self-check runs every workload at a tiny extent in both modes and asserts
that every metric named in BENCHMARK.json is emitted with its unit.

Exits non-zero without printing a result when the build fails (for example
when the library sources are not present).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "mrc_api.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                     timeout=840)
            except (OSError, subprocess.TimeoutExpired) as exc:
                fail("build step %s failed: %s" % (cmd[0:2], exc))
            if rc != 0:
                with open(log_path, encoding="utf-8", errors="replace") as fh:
                    tail = fh.read()[-4000:]
                print(tail, file=sys.stderr)
                fail("build failed (%s)" % " ".join(cmd[0:2]))


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "not-a-git-checkout"


def run_binary(workload, seed, seconds, trace, extent=None):
    """Runs one benchmark process; returns (forwarded lines, result dict, trace path)."""
    trace_path = os.path.join(BUILD, "trace-%s-%s.json" % (workload, seed))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--git", git_describe(), "--trace-out", trace_path]
    if extent is not None:
        cmd += ["--extent", str(extent)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")
    return lines[:-1], result, trace_path


def check_trace(path, serve):
    """Runs the repository's trace validator; returns True when it passes."""
    ok = True
    modes = [[], ["--serve"]] if serve else [[]]
    for extra in modes:
        proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "check_trace_json.py")]
                              + extra + [path], cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        tag = "check_trace_json.py%s" % (" --serve" if extra else "")
        out = (proc.stdout + proc.stderr).strip().replace("\n", " | ")
        print("%s: %s (exit %d)" % (tag, out[:300], proc.returncode))
        ok = ok and proc.returncode == 0
    return ok


def self_times(path):
    """Per span name: (count, total, self) microseconds, where a span's self time
    is its duration minus the part of it that its direct child spans on the
    same thread cover."""
    with open(path, encoding="utf-8") as fh:
        events = [e for e in json.load(fh)["traceEvents"] if e.get("ph") == "X"]
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    table = {}
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, name, dur, child_cover]

        def close(frame):
            row = table.setdefault(frame[1], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += frame[2]
            row[2] += max(0.0, frame[2] - frame[3])

        for e in evs:
            start, dur = float(e["ts"]), float(e["dur"])
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                stack[-1][3] += dur
            stack.append([start + dur, e["name"], dur, 0.0])
        while stack:
            close(stack.pop())
    return table


def print_self_times(path):
    table = self_times(path)
    print("trace self time (span minus child spans, same thread):")
    print("  %-32s %8s %14s %14s" % ("span", "count", "total_ms", "self_ms"))
    for name, (count, total, self_us) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print("  %-32s %8d %14.3f %14.3f" % (name, count, total / 1e3, self_us / 1e3))


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            _, result, trace_path = run_binary(workload, 7, 1, trace, extent=64)
            tag = "%s --trace %d" % (workload, trace)
            if not result.get("correct"):
                problems.append(tag + ": correct is false")
            if result.get("failed") != 0:
                problems.append(tag + ": %s failed operations" % result.get("failed"))
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            for name, unit in want[trace].items():
                if name not in got:
                    problems.append("%s: metric %s missing" % (tag, name))
                elif got[name] != unit:
                    problems.append("%s: metric %s has unit %s, want %s"
                                    % (tag, name, got[name], unit))
            for name in got:
                if name not in want[trace]:
                    problems.append("%s: metric %s not in BENCHMARK.json" % (tag, name))
            if trace and not check_trace(trace_path, workload != "snapshot-roundtrip"):
                problems.append(tag + ": span export failed check_trace_json.py")
            print("self-check %-32s %d metrics" % (tag, len(got)))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        sys.exit(1)
    print("self-check OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    build()
    if args.self_check:
        self_check()
        return
    if not args.workload:
        fail("--workload is required")
    lines, result, trace_path = run_binary(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if args.trace:
        if not check_trace(trace_path, args.workload != "snapshot-roundtrip"):
            result["correct"] = False
        print_self_times(trace_path)
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
