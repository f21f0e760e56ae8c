#!/usr/bin/env python3
"""Build and run the e2lshos steady benchmark.

One run (what BENCHMARK.json's "command" invokes):

    python3 perfbench/run.py --workload cssd_uniform --seed 1 --seconds 15 --trace 0

builds perfbench/ (and the library from the repository's sources) into
$CARGO_TARGET_DIR or .bench_build/, runs one workload, and passes the
program's output through. The last stdout line is the JSON result. The
exit status is the program's: 0 when every answer check passed, 1 when
one failed; 2 when the build or set-up failed (no result line).

Repeat mode (runs the workloads in alternating order, one seed per
round, and prints each end-to-end metric's median, quartiles and spread
next to its bound from BENCHMARK.json):

    python3 perfbench/run.py --repeat 10 [--first-seed N] [--seconds 15]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure once, then build incrementally. Output goes to stderr."""
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"run.py: {' '.join(cmd)}: {e}", file=sys.stderr)
            return None
        if rc != 0:
            print(f"run.py: build step failed ({rc}): {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    return os.path.join(bdir, "perfbench")


def parse_result(stdout):
    """The last stdout line as the result object, or None when malformed."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(res, dict) or set(res) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return res


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Run one workload; returns (exit code, result or None, stdout)."""
    bdir = build_dir()
    # Relative paths keep the UNIX socket path short.
    sock = os.path.relpath(os.path.join(bdir, f"perfbench-{os.getpid()}.sock"),
                           ROOT)
    spans = os.path.relpath(
        os.path.join(bdir, f"spans-{workload}.tsv"), ROOT)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--sock", sock, "--spans", spans if trace else ""]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        if echo:
            sys.stdout.write("".join(l + "\n" for l in out.splitlines()[:-1]))
        print(f"run.py: {workload} seed {seed} timed out after "
              f"{RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4, None, out
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, parse_result(proc.stdout), proc.stdout


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def host_probe(stdout):
    start = end = None
    for line in stdout.splitlines():
        if line.startswith("host probe (start):"):
            start = float(line.split()[3])
        elif line.startswith("host probe (end):"):
            end = float(line.split()[3])
    return start, end


def repeat(binary, args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    e2e = spec["end_to_end"]
    values = {w: {m["name"]: [] for m in e2e} for w in workloads}
    failures = 0
    for r in range(args.repeat):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.first_seed + r
            code, res, out = run_once(binary, w, seed, seconds, 0, echo=False)
            with open(os.path.join(build_dir(), f"repeat-{w}-{seed}.txt"),
                      "w") as f:
                f.write(out)
            start, end = host_probe(out)
            ok = code == 0 and res is not None and res["correct"]
            failures += 0 if ok else 1
            print(f"round {r + 1:2d} {w:18s} seed {seed:3d} exit {code} "
                  f"correct {res['correct'] if res else None} "
                  f"host probe {start} -> {end} ms", flush=True)
            if res is None:
                continue
            missing = [m["name"] for m in e2e if m["name"] not in res["metrics"]]
            if missing:
                print(f"  missing metrics: {missing}")
            for m in e2e:
                if m["name"] in res["metrics"]:
                    values[w][m["name"]].append(res["metrics"][m["name"]]["value"])
    print()
    print(f"{'workload':18s} {'metric':14s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}  verdict")
    for w in workloads:
        for m in e2e:
            v = values[w][m["name"]]
            if len(v) < 2:
                print(f"{w:18s} {m['name']:14s} (fewer than 2 values)")
                continue
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= m["bound"] / 3:
                verdict = "ok (< bound/3)"
            elif spread <= m["bound"]:
                verdict = "within bound, above bound/3"
            else:
                verdict = "OVER BOUND"
            print(f"{w:18s} {m['name']:14s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {m['bound']:6.3f}  {verdict}")
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0,
                    help="measured seconds (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="repeat mode: rounds over the workloads")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if not args.repeat and not args.workload:
        ap.error("--workload is required (or --repeat N)")

    binary = build()
    if binary is None:
        return 2
    if args.repeat:
        return repeat(binary, args)
    seconds = args.seconds or load_spec()["run_seconds"]
    code, res, _ = run_once(binary, args.workload, args.seed, seconds,
                            args.trace)
    if code == 0 and res is None:
        print("run.py: the last output line is not a result object",
              file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
