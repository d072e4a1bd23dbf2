#!/usr/bin/env python3
"""Build and run the FastFlex simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/main.exe from source
with dune, runs it, and checks that its last output line is one JSON
object carrying exactly the metrics BENCHMARK.json declares: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
With --trace 1 the run's spans are written to .perfbench-out/.

Exits non-zero without printing a result when the sources are missing,
the build fails, the run fails or times out, or the result does not
match BENCHMARK.json.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/main.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
SPANS_DIR = os.path.join(ROOT, ".perfbench-out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    """dune on PATH, else in the active or only opam switch."""
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    die("dune not found (put the OCaml toolchain on PATH)")


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("missing %s: run from a full checkout of the repository" % needed)
    dune = find_dune()
    env = dict(os.environ)
    # the compiler lives next to dune; keep dune's shared cache off so
    # nothing is written outside the checkout
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", os.defpath)
    env["DUNE_CACHE"] = "disabled"
    try:
        r = subprocess.run(
            [dune, "build", "--root", ROOT, "--display", "quiet", TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out", 1)
    if r.returncode != 0:
        die("build failed", 1)


def check_result(line, bench, trace):
    try:
        res = json.loads(line)
    except ValueError:
        die("last output line is not JSON: %r" % line[:200], 1)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        die("result has keys %s" % sorted(res), 1)
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        die("metrics differ from BENCHMARK.json: missing %s, extra %s, unit %s"
            % (missing, extra, wrong), 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        die("unknown workload %s" % args.workload)

    build()

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPANS_DIR, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run timed out after %d s" % RUN_TIMEOUT_S, 1)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(r.stdout)
        die("run failed with exit code %d" % r.returncode, 1)
    check_result(lines[-1], bench, args.trace)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
