#!/usr/bin/env python3
"""Build and run streamcast's end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload oneshot-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --steady 10 [--workload W] [--seconds S] [--trace 0]

Run from the root of a checkout. The Go toolchain's caches, temporary files
and the benchmark binary all live under .bench_build/ in the checkout. The
first form builds (incrementally) and runs one workload in one process; its
last line of output is the result JSON. --steady runs each workload (or the
one named) once per seed 1..N and prints, per metric, the median, the
quartiles, the spread (q3 - q1) / median and max / min.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["oneshot-large", "verified-sweep", "live-churn"]


def build_dir():
    return os.path.join(ROOT, ".bench_build", "perfbench")


def go_env():
    b = build_dir()
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(b, "gocache"),
        "GOMODCACHE": os.path.join(b, "gomodcache"),
        "GOTMPDIR": os.path.join(b, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(b, "config"),
        "GOENV": "off",
        "GOFLAGS": "-buildvcs=false",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    return env


def build():
    """Builds the benchmark binary; returns its path or exits non-zero."""
    b = build_dir()
    for d in ("gocache", "gomodcache", "tmp", "config"):
        os.makedirs(os.path.join(b, d), exist_ok=True)
    binary = os.path.join(b, "perfbench")
    r = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def run_once(binary, workload, seed, seconds, trace, quiet=False):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL if quiet else sys.stderr, text=True)
    return r.returncode, r.stdout


def steady(binary, workloads, n, seconds, trace):
    for w in workloads:
        values = {}
        units = {}
        fails = []
        for seed in range(1, n + 1):
            code, out = run_once(binary, w, seed, seconds, trace, quiet=True)
            if code != 0:
                sys.exit("perfbench: %s seed %d exited %d" % (w, seed, code))
            res = json.loads(out.strip().splitlines()[-1])
            fails.append("%d/%d" % (res["failed"], res["attempted"]))
            if not res["correct"]:
                print("%s seed %d: incorrect output" % (w, seed))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("== %s: %d runs of %ds, failed/attempted %s" % (w, n, seconds, " ".join(fails)))
        print("%-24s %14s %14s %14s %8s %8s" % ("metric", "median", "q1", "q3", "spread", "max/min"))
        for name in sorted(values):
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            ratio = max(v) / min(v) if min(v) > 0 else float("nan")
            print("%-24s %14.4f %14.4f %14.4f %8.4f %8.4f %s" % (name, med, q1, q3, spread, ratio, units[name]))
        sys.stdout.flush()


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="runs per workload, seeds 1..N (at least 2)")
    a = p.parse_args()
    if a.steady:
        if a.steady < 2:
            p.error("--steady needs at least 2 runs")
        steady(build(), [a.workload] if a.workload else WORKLOADS, a.steady, a.seconds, a.trace)
        return
    if not a.workload:
        p.error("--workload is required")
    code, out = run_once(build(), a.workload, a.seed, a.seconds, a.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
