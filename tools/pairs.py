#!/usr/bin/env python3
"""Same-run A/B comparison of two source trees in alternating pairs.

Builds the named binary from each tree into its own CARGO_TARGET_DIR,
runs it N times per side in alternating pairs (pair 1 base first, pair 2
change first, ...), and prints per metric both medians with quartiles
(statistics.quantiles, n=4), the median ratio change/base, the range of
the per-pair ratios, the pairs the change won, and a verdict:

  better / worse   the median gap exceeds the base's interquartile spread
                   (q3 - q1 of the base runs), in the metric's direction
  unresolved       it does not
  identical        every run of both sides read the same value
  up / down        as better/worse, for a metric of unknown direction

The command after `--` names a binary and its arguments. `perfbench` is
built from the tree's perfbench/Cargo.toml (--locked); any other name is a
paper_bench binary (a `*_json` bench or a figure binary such as `table1`).
Metrics are read from the output: perfbench's JSON result line (whose
`correct` must be true), a `*_json` report's result rows (a row is named by
its string fields and its KEYS fields), or the markdown tables a figure
binary prints (a cell is named by its row's first cell and its column).
Each run's working directory is a scratch directory under --build-dir, so
a `*_json` bench's default output file lands there, not in the tree.

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python3 tools/pairs.py --base ../parent --change . --pairs 10 \\
        --taskset 1 -- perfbench --workload dominators --seed 1 --seconds 10 --trace 0
    python3 tools/pairs.py --base ../parent --change . --pairs 5 \\
        --env AXIOM_TABLE1_MAX=1024 --metric 'AXIOM|CHAMP' -- table1

Python standard library only; needs cargo and, with --taskset, taskset.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

SIDES = ("base", "change")
# Name patterns of metrics whose better direction is known.
HIGHER = re.compile(r"throughput|per_sec|per_s\b|speedup|/s\b")
LOWER = re.compile(r"_ns|_us|_ms|_s$|bytes|latency|\bp\d+")
# Markdown cell units: a time or a size is better lower.
LOWER_UNITS = {"ns", "us", "µs", "ms", "s", "B", "KB", "MB", "GB"}
NUMBER = re.compile(r"^[x×]?(-?\d[\d,]*\.?\d*(?:e-?\d+)?)\s*(\S*)$")
# Integer fields that tell a `*_json` report's result rows apart.
KEYS = {"n", "keys", "items", "shards", "clients", "submitters", "probes_per_request"}


def sh(cmd, cwd=None, env=None):
    out = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} (in {cwd}) failed:\n{out.stdout}\n{out.stderr}")
    return out.stdout


def commit(tree):
    """The tree's HEAD, marked dirty if it has changes; 'unknown' outside git."""
    try:
        head = subprocess.run(["git", "-C", tree, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", tree, "status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
        return head + ("+dirty" if dirty else "")
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


def build(tree, target, binary):
    """Builds `binary` from `tree` into `target`; returns its path."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if binary == "perfbench":
        cmd = ["cargo", "build", "--release", "--offline", "--locked",
               "--manifest-path", "perfbench/Cargo.toml"]
    else:
        cmd = ["cargo", "build", "--release", "--offline", "-p", "paper_bench", "--bin", binary]
    sh(cmd, cwd=tree, env=env)
    return os.path.join(target, "release", binary)


def number(cell):
    """(value, unit) of a table cell like `0.046 s`, `x3.27` or `1,024`."""
    m = NUMBER.match(cell.strip())
    if not m:
        return None
    return float(m.group(1).replace(",", "")), m.group(2)


def markdown_metrics(text):
    """{name: (value, unit)} of every numeric cell of the tables in `text`."""
    out, lines = {}, text.splitlines()
    for i in range(len(lines) - 1):
        if not (lines[i].startswith("|") and re.match(r"^\|[\s|:-]+\|$", lines[i + 1])):
            continue
        header = [c.strip() for c in lines[i].strip("|").split("|")]
        for row in lines[i + 2:]:
            if not row.startswith("|"):
                break
            cells = [c.strip() for c in row.strip("|").split("|")]
            for col, cell in zip(header[1:], cells[1:]):
                parsed = number(cell)
                if parsed:
                    out[f"{header[0]}={cells[0]} {col}"] = parsed
    return out


def report_metrics(report):
    """{name: (value, unit)} of every numeric field of a `*_json` report's rows."""
    out = {}
    for row in report["results"]:
        ident = [f"{k}={v}" for k, v in row.items()
                 if isinstance(v, str) or (k in KEYS and isinstance(v, int))]
        for k, v in row.items():
            if k not in KEYS and isinstance(v, (int, float)) and not isinstance(v, bool):
                out[f"{' '.join(ident)} {k}"] = (float(v), "")
    return out


def metrics(stdout):
    """The metrics of one run's output, and whether its answers checked out."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("{") and '"metrics"' in line:
            result = json.loads(line)
            return {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}, \
                result.get("correct", True)
    start = stdout.find("{\n")
    if start >= 0:
        try:
            return report_metrics(json.loads(stdout[start:])), True
        except (json.JSONDecodeError, KeyError):
            pass
    return markdown_metrics(stdout), True


def direction(name, unit, bounds):
    """'higher', 'lower' or None: which way the metric is better."""
    if name in bounds:
        return bounds[name]
    if unit in LOWER_UNITS:
        return "lower"
    if HIGHER.search(name) or unit == "1/s":
        return "higher"
    if LOWER.search(name):
        return "lower"
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def fmt(x):
    return f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def verdict(base, change, better):
    if len(set(base)) == 1 and base == change:
        return "identical"
    q1, q3 = quartiles(base)
    gap = statistics.median(change) - statistics.median(base)
    if abs(gap) <= q3 - q1:
        return "unresolved"
    if better is None:
        return "up" if gap > 0 else "down"
    return "better" if (gap > 0) == (better == "higher") else "worse"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="source tree of the base (the parent)")
    ap.add_argument("--change", required=True, help="source tree of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--build-dir", default="target/pairs",
                    help="holds each side's CARGO_TARGET_DIR and run directory")
    ap.add_argument("--taskset", metavar="CPUS", help="pin every run with taskset -c CPUS")
    ap.add_argument("--env", action="append", default=[], metavar="K=V",
                    help="set for every run (repeatable)")
    ap.add_argument("--metric", help="only metrics whose name matches this regex")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="-- BINARY [ARGS...]: perfbench or a paper_bench binary")
    args = ap.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command or args.pairs < 1:
        ap.error("give --pairs >= 1 and a command after --")
    binary = command[0]
    trees = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    build_dir = os.path.abspath(args.build_dir)

    bins, rundirs = {}, {}
    for side in SIDES:
        print(f"building {binary} from {trees[side]} ({commit(trees[side])})", flush=True)
        bins[side] = build(trees[side], os.path.join(build_dir, side), binary)
        rundirs[side] = os.path.join(build_dir, side, "run")
        os.makedirs(rundirs[side], exist_ok=True)
    bounds = {}
    bench = os.path.join(trees["base"], "BENCHMARK.json")
    if binary == "perfbench" and os.path.exists(bench):
        with open(bench) as f:
            bounds = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    env = dict(os.environ)
    env.update(kv.split("=", 1) for kv in args.env)
    pin = ["taskset", "-c", args.taskset] if args.taskset else []
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            out = subprocess.run(pin + [bins[side]] + command[1:], cwd=rundirs[side], env=env,
                                 capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"pair {i + 1} {side} failed ({out.returncode}):\n{out.stderr}")
            found, correct = metrics(out.stdout)
            if not correct:
                sys.exit(f"pair {i + 1} {side}: the run reports incorrect answers")
            if not found:
                sys.exit(f"pair {i + 1} {side}: no metric found in the output")
            runs[side].append(found)
            shown = ", ".join(f"{k}={v[0]:.6g}" for k, v in list(found.items())[:4])
            print(f"pair {i + 1} {side}: {shown}{' ...' if len(found) > 4 else ''}", flush=True)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    host = re.search(r"host: (\S+)", sh(["rustc", "-vV"])).group(1)
    popcnt = 'target_feature="popcnt"' in sh(["rustc", "--print", "cfg"])
    print()
    print(f"command: {' '.join(command)}; env: {' '.join(args.env) or '-'}; "
          f"taskset: {args.taskset or '-'}")
    print(f"base {commit(trees['base'])}, change {commit(trees['change'])}; {args.pairs} pairs, "
          f"odd pairs base first; cpus {cpus}; target {host}, popcnt {popcnt}")
    print()
    print("| metric | base | change | change/base | pair ratios | wins | verdict |")
    print("| ------ | ---- | ------ | ----------- | ----------- | ---- | ------- |")
    names = [n for n in runs["base"][0] if all(n in r for s in SIDES for r in runs[s])]
    for name in names:
        if args.metric and not re.search(args.metric, name):
            continue
        base = [r[name][0] for r in runs["base"]]
        change = [r[name][0] for r in runs["change"]]
        better = direction(name, runs["base"][0][name][1], bounds)
        ratios = [c / b for b, c in zip(base, change) if b]
        up = sum(c > b for b, c in zip(base, change))
        down = sum(c < b for b, c in zip(base, change))
        wins = {"higher": up, "lower": down, None: None}[better]
        mb, mc = statistics.median(base), statistics.median(change)
        (b1, b3), (c1, c3) = quartiles(base), quartiles(change)
        ratio = f"×{mc / mb:.3f}" if mb else "-"
        span = f"×{min(ratios):.3f}–×{max(ratios):.3f}" if ratios else "-"
        won = f"{wins} of {args.pairs}" if wins is not None else f"{up} up, {down} down"
        print(f"| {name} | {fmt(mb)} ({fmt(b1)}–{fmt(b3)}) | {fmt(mc)} ({fmt(c1)}–{fmt(c3)}) "
              f"| {ratio} | {span} | {won} | {verdict(base, change, better)} |")


if __name__ == "__main__":
    main()
