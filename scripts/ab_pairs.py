#!/usr/bin/env python3
"""A/B the repository benchmark between two revisions, in alternating pairs.

Exports the parent and the candidate revision into two directories
under a scratch directory (``git archive``, so the repository's own
checkout and metadata stay untouched), then runs

    python3 e2ebench/run.py --workload W --seed S --seconds N --trace T

from each export, one pair per seed, alternating which side runs
first.  Each side builds into its own CARGO_TARGET_DIR.  For every
metric BENCHMARK.json declares, it prints the parent and candidate
medians, the median of the per-pair relative changes (positive is
worse), the candidate's wins over the pairs, the parent's
interquartile range relative to its median (its spread), a verdict,
and whether the candidate's median is worse than the parent's by more
than the metric's bound.  The verdict is ``unresolved`` when the
median change is smaller than the spread, else ``better`` or
``worse``.  Runs that report incorrect results or failed operations
are flagged.

    scripts/ab_pairs.py --parent HEAD~1 --candidate HEAD \\
        --workloads fig_grid,serve_inline --pairs 10 --seconds 40

``--aa`` runs the parent against itself (one export, one build): its
table shows the spread each metric has with no change at all, the
floor below which an A/B median change cannot be told from noise.

``--candidate WORKTREE`` (the default) measures the checkout's
tracked files as they are, committed or not (``git stash create``).
Raw results are written to ``SCRATCH/ab_pairs.json``.  The script
makes no network access; it exits 1 when a bound check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def resolve(rev):
    """@return a commit id for @p rev; WORKTREE snapshots the checkout."""
    if rev == "WORKTREE":
        # A commit object of the tracked files (staged or not), made
        # without touching the index, the checkout or any ref.
        return git("stash", "create") or git("rev-parse", "HEAD")
    return git("rev-parse", "--verify", rev + "^{commit}")


def export(commit, dest):
    """Unpack @p commit's files into @p dest (once per file tree)."""
    # Keyed by tree, not commit: two snapshots of unchanged files keep
    # the export, its mtimes and so the incremental build.
    tree = git("rev-parse", commit + "^{tree}")
    stamp = os.path.join(dest, ".ab_tree")
    if os.path.isfile(stamp) and open(stamp).read() == tree:
        return
    if os.path.isdir(dest):
        subprocess.run(["rm", "-rf", dest], check=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit("ab_pairs: git archive %s failed" % commit)
    with open(stamp, "w") as f:
        f.write(tree)


def run_side(tree, build, workload, seed, seconds, trace):
    """Run one benchmark invocation; @return its parsed result line."""
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    cmd = ["python3", "e2ebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        sys.exit("ab_pairs: %s failed in %s (exit %d)"
                 % (" ".join(cmd), tree, done.returncode))
    return {"result": json.loads(lines[-1]), "report": done.stdout}


def quartiles(values):
    """@return (q1, median, q3) by linear interpolation."""
    v = sorted(values)

    def at(q):
        pos = q * (len(v) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def summarize(workload, pairs, metrics):
    """Print one table for @p workload; @return whether every bound held."""
    ok = True
    print("\n## %s: %d pairs" % (workload, len(pairs)))
    for side in ("parent", "candidate"):
        bad = [p["seed"] for p in pairs
               if not p[side]["result"].get("correct", False)
               or p[side]["result"].get("failed", 0) != 0]
        if bad:
            ok = False
            print("%s: incorrect or failed runs at seeds %s" % (side, bad))
    print("%-14s %12s %12s %9s %6s %10s %10s %7s  %s"
          % ("metric", "parent", "candidate", "median_d", "wins",
             "parent_iqr", "verdict", "bound", "check"))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        par, cand, deltas, wins = [], [], [], 0
        for p in pairs:
            a = p["parent"]["result"]["metrics"].get(name)
            b = p["candidate"]["result"]["metrics"].get(name)
            if a is None or b is None:
                continue
            a, b = a["value"], b["value"]
            par.append(a)
            cand.append(b)
            # Relative change, signed so that positive is worse.
            d = (b - a) / a if a else 0.0
            deltas.append(d if lower else -d)
            wins += (b < a) if lower else (b > a)
        if not par:
            print("%-14s (not reported)" % name)
            continue
        q1, pmed, q3 = quartiles(par)
        cmed = statistics.median(cand)
        worse = (cmed - pmed) / pmed if pmed else 0.0
        worse = worse if lower else -worse
        spread = (q3 - q1) / pmed if pmed else 0.0
        median_d = statistics.median(deltas)
        verdict = ("unresolved" if abs(median_d) < spread
                   else "worse" if median_d > 0 else "better")
        bound = m.get("bound")
        check = "-"
        if bound is not None:
            check = "ok" if worse <= bound else "WORSE"
            ok = ok and worse <= bound
        print("%-14s %12.4g %12.4g %+8.3f %3d/%-2d %10.3f %10s %7s  %s"
              % (name, pmed, cmed, median_d, wins, len(par), spread,
                 verdict, "-" if bound is None else "%.2f" % bound,
                 check))
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--candidate", default="WORKTREE")
    parser.add_argument("--workloads", default=None,
                        help="comma list (default: BENCHMARK.json's)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scratch", default="/tmp/ab_pairs")
    parser.add_argument("--aa", action="store_true",
                        help="run the parent against itself")
    args = parser.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench.get("run_seconds", 40)
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    sides = {}
    for side, rev in (("parent", args.parent),
                      ("candidate", args.candidate)):
        if args.aa and side == "candidate":
            sides[side] = sides["parent"]
            print("# candidate = the parent (A/A)", flush=True)
            continue
        commit = resolve(rev)
        tree = os.path.join(args.scratch, side)
        export(commit, tree)
        sides[side] = (tree, os.path.join(args.scratch, side + "-build"))
        print("# %s = %s (%s)" % (side, commit[:12], rev), flush=True)

    results = {}
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ("parent", "candidate") if i % 2 == 0 else \
                ("candidate", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                tree, build = sides[side]
                pair[side] = run_side(tree, build, workload, seed,
                                      seconds, args.trace)
            pairs.append(pair)
            print("# %s pair %d/%d (seed %d) done"
                  % (workload, i + 1, args.pairs, seed), flush=True)
        results[workload] = pairs

    os.makedirs(args.scratch, exist_ok=True)
    with open(os.path.join(args.scratch, "ab_pairs.json"), "w") as f:
        json.dump({w: [{k: (v["result"] if isinstance(v, dict) else v)
                        for k, v in p.items()} for p in pairs]
                   for w, pairs in results.items()}, f, indent=1)
    ok = all([summarize(w, results[w], metrics) for w in workloads])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
