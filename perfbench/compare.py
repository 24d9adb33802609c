#!/usr/bin/env python3
"""Parent-vs-change comparison for the NetCut benchmark.

Run alternating pairs (each pair runs both checkouts on one seed; which
side goes first alternates), writing one record per run:

    python3 perfbench/compare.py pairs --parent-root P --change-root C \
        --out DIR [--workloads infer,serve,explore] [--pairs 10]

Every run lasts run_seconds of BENCHMARK.json; seeds count up from 1.

Judge the records:

    python3 perfbench/compare.py judge --parent DIR/parent --change DIR/change

The judge refuses records whose host stamps differ. A run that exited
without a result (a crash) counts as one failed operation for its seed, and
more failed operations on the change side mark its workload regressed. For
every end-to-end metric of the repository's BENCHMARK.json: a gain needs at
least 10 pairs, a win in 9 of 10, and medians further apart than the
parent's interquartile range; a loss is a median worse than the parent's by
more than the metric's bound; a metric whose parent spread exceeds its
bound is unresolved unless every change run beats every parent run. It
prints one row per workload: improved, unchanged, regressed or unresolved.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
# Stamp fields that identify the measuring host and configuration.
HOST_FIELDS = ("cpu", "nproc", "simd_isa", "backend", "threads")
MIN_PAIRS = 10
WIN_SHARE = 0.9
FIRST_SEED = 1


class StampMismatch(Exception):
    pass


def load_benchmark():
    return json.loads(BENCHMARK.read_text())


def load_records(directory):
    """Every untraced run record (run.py --out), crashed runs included."""
    records = []
    for p in sorted(pathlib.Path(directory).glob("*.json")):
        r = json.loads(p.read_text())
        if r["trace"] == 0:
            records.append(r)
    return records


def failed_ops(record):
    """Failed operations of one run; a run without a result failed whole."""
    return record["result"]["failed"] if record.get("result") else 1


def check_stamps(records):
    """All records must come from one host and configuration per workload."""
    seen = {}
    for r in records:
        if not r.get("stamp"):
            continue  # a crashed run: counted by failed_ops
        key = r["workload"]
        host = {f: r["stamp"].get(f) for f in HOST_FIELDS}
        if seen.setdefault(key, host) != host:
            raise StampMismatch("host stamps differ for workload %s: %s vs %s"
                                % (key, seen[key], host))


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def judge_metric(parent, change, better, bound):
    """Status of one metric from pair-aligned parent and change values."""
    lower = better == "lower"
    n = min(len(parent), len(change))
    mp, mc = statistics.median(parent), statistics.median(change)
    if n < MIN_PAIRS:
        return "unresolved", "only %d pairs" % n
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    moved_better = mc < mp if lower else mc > mp
    detail = "parent %.6g [%.6g, %.6g], change %.6g, wins %d/%d" % (mp, q1, q3, mc, wins, n)
    if wins >= WIN_SHARE * n and abs(mc - mp) > iqr and moved_better:
        return "improved", detail
    if bound is None:
        return "unchanged", detail
    spread = iqr / abs(mp) if mp else float("inf")
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if spread > bound and not all_better:
        return "unresolved", detail + ", parent spread %.3f > bound %.3f" % (spread, bound)
    worse = (mc - mp) / abs(mp) if lower else (mp - mc) / abs(mp)
    if worse > bound:
        return "regressed", detail + ", worse by %.3f > bound %.3f" % (worse, bound)
    return "unchanged", detail


def row_status(statuses):
    for s in ("regressed", "unresolved", "improved"):
        if s in statuses:
            return s
    return "unchanged"


def judge(parent_records, change_records, metrics):
    """Returns {workload: (status, [(metric, status, detail)])}."""
    check_stamps(parent_records + change_records)
    rows = {}
    workloads = sorted({r["workload"] for r in parent_records + change_records})
    for w in workloads:
        par = {r["seed"]: r for r in parent_records if r["workload"] == w}
        chg = {r["seed"]: r for r in change_records if r["workload"] == w}
        paired = sorted(set(par) & set(chg))
        details = []
        failed_p = sum(failed_ops(par[s]) for s in paired)
        failed_c = sum(failed_ops(chg[s]) for s in paired)
        if failed_c > failed_p:
            details.append(("failed", "regressed", "%d failed operations vs %d" % (failed_c, failed_p)))
        # Metrics compare the seeds where both sides produced a result.
        seeds = [s for s in paired if par[s].get("result") and chg[s].get("result")]
        names = [m for m in metrics if all(m in par[s]["result"]["metrics"] for s in seeds)]
        for m in names if seeds else []:
            pv = [par[s]["result"]["metrics"][m]["value"] for s in seeds]
            cv = [chg[s]["result"]["metrics"][m]["value"] for s in seeds]
            status, detail = judge_metric(pv, cv, metrics[m]["better"], metrics[m].get("bound"))
            details.append((m, status, detail))
        if not details:
            details.append(("pairs", "unresolved", "no pairs"))
        rows[w] = (row_status([d[1] for d in details]), details)
    return rows


def run_pairs(args):
    seconds = load_benchmark()["run_seconds"]
    out = pathlib.Path(args.out)
    roots = {"parent": pathlib.Path(args.parent_root).resolve(),
             "change": pathlib.Path(args.change_root).resolve()}
    for side in roots:
        (out / side).mkdir(parents=True, exist_ok=True)
    for w in args.workloads.split(","):
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                record = (out / side / ("%s-%d.json" % (w, seed))).resolve()
                cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0", "--out", str(record)]
                r = subprocess.run(cmd, cwd=roots[side], stdout=subprocess.DEVNULL)
                print("%s %s seed %d: exit %d" % (side, w, seed, r.returncode), flush=True)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs", help="run alternating parent/change pairs")
    p.add_argument("--parent-root", required=True)
    p.add_argument("--change-root", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default="infer,serve,explore")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    j = sub.add_parser("judge", help="judge recorded pairs")
    j.add_argument("--parent", required=True)
    j.add_argument("--change", required=True)
    args = ap.parse_args(argv)

    if args.cmd == "pairs":
        run_pairs(args)
        return 0
    try:
        metrics = {m["name"]: m for m in load_benchmark()["end_to_end"]}
        rows = judge(load_records(args.parent), load_records(args.change), metrics)
    except StampMismatch as e:
        print("compare: refused: %s" % e, file=sys.stderr)
        return 2
    for w, (status, details) in rows.items():
        print("%-8s %s" % (w, status))
        for m, s, d in details:
            print("    %-32s %-10s %s" % (m, s, d))
    return 1 if any(s == "regressed" for s, _ in rows.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
