#!/usr/bin/env python3
"""Host-measured NetCut benchmark: one command for every workload.

    python3 perfbench/run.py --workload infer|serve|explore --seed N \
        --seconds S --trace 0|1 [--out RECORD.json]

Run from the root of a checkout. The first call builds the benchmark (a
CMake project of its own in perfbench/, compiling the checkout's src/)
into .bench_build/ and fills the explore workload's pretrained-weight
cache there; neither counts toward any metric. Later calls rebuild
incrementally.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones: every workload prints every metric
BENCHMARK.json lists for that mode, and a result line that does not is an
error. The exit code is non-zero when an output check failed or the
benchmark could not run. --out also writes a
record with the host stamp for perfbench/compare.py.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
BUILD = ROOT / ".bench_build"
CMAKE_BUILD = BUILD / "perfbench"
MAIN = CMAKE_BUILD / "perfbench_main"
SELFTEST = CMAKE_BUILD / "perfbench_selftest"

WORKLOADS = ("infer", "serve", "explore")
# Zoo indices (zoo::all_nets order), longest pretraining first so the
# parallel fill ends soonest. ResNet50 gets three threads, the rest one.
FILL_ORDER = (5, 4, 6, 3, 2, 1, 0)
FILL_PROCESSES = 3


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def child_env(threads=None):
    """The environment of every benchmark process: the program's NETCUT_*
    switches cleared so each run measures the default configuration, except
    the kernel backend, which the host stamp records."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NETCUT_") or k == "NETCUT_BACKEND"}
    if threads is not None:
        env["NETCUT_THREADS"] = str(threads)
    return env


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no NetCut sources at %s/src: run from the root of a full checkout" % ROOT)
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "perfbench-build.log"
    with open(log, "w") as out:
        steps = []
        if not (CMAKE_BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(CMAKE_BUILD), "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                die("build failed (%s):\n%s" % (log, "\n".join(tail)))


def fill_weights():
    """Pretrains every zoo trunk the explore workload needs, once per
    checkout, in parallel processes. Untimed."""
    missing = subprocess.run([str(MAIN), "--missing-weights", "--work-dir", str(BUILD)],
                             capture_output=True, text=True, env=child_env(), cwd=ROOT)
    if missing.returncode != 0:
        die("weight-cache check failed: " + missing.stderr.strip())
    todo = [i for i in FILL_ORDER if str(i) in missing.stdout.split()]
    if not todo:
        return
    print("perfbench: filling the weight cache for %d trunk(s); untimed" % len(todo),
          flush=True)

    def fill(i):
        return subprocess.run(
            [str(MAIN), "--fill-weights", str(i), "--work-dir", str(BUILD)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=child_env(3 if i == 5 else 1), cwd=ROOT)

    with concurrent.futures.ThreadPoolExecutor(FILL_PROCESSES) as pool:
        for i, r in zip(todo, pool.map(fill, todo)):
            if r.returncode != 0:
                die("pretraining zoo net %d failed: %s" % (i, r.stderr.strip()[-500:]))


def manifest_problems(result, trace):
    """How the result line's metrics differ from the ones BENCHMARK.json
    lists for this mode: names, units, and values that are not numbers."""
    if not BENCHMARK.is_file():
        return []
    listed = json.loads(BENCHMARK.read_text())["per_layer" if trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = result.get("metrics", {})
    problems = ["missing " + n for n in want if n not in got]
    problems += ["not in BENCHMARK.json: " + n for n in got if n not in want]
    for n, m in got.items():
        if n in want and m.get("unit") != want[n]:
            problems.append("%s in %s, not %s" % (n, m.get("unit"), want[n]))
        if not isinstance(m.get("value"), (int, float)):
            problems.append("%s is %r" % (n, m.get("value")))
    return problems


def source_identity():
    """git sha when the checkout is a repository, else a digest of src/."""
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, cwd=ROOT)
            if git.returncode == 0:
                return "git:" + git.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--out", help="also write the stamped record to this file")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="test hook: perturb a reference output; the run must fail")
    args = ap.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        die("--seed must be >= 0 and --seconds in [1, 3600]")

    build()
    fill_weights()
    cmd = [str(MAIN), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(BUILD), "--source", source_identity()]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    code = proc.returncode
    if result is not None:
        problems = manifest_problems(result, args.trace)
        if problems:
            print("perfbench: the result line does not match BENCHMARK.json: " + "; ".join(problems),
                  file=sys.stderr)
            code = code or 1
    if args.out:
        stamps = [l[len("perfbench-stamp "):] for l in lines if l.startswith("perfbench-stamp ")]
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": int(args.trace),
            "stamp": json.loads(stamps[0]) if stamps else None,
            "result": result,
            "exit_code": code,
        }
        pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
