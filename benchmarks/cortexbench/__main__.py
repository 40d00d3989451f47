"""cortexbench: four workloads, end-to-end and per-layer metrics, one command.

    python -m benchmarks.cortexbench --seed 1            # every workload, both passes
    python -m benchmarks.cortexbench --smoke             # the same at 1/20 size, for CI
    python -m benchmarks.cortexbench --repeat 10         # run-to-run spread against the bounds
    python -m benchmarks.cortexbench --workload para_sync --seed 3 --seconds 12 --trace 0

Every metric is printed as ``workload/name unit value``; the last line of
stdout is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``). The exit code is non-zero when any reply was wrong too often
(precision under 0.99), any request went unserved, or a reply named a fact
that was never asked for. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from benchmarks.cortexbench import spec

#: Algorithm 1's precision target; a cache serving below it is broken.
PRECISION_FLOOR = 0.99
#: Seconds one child may take before it is killed, with all it started.
CHILD_TIMEOUT = 170.0


def _units() -> dict[str, str]:
    return {name: unit for name, unit, _ in spec.END_TO_END + spec.PER_LAYER}


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    argv = [
        sys.executable, "-m", "benchmarks.cortexbench.child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--started", repr(time.time()),
    ]
    if smoke:
        argv.append("--smoke")
    # Its own session, so that a kill reaches the server and workers too.
    child = subprocess.Popen(
        argv, cwd=spec.ROOT, env=spec.child_env(), stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise SystemExit(f"{workload}: no result within {CHILD_TIMEOUT:.0f} s")
    if child.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code {child.returncode}")
    result = json.loads(out.splitlines()[-1])
    if result["precision"] < PRECISION_FLOOR:
        result["problems"].append(
            f"precision {result['precision']:.4f} is under {PRECISION_FLOOR}"
        )
    result["correct"] = not result["problems"]
    return result


def report(result: dict, units: dict[str, str]) -> None:
    for name, value in result["metrics"].items():
        print(f"{result['workload']}/{name} {units[name]} {value:.6g}")
    for problem in result["problems"][:10]:
        print(f"{result['workload']}: PROBLEM: {problem}", file=sys.stderr)
    sys.stdout.flush()


def last_line(results: list[dict], qualify: bool, units: dict[str, str]) -> str:
    metrics = {}
    for result in results:
        for name, value in result["metrics"].items():
            key = f"{result['workload']}/{name}" if qualify else name
            metrics[key] = {"value": value, "unit": units[name]}
    return json.dumps(
        {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
    )


def spread_table(runs: list[list[dict]]) -> bool:
    """Per metric and workload: median, quartiles and two spreads over the
    repeats, each against the metric's bound.

    ``ok`` means the bound is at least three interquartile ranges and twice
    the full range, the margin a regression gate wants; ``loose`` means the
    interquartile range is within the bound, which is what the bound has to
    hold for medians of ten runs to be comparable at all; ``WIDE`` means not
    even that, and fails the command. ``setup_s`` is held to its bound by
    medians only.
    """
    with open(spec.ROOT / "BENCHMARK.json") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    within = True
    print(f"{'metric':34} {'median':>10} {'q1':>10} {'q3':>10} {'iqr/med':>8} "
          f"{'range/med':>9} {'bound':>6}  verdict")
    for workload in [r["workload"] for r in runs[0]]:
        for name, _, _ in spec.END_TO_END:
            values = [
                r["metrics"][name] for run in runs for r in run if r["workload"] == workload
            ]
            q1, median, q3 = statistics.quantiles(values, n=4)
            iqr = (q3 - q1) / median
            full = (max(values) - min(values)) / median
            if name == "setup_s" or (iqr <= bounds[name] / 3 and full <= bounds[name] / 2):
                verdict = "ok"
            elif iqr <= bounds[name]:
                verdict = "loose"
            else:
                verdict, within = "WIDE", False
            print(f"{workload + '/' + name:34} {median:10.5g} {q1:10.5g} {q3:10.5g} "
                  f"{iqr:8.4f} {full:9.4f} {bounds[name]:6.3f}  {verdict}")
    return within


def save(body: dict, filename: str, args) -> None:
    """The one JSON result: what ran, where, and everything it measured."""
    spec.OUT_DIR.mkdir(exist_ok=True)
    with open(spec.OUT_DIR / filename, "w") as handle:
        json.dump(
            {"environment": {"pinned": spec.PINNED_ENV, "host": spec.host_fingerprint()},
             "seconds": args.seconds, "smoke": args.smoke, **body},
            handle, indent=1,
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS],
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase the counts are scaled for "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass, 1: traced per-layer pass (default: both)")
    parser.add_argument("--smoke", action="store_true", help="1/20 of every count")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run the end-to-end pass N times on seeds SEED..SEED+N-1 "
                             "and print each metric's spread against its bound")
    args = parser.parse_args()
    if not (spec.SRC / "repro" / "__init__.py").is_file():
        print(f"cortexbench: no program to measure: {spec.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(spec.ROOT / "BENCHMARK.json") as handle:
            args.seconds = float(json.load(handle)["run_seconds"])
    workloads = [args.workload] if args.workload else [w.name for w in spec.WORKLOADS]
    units = _units()

    if args.repeat:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            runs.append([run_child(w, seed, args.seconds, 0, args.smoke) for w in workloads])
            for result in runs[-1]:
                report(result, units)
        save({"repeats": runs}, f"repeat-seed{args.seed}-n{args.repeat}.json", args)
        ok = spread_table(runs)
        return 0 if ok and all(r["correct"] for run in runs for r in run) else 1

    passes = [args.trace] if args.trace is not None else [0, 1]
    results = [
        run_child(w, args.seed, args.seconds, trace, args.smoke)
        for w in workloads for trace in passes
    ]
    for result in results:
        report(result, units)
    save({"results": results}, f"result-seed{args.seed}.json", args)
    print(last_line(results, qualify=args.workload is None, units=units))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
