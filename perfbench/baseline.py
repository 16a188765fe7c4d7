"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root):

    python3 perfbench/baseline.py --workloads suite,descent,pairs,cli \
        --seeds 1-10 --trace 0 [--write perfbench/BASELINE.json [--as NAME]]

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, i.e.
the distance between the quartiles as a share of the median, next to
the metric's bound.  A spread above a third of the bound is marked
``above bound/3``.  With ``--write`` the summary, with every run's
value in seed order, is merged into the given JSON file under NAME
(default ``trace<0|1>``).  When NAME is not the default and the file
already holds the default set, each end-to-end median is also compared
with that set's median.  Runs are sequential, one process at a time.

The exit status is 1 when a set fails the acceptance rule for a
benchmark: an end-to-end spread above its bound, or a median worse than
the compared set's by more than the bound.  The spread of ``setup_s`` is
exempt, as in that rule; only its median is compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run's result object and its machine record."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    lines = done.stdout.strip().splitlines()
    machine = next(json.loads(line[8:]) for line in lines if line.startswith("machine "))
    return json.loads(lines[-1]), machine


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from metrics import BOUNDS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="suite,descent,pairs,cli")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None)
    parser.add_argument("--as", dest="name", default=None)
    args = parser.parse_args(argv)
    default_name = f"trace{args.trace}"
    name = args.name or default_name
    path = Path(args.write) if args.write else None
    stored = json.loads(path.read_text()) if path and path.exists() else {}
    first = stored.get(default_name, {}).get("workloads", {}) if name != default_name else {}

    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace) for s in seeds_from(args.seeds)]
        results = [result for result, _ in runs]
        machine = runs[0][1]
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": {},
        }
        ok &= summary[workload]["correct"]
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            stats = summarise(values)
            stats["unit"] = results[0]["metrics"][metric]["unit"]
            summary[workload]["metrics"][metric] = stats
            if metric not in BOUNDS:
                continue
            bound = BOUNDS[metric]
            notes = []
            if metric == "setup_s":
                notes.append("spread not gated")
            elif stats["spread"] > bound:
                notes.append("ABOVE BOUND")
                ok = False
            elif stats["spread"] > bound / 3:
                notes.append("above bound/3")
            if metric in first.get(workload, {}).get("metrics", {}):
                gap = stats["median"] / first[workload]["metrics"][metric]["median"] - 1.0
                stats["gap"] = gap
                notes.append(f"median {gap:+.4f} of {default_name}")
                if gap > bound:
                    notes.append("WORSE BY MORE THAN BOUND")
                    ok = False
            print(f"{workload:8s} {metric:12s} median {stats['median']:.6g} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f} "
                  f"bound {bound}  {'; '.join(notes)}")
        print(f"{workload:8s} correct {summary[workload]['correct']} "
              f"failed {summary[workload]['failed']} of {summary[workload]['attempted']}")
        sys.stdout.flush()
    if args.write:
        stored[name] = {"seeds": args.seeds, "seconds": args.seconds,
                        "machine": machine, "workloads": summary}
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
