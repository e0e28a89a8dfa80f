"""Steadiness tool: run workloads over several seeds and judge the spread.

    python3 perfbench/steady.py --workload search --runs 10
    python3 perfbench/steady.py --workload all --runs 10 --out set1.json
    python3 perfbench/steady.py --against set1.json --out set2.json ...

For each workload it runs ``perfbench/run.py`` once per seed (seeds
1 .. ``--runs``, one after the other, each for ``run_seconds`` of
``BENCHMARK.json``) and prints, per end-to-end metric, the median, the
quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and the
spread ``(q3 - q1) / median`` against the metric's bound in
``BENCHMARK.json``:

- ``steady``   spread below a third of the bound;
- ``loose``    spread within the bound;
- ``UNSTEADY`` spread above the bound.

With ``--against`` it also compares each median with the one in an
earlier ``--out`` file and flags a move in the worse direction by more
than the bound.  ``setup_s`` is judged only by that comparison.  The
share of failed operations must be identical in every run.
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


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], spec: dict) -> dict:
    out = {}
    for entry in spec["end_to_end"]:
        values = [r["metrics"][entry["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[entry["name"]] = {
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values,
        }
    return out


def report(workload, runs, spec, earlier=None) -> bool:
    ok = True
    summary = summarize(runs, spec)
    shares = {r["failed"] / r["attempted"] for r in runs}
    correct = all(r["correct"] for r in runs)
    print(f"\n{workload}: {len(runs)} runs, correct={correct}, "
          f"failed share {sorted(shares)}")
    ok &= correct and len(shares) == 1
    print(f"  {'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for entry in spec["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        s = summary[name]
        if name == "setup_s":
            verdict = "(set-up: compared only)"
        elif s["spread"] <= bound / 3:
            verdict = "steady"
        elif s["spread"] <= bound:
            verdict = "loose"
        else:
            verdict, ok = "UNSTEADY", False
        if earlier is not None:
            before = earlier[name]["median"]
            change = (s["median"] - before) / before
            worse = change > bound if entry["better"] == "lower" else -change > bound
            verdict += f"; median {change:+.1%} vs earlier set"
            if worse:
                verdict += " WORSE"
                ok = False
        print(f"  {name:<20}{s['median']:>12.4g}{s['q1']:>12.4g}{s['q3']:>12.4g}"
              f"{s['spread']:>9.3f}{bound:>7}  {verdict}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *names])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="write the runs as JSON")
    parser.add_argument("--against", type=Path, help="an earlier --out file")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")

    earlier = json.loads(args.against.read_text()) if args.against else {}
    collected = {}
    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_one(workload, seed, spec["run_seconds"], trace=0))
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
        collected[workload] = {"runs": runs, "summary": summarize(runs, spec)}
        previous = earlier.get(workload, {}).get("summary")
        ok &= report(workload, runs, spec, previous)
    if args.out:
        args.out.write_text(json.dumps(collected, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
