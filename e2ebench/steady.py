"""Do two interleaved sets of runs of the same code agree within the bounds?

    python3 e2ebench/steady.py --runs 10 [--workloads replay_paper,...]

Reads ``BENCHMARK.json`` at the repository root, then for each workload
runs ``run.py`` ``--runs`` times for set A and as many for set B, A and
B alternating (ABBA order) with a fresh seed per run.  For every
end-to-end metric it prints each set's median and quartiles, the spread
(quartile distance over the median) and whether

* each set's spread is within the metric's bound (``setup_s`` exempt),
* set B's median is no worse than set A's by more than the bound,
* both sets failed the same share of operations.

The spread is also flagged against a third of the bound, the margin
the benchmark is tuned to.  Exits 0 when everything agrees.
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


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, quartiles, and the quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=7000)
    args = parser.parse_args(argv)

    agree = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for index in range(args.runs):
            order = "AB" if index % 2 == 0 else "BA"
            for label in order:
                seed = args.first_seed + 2 * index + (label == "B")
                result = run_once(workload, seed, config["run_seconds"])
                sets[label].append(result)
                print(f"  {workload} set {label} seed {seed}: " + " ".join(
                    f"{name}={m['value']:.4f}" for name, m in result["metrics"].items()),
                    flush=True)
        shares = {label: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for label, runs in sets.items()}
        if shares["A"] != shares["B"]:
            agree = False
        print(f"{workload}: failed share A={shares['A']:.6f} B={shares['B']:.6f}")
        for entry in config["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            stats = {label: spread([r["metrics"][name]["value"] for r in runs])
                     for label, runs in sets.items()}
            a, b = stats["A"][0], stats["B"][0]
            worse = (b - a) / a if entry["better"] == "lower" else (a - b) / a
            spread_ok = name == "setup_s" or all(s[3] <= bound for s in stats.values())
            ok = spread_ok and worse <= bound
            agree &= ok
            tight = all(s[3] < bound / 3 for s in stats.values())
            print(f"  {name:16s} bound={bound:<5g} "
                  + " ".join(f"{label}: median={s[0]:.4f} q1={s[1]:.4f} q3={s[2]:.4f} "
                             f"spread={s[3]:.3f}" for label, s in stats.items())
                  + f" B-vs-A worse by {worse:+.3f} -> {'agree' if ok else 'DISAGREE'}"
                  + ("" if tight else " (spread above bound/3)"))
    print("AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
