"""Medians and quartiles of benchmark runs, and the tracing overhead.

    python3 bench/summarize.py bench/out                 # one set of runs
    python3 bench/summarize.py old/bench/out new/bench/out  # two commits

Reads the per-run summaries run.py writes (<workload>-seed<n>-trace<t>.json).
For each workload and metric it prints the median, the quartiles, the
spread (Q3 - Q1 over the median) and the run count; with two directories,
also the second median over the first. Where a directory holds traced and
untraced runs of a workload, it prints the tracing overhead: the traced
minus the untraced median time of set-up plus experiment, and of one
serving round.
"""

import json
import statistics
import sys
from pathlib import Path


def load(out_dir: Path) -> dict:
    """(workload, trace) -> list of run summaries."""
    runs: dict = {}
    for path in sorted(out_dir.glob("*-seed*-trace*.json")):
        run = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault((run["workload"], run["trace"]), []).append(run)
    return runs


def stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def metric_table(sets: list[dict], key: tuple) -> list[str]:
    names = list(sets[0][key][0]["metrics"])
    lines = []
    for name in names:
        row = f"  {name:34s}"
        medians = []
        for runs in sets:
            vals = [r["metrics"][name]["value"] for r in runs.get(key, []) if name in r["metrics"]]
            if not vals:
                row += f" {'-':>44s}"
                continue
            q1, med, q3 = stats(vals)
            medians.append(med)
            row += f" {med:12.5g} [{q1:10.5g}, {q3:10.5g}] {(q3 - q1) / med:6.3f} n={len(vals)}"
        if len(medians) == 2:
            row += f"  new/old {medians[1] / medians[0]:.3f}"
        lines.append(row + f"  {sets[0][key][0]['metrics'][name]['unit']}")
    return lines


def overhead(runs: dict, workload: str) -> str | None:
    plain, traced = runs.get((workload, 0)), runs.get((workload, 1))
    if not plain or not traced:
        return None

    def med(rs, key):
        return statistics.median(r["details"][key] for r in rs)

    fixed = [med(rs, "fixed_work_s") for rs in (plain, traced)]
    rnd = [statistics.median(r["details"]["serve_s"] / r["details"]["rounds"] for r in rs)
           for rs in (plain, traced)]
    return (f"  tracing overhead: set-up + experiment {fixed[1] - fixed[0]:+.2f} s on {fixed[0]:.2f} s "
            f"({(fixed[1] - fixed[0]) / fixed[0]:+.1%}); serving round {rnd[1] - rnd[0]:+.2f} s "
            f"on {rnd[0]:.2f} s ({(rnd[1] - rnd[0]) / rnd[0]:+.1%})")


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(a)) for a in argv]
    for key in sorted(sets[0]):
        workload, trace = key
        print(f"{workload} (trace {trace})  median [Q1, Q3] spread")
        print("\n".join(metric_table(sets, key)))
        if trace == 0:
            line = overhead(sets[-1], workload)
            if line:
                print(line)
        envs = {json.dumps(r["env"], sort_keys=True) for r in sets[0][key]}
        for env in envs:
            print(f"  env {env}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
