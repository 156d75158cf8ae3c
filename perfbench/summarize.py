"""Summarize benchmark result files: median, quartiles and spread per metric.

    python3 perfbench/summarize.py [--write perfbench/BENCH_seed.json] [RESULT.json ...]

Without file arguments every perfbench/out/*-trace*.json is read.  The spread
of a metric is (Q3 - Q1) / median over the runs of one workload, with the
quartiles of statistics.quantiles(values, n=4); it is set beside the metric's
bound from BENCHMARK.json.  --write stores the summary (untraced and traced
runs, their environments and failures) as a baseline file.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(files) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    groups: dict = {}
    for f in files:
        r = json.loads(Path(f).read_text())
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    out: dict = {}
    for (workload, trace), runs in sorted(groups.items()):
        runs.sort(key=lambda r: r["seed"])
        entry = {"runs": len(runs), "seeds": [r["seed"] for r in runs],
                 "ops_attempted": sum(r["attempted"] for r in runs),
                 "ops_failed": sum(r["failed"] for r in runs),
                 "environment": runs[-1]["environment"], "metrics": {}}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name] for r in runs]
            med = statistics.median(vals)
            m = {"median": med, "values": vals}
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                m.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            if not trace and bounds.get(name) is not None:
                m["bound"] = bounds[name]
            entry["metrics"][name] = m
        out.setdefault(workload, {})["traced" if trace else "untraced"] = entry
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("files", nargs="*")
    p.add_argument("--write", metavar="PATH")
    args = p.parse_args(argv)
    files = args.files or sorted(str(f) for f in (HERE / "out").glob("*-trace[01].json"))
    summary = summarize(files)
    for workload, kinds in summary.items():
        for kind, entry in kinds.items():
            print(f"{workload} ({kind}, {entry['runs']} runs, "
                  f"{entry['ops_failed']}/{entry['ops_attempted']} ops failed)")
            for name, m in entry["metrics"].items():
                spread = m.get("spread")
                tail = "" if spread is None else f"  spread {spread:.4f}"
                if "bound" in m:
                    tail += f"  bound {m['bound']}" + ("  OVER" if spread > m["bound"] / 3 else "")
                print(f"  {name:<40} {m['median']:>14.6g}{tail}")
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
