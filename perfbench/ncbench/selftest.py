"""Self-test of the benchmark at tiny sizes.

Checks that an untraced and a traced run print exactly the metrics that
BENCHMARK.json names, each with its unit, that every op passes on this
checkout, and that an injected wrong seed value shows up as a failed op.
Last, the generated identity cases of the seed 20260808 at 200 cases per
family must give exactly the worst deviations that criterion 9 of this
checkout gives (about a minute).
"""

from __future__ import annotations

import json
import subprocess
import sys

from . import identities as ident
from .runner import END_TO_END, HERE, PER_LAYER, ROOT, import_library

INJECT_OP = "weyl.flat"


def _run(*extra) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny", "--seed", "7",
         "--seconds", "0", *extra],
        capture_output=True, text=True, timeout=170, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise AssertionError(f"tiny run {extra} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(section: str, fallback: dict) -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return fallback
    return {m["name"]: m["unit"] for m in json.loads(path.read_text())[section]}


def main() -> int:
    problems = []
    for trace, section, names in ((0, "end_to_end", END_TO_END), (1, "per_layer", PER_LAYER)):
        out = _run("--trace", str(trace))
        want = _units(section, names)
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        if got != want:
            problems.append(f"trace {trace}: metrics {got} differ from {section} {want}")
        if not all(isinstance(v["value"], (int, float)) for v in out["metrics"].values()):
            problems.append(f"trace {trace}: a metric value is not a number")
        if out["failed"] or not out["correct"] or out["attempted"] < 1:
            problems.append(f"trace {trace}: {out['failed']} of {out['attempted']} ops failed")
        print(f"trace {trace}: {len(got)} metrics with units, "
              f"{out['failed']}/{out['attempted']} ops failed")
    out = _run("--trace", "0", "--inject-wrong-reference", INJECT_OP)
    if out["failed"] != 1 or out["correct"]:
        problems.append(f"injected wrong value for {INJECT_OP}: failed = {out['failed']}, "
                        f"correct = {out['correct']} (want 1 and false)")
    print(f"injected wrong seed value: {out['failed']}/{out['attempted']} ops failed")
    nct = import_library()
    from nctorus import acceptance

    spec = ident.IdentitySpec(cases=200)
    cases = ident.generate(nct, ident.CRITERION_9_SEED, spec, whole=True)
    worst = ident.worst_deviations(nct, cases)
    c9 = acceptance.criterion_9(acceptance.AcceptanceContext())
    want = {k: v["worst"] for k, v in c9.details.items()}
    if worst != want:
        problems.append(f"identity suite at seed {ident.CRITERION_9_SEED}: {worst} != "
                        f"criterion 9 {want}")
    print(f"identity suite, seed {ident.CRITERION_9_SEED}, 200 cases: "
          + ("equals criterion 9" if worst == want else "differs from criterion 9"))
    for msg in problems:
        print("SELF-TEST FAILED:", msg, file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0
