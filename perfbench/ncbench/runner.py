"""One benchmark run: set-up, timed passes over the ops, checks and metrics."""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from . import env, identities as ident, tracing
from .workloads import FAMILIES, WORKLOADS, CheckFailed, ops, setup

HERE = Path(__file__).resolve().parent.parent      # perfbench/
ROOT = HERE.parent                                 # checkout root
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
SEED_MATCH_RTOL = 1e-9
SETUP_PROBES = 2
TRACE_PAIRS = 2   # least number of untraced/traced pass pairs of a traced run

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "weyl_s": "s", "connes_s": "s", "pencil_s": "s",
    "heat_s": "s", "identities_s": "s", "peak_rss_mb": "MB",
}
TIMED_SPANS = (
    "algebra.build", "algebra.mul", "gns.assemble", "gns.solve", "symbols.section",
    "symbols.calculus", "heat.b0", "heat.b2", "heat.parametrix", "heat.fit",
    "spectral.svd", "spectral.fit", "spectral.closed_form", "spectral.lattice",
)
COUNTS = (
    "algebra.mul.calls", "algebra.mul.pairs", "symbols.section.calls",
    "symbols.origin_regularization.count", "heat.b2.words", "heat.window",
    "spectral.mu.count", "trace.spans",
)
PER_LAYER = {
    **{f"{name}_s": "s" for name in TIMED_SPANS},
    **{f"{layer}.{kind}_s": "s" for layer in tracing.LAYERS for kind in ("busy", "self")},
    **{name: "count" for name in COUNTS},
    "gns.section.density": "ratio", "gns.section.mbytes": "MB", "trace.overhead_s": "s",
}


def import_library():
    """Import nctorus from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "nctorus" / "__init__.py").is_file():
        raise SystemExit(f"nctorus sources not found under {src}")
    sys.path.insert(0, str(src))
    import nctorus
    from nctorus import algebra, gns, heat, spectral, symbols  # noqa: F401

    if Path(nctorus.__file__).resolve().parent != (src / "nctorus").resolve():
        raise SystemExit(f"imported nctorus from {nctorus.__file__}, not from {src}")
    return nctorus


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference(inject: str | None) -> dict:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if inject:
        for wl in refs.values():
            if isinstance(wl, dict) and inject in wl:
                wl[inject] = {k: v * (1.0 + 1e-6) + 1e-6 for k, v in wl[inject].items()}
    return refs


class Run:
    def __init__(self, workload: str, seed: int, refs: dict, nct):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.refs = refs.get(workload, {})
        self.nct = nct
        self.times: dict = {}      # op name -> [[seconds per piece] per execution]
        self.values: dict = {}     # op name -> last values
        self.failures: list = []   # (op name, message)
        self.attempted = 0
        self.last_values = None    # values of the last execution, None if it failed

    def prepare(self):
        self.st = setup(self.nct, self.spec)
        self.cases = ident.generate(self.nct, self.seed, self.spec.identities)
        self.ops = ops(self.nct, self.spec, self.st, self.cases)

    def seed_mismatches(self, op, values) -> list:
        out = []
        ref = self.refs.get(op.name)
        for key, scale in op.exact.items():
            if ref is None or key not in ref:
                out.append(f"no seed value for {key}")
                continue
            if abs(values[key] - ref[key]) > SEED_MATCH_RTOL * max(abs(ref[key]), scale):
                out.append(f"{key} = {values[key]!r}, seed {ref[key]!r}")
        return out

    def execute(self, op) -> float:
        self.attempted += 1
        marks = [time.perf_counter()]
        try:
            values = op.run(lambda: marks.append(time.perf_counter()))
            error = None
        except CheckFailed as exc:
            values, error = None, f"check: {exc}"
        except Exception:  # an op that raises is counted as failed; the run goes on
            values, error = None, traceback.format_exc(limit=4)
        finally:
            marks.append(time.perf_counter())
        self.last_values = values
        if values is not None:
            self.values[op.name] = values
            bad = self.seed_mismatches(op, values)
            if bad:
                error = "seed: " + "; ".join(bad)
        if error:
            self.failures.append((op.name, error))
        self.times.setdefault(op.name, []).append([b - a for a, b in zip(marks, marks[1:])])
        return marks[-1] - marks[0]

    def one_pass(self, reps: bool = True, tracer=None) -> dict:
        """Every op once (or op.reps times); returns op name -> its fastest time.

        The cyclic collector runs before the pass, not inside it, where its
        pauses would depend on the heap left by earlier ops.
        """
        best = {}
        gc.collect()
        gc.disable()
        try:
            for op in self.ops:
                times = []
                for _ in range(op.reps if reps else 1):
                    if tracer is not None:
                        tracer.op_id = op.name
                        rec = tracer.open("op." + op.family)
                        times.append(self.execute(op))
                        tracer.close(rec)
                        regs = (self.last_values or {}).get("origin_regularization", 0)
                        tracer.counts["symbols.origin_regularization.count"] += regs
                    else:
                        times.append(self.execute(op))
                best[op.name] = min(times)
        finally:
            gc.enable()
        return best

    def op_time(self, name) -> float:
        """Sum over the op's pieces of each piece's fastest execution.

        On a shared host the CPU runs up to 1.8x slower for seconds at a time,
        with short stretches at full speed in between.  The minimum of a piece
        over many executions finds those stretches; the shorter the piece and
        the more executions, the steadier it is from run to run.
        """
        execs = self.times[name]
        return sum(min(e[i] for e in execs if len(e) > i)
                   for i in range(max(map(len, execs))))

    def end_to_end(self, setup_s: float) -> dict:
        fam = {f: 0.0 for f in FAMILIES}
        for op in self.ops:
            fam[op.family] += self.op_time(op.name)
        out = {"setup_s": setup_s, "wall_s": sum(fam.values())}
        out.update({f"{f}_s": v for f, v in fam.items()})
        out["peak_rss_mb"] = peak_rss_mb()
        return out


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def fastest(passes: list) -> float:
    """Sum over the ops of each op's fastest time in the given passes."""
    return sum(min(p[name] for p in passes) for name in passes[0])


def per_layer(tracers: list, overhead: float) -> dict:
    """Per-layer metrics: each time the fastest over the traced passes, the
    counts (the same in every pass) of the last one."""
    all_times = [t.layer_times() for t in tracers]
    times = {k: min(t.get(k, 0.0) for t in all_times) for k in all_times[-1]}
    tracer = tracers[-1]
    c = tracer.counts
    out = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            out[name] = times.get(name, 0.0)
        elif unit == "count":
            out[name] = int(c.get(name, 0))
    out["trace.spans"] = len(tracer.spans)
    out["gns.section.density"] = c["gns.section.nonzeros"] / max(c["gns.section.entries"], 1)
    out["gns.section.mbytes"] = c["gns.section.bytes"] / 1e6
    out["trace.overhead_s"] = overhead
    return out


def layer_table(metrics: dict) -> str:
    rows = [f"{'layer':<10}{'busy_s':>12}{'self_s':>12}"]
    for layer in tracing.LAYERS:
        rows.append(f"{layer:<10}{metrics[layer + '.busy_s']:>12.4f}"
                    f"{metrics[layer + '.self_s']:>12.4f}")
    rows.append("")
    width = max(len(k) for k in metrics)
    for k in sorted(metrics):
        if k.split(".")[0] in tracing.LAYERS and not k.endswith((".busy_s", ".self_s")):
            rows.append(f"{k:<{width}}  {metrics[k]:.6g}")
    rows.append(f"{'trace.overhead_s':<{width}}  {metrics['trace.overhead_s']:.6g}")
    return "\n".join(rows)


def run(workload: str, seed: int, seconds: float, trace: bool, t_start: float,
        inject: str | None = None) -> dict:
    """Run one workload; returns the result object the benchmark prints."""
    nct = import_library()
    r = Run(workload, seed, load_reference(inject), nct)
    r.prepare()
    setups = [time.perf_counter() - t_start]
    setups += [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]

    passes = []
    if not trace:
        # whole passes while the next one is expected to end within the budget
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 + sum(passes[-1].values()) <= seconds:
            passes.append(r.one_pass())
    result = {"workload": workload, "seed": seed, "trace": int(trace),
              "passes": len(passes), "setup_samples": setups,
              "op_times": r.times}
    if trace:
        # A warm-up pass, then untraced and traced passes in turn, each op once,
        # at least TRACE_PAIRS pairs and more while the budget allows.  The
        # overhead compares each op's fastest traced and untraced time.
        r.one_pass(reps=False)
        untraced, traced, tracers = [], [], []
        t0 = time.perf_counter()
        pair = 0.0
        while len(tracers) < TRACE_PAIRS or time.perf_counter() - t0 + pair <= seconds:
            p0 = time.perf_counter()
            untraced.append(r.one_pass(reps=False))
            tracer = tracing.Tracer()
            tracer.install(nct)
            try:
                tracer.op_id = "setup"
                Run(workload, seed, {}, nct).prepare()
                traced.append(r.one_pass(reps=False, tracer=tracer))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
            pair = time.perf_counter() - p0
        result["passes"] = len(tracers)
        metrics = per_layer(tracers, fastest(traced) - fastest(untraced))
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{workload}-seed{seed}"
        tracer.dump(f"{stem}-spans.jsonl")
        table = layer_table(metrics)
        Path(f"{stem}-layers.txt").write_text(table + "\n")
        print(table)
        units = PER_LAYER
    else:
        metrics = r.end_to_end(statistics.median(setups))
        units = END_TO_END
    result.update({
        "correct": not r.failures, "attempted": r.attempted, "failed": len(r.failures),
        "failures": r.failures, "values": r.values, "metrics": metrics,
        "environment": env.record(ROOT),
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, default=str))
    for name, msg in r.failures:
        print(f"FAILED {name}: {msg}", file=sys.stderr)
    return {"correct": not r.failures, "attempted": r.attempted, "failed": len(r.failures),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def record_reference() -> dict:
    """Values of every op of every workload."""
    nct = import_library()
    refs: dict = {}
    for workload in WORKLOADS:
        r = Run(workload, ident.CRITERION_9_SEED, {}, nct)
        r.prepare()
        for op in r.ops:
            refs.setdefault(workload, {})[op.name] = {
                k: v for k, v in op.run(lambda: None).items() if k in op.exact
            }
        print(f"recorded {workload}", file=sys.stderr)
    return refs
