"""Benchmark of the torsorcheck verifier, driven from outside through the ``verify`` CLI.

    python3 perfbench/run.py --workload g2-n24 --seed 1 --seconds 30 --trace 0

Every sample runs ``torsorcheck.cli.main(["--config", ..., "--out", ...])`` in a
fresh interpreter (``sample.py``) with BLAS/OpenMP threads pinned to 1, so
start-up and peak memory are counted per sample.  The workload's config is
generated from ``--seed``, which becomes ``numeric.seed``.

With ``--trace 0`` the run measures the end-to-end metrics: ``suite_s`` (one
``run_suite`` call), ``peak_rss_mb`` (peak resident memory of that process)
and ``setup_s`` (interpreter start to entry into ``run_suite``).  With
``--trace 1`` it alternates untraced and traced suites (see ``tracing.py``)
and reports the per-layer metrics.  Every sample must exit with
status 0 and every check must pass with ``max_error <= tolerance``; the report,
with its ``wall_time_ms`` fields stripped, must hash to the same SHA-256 in
every sample of the run.  The last line of standard output is one JSON object
with ``correct``, ``attempted`` and ``failed`` (counted in checks) and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

sys.path.insert(0, str(HERE))
from tracing import LAYER_CALLS, span_name  # noqa: E402

CHECKS = [
    "datum_valid",
    "chern_integrality",
    "curvature_invariance",
    "sigma_obstruction",
    "slice_flatness",
    "family_curvature_restriction",
    "tau_obstruction",
    "sigma_tau_match",
    "perturbed_reference",
    "duality_involution",
    "trivial_bundle",
    "convergence_order",
]

THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}

SETUP_PROBES = 9  # set-up-only samples per --trace 0 run, after one warm-up
CHILD_LIMIT_S = 170.0  # no sample may outlive the run's own time limit
MB = 1e6


def torus_config(taus, grid: int, seed: int) -> dict:
    """Periods [I | i diag(taus)] and H = diag(1 / taus), so Im H is integral on the lattice.

    Complex entries are written as [re, im] pairs; the phases are all 0.
    """
    g = len(taus)
    periods = [[[float(i == j), 0.0] for j in range(g)]
               + [[0.0, float(taus[i]) if i == j else 0.0] for j in range(g)]
               for i in range(g)]
    hermitian = [[[1.0 / taus[i] if i == j else 0.0, 0.0] for j in range(g)]
                 for i in range(g)]
    return {
        "torus": {"genus": g, "periods": periods},
        "bundle": {"hermitian": hermitian, "chi_turns": [0] * (2 * g)},
        "numeric": {"grid": grid, "seed": seed},
    }


# name -> (taus, grid)
WORKLOADS = {
    # the CLI's principal-g1 demo at N=1024: 1 M nodes on 2 long axes, 1x1 matrices
    "g1-n1024": ([1], 1024),
    # the CLI's principal-g2 demo at N=24, the ROADMAP's memory target
    "g2-n24": ([1, 2], 24),
    # genus 3, H = diag(1, 2/3, 1/2): 6 short axes with 3x3 matrices
    "g3-n6": ([1, 1.5, 2], 6),
}


def environment() -> dict:
    import numpy

    try:
        llc = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        llc = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "threads": THREAD_ENV,
        "llc": llc,
        "note": "arrays of 4x LLC or more do not fit in this machine's memory, "
                "so the _mb figures are computed from array sizes, not bandwidth",
    }


def report_digest(report: dict) -> str:
    """SHA-256 of the report with its wall_time_ms fields stripped."""
    stripped = dict(report)
    stripped["checks"] = [{k: v for k, v in c.items() if k != "wall_time_ms"}
                          for c in report["checks"]]
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def failed_checks(report: dict) -> list[str]:
    """Checks that failed, crashed, exceeded their tolerance, or are missing."""
    by_name = {c["name"]: c for c in report["checks"]}
    failed = []
    for name in CHECKS:
        c = by_name.get(name)
        if (c is None or c["status"] != "pass" or c["max_error"] is None
                or not c["max_error"] <= c["tolerance"]):
            failed.append(name)
    return failed


class Runner:
    """Starts the samples of one run and collects what they report."""

    def __init__(self, config: dict, tag: str, deadline: float):
        OUT.mkdir(exist_ok=True)
        self.tag = tag
        self.deadline = deadline
        self.config_path = OUT / f"{tag}.config.json"
        self.config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        self.env = {k: v for k, v in os.environ.items() if k != "TORSORCHECK_OUT_DIR"}
        self.env.update(THREAD_ENV)
        self.count = 0

    def sample(self, setup_only: bool = False, trace: bool = False) -> dict:
        """One fresh interpreter; returns its result plus the report it wrote."""
        self.count += 1
        stem = OUT / f"{self.tag}.{self.count}"
        report_path, result_path = Path(f"{stem}.report.json"), Path(f"{stem}.result.json")
        cmd = [sys.executable, str(HERE / "sample.py"), "--src", str(SRC),
               "--config", str(self.config_path), "--out", str(report_path),
               "--result", str(result_path)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--spans", f"{stem}.spans.jsonl"]
        for stale in (report_path, result_path):
            stale.unlink(missing_ok=True)
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(started)], env=self.env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            return {"crashed": f"sample {stem.name} timed out", "wall_s": 0.0}
        if proc.returncode != 0 or not result_path.exists():
            sys.stderr.write(proc.stderr[-4000:])
            return {"crashed": f"sample {stem.name} died with status {proc.returncode}",
                    "wall_s": 0.0}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["wall_s"] = time.monotonic() - started
        if not setup_only:
            result["report"] = json.loads(report_path.read_text(encoding="utf-8"))
            if trace:
                with open(f"{stem}.spans.jsonl", encoding="utf-8") as fh:
                    result["spans"] = [json.loads(line) for line in fh]
        return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_stats(spans: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced suite, and the span-tree inconsistencies found."""
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    problems = []
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        kids = children[s["id"]]
        s["children_s"] = sum(k["end"] - k["start"] for k in kids)
        s["self_s"] = s["dur"] - s["children_s"]
        inside = all(s["start"] <= k["start"] <= k["end"] <= s["end"] for k in kids)
        disjoint = all(a["end"] <= b["start"] for a, b in zip(kids, kids[1:]))
        if not (inside and disjoint):
            problems.append(f"children of span {s['id']} ({s['name']}) overlap or leak")

    def nested_in_same_name(s) -> bool:
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                return True
            p = by_id[p]["parent"]
        return False

    agg = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "children_s": 0.0,
                               "in_mb": 0.0, "out_mb": 0.0, "peak_mb": 0.0})
    for s in spans:
        a = agg[s["name"]]
        a["calls"] += 1
        a["self_s"] += s["self_s"]
        if not nested_in_same_name(s):
            a["s"] += s["dur"]
            a["children_s"] += s["children_s"]
        for key in ("in", "out", "peak"):
            a[f"{key}_mb"] = max(a[f"{key}_mb"], s.get(f"{key}_bytes", 0) / MB)
    return agg, problems


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in BENCHMARK.json order."""
    units = {"s": "s", "self_s": "s", "calls": "count", "peak_mb": "MB",
             "in_mb": "MB-computed", "out_mb": "MB-computed"}
    names = {}
    for check in CHECKS:
        for stat in ("s", "self_s", "peak_mb"):
            names[f"verifier.check.{check}.{stat}"] = units[stat]
    for module, path, stats in LAYER_CALLS:
        for stat in stats:
            names[f"{span_name(module, path)}.{stat}"] = units[stat]
    names["trace.suite_s"] = "s"
    names["trace.overhead_s"] = "s"
    return names


def measure(config: dict, tag: str, seconds: float, trace: bool) -> dict:
    """One benchmark run of ``config``: samples until ``seconds`` have passed."""
    started = time.monotonic()
    runner = Runner(config, tag, started + CHILD_LIMIT_S)
    suites, setups, traced, crashes = [], [], [], []
    if not trace:
        probes = [runner.sample(setup_only=True) for _ in range(1 + SETUP_PROBES)]
        crashes += [p["crashed"] for p in probes if "crashed" in p]
        # the first probe is a warm-up that byte-compiles the package
        setups = [p["setup_s"] for p in probes[1:] if "crashed" not in p]
    while not crashes:
        # a traced run alternates untraced and traced suites, starting untraced
        result = runner.sample(trace=trace and len(suites) > len(traced))
        if "crashed" in result:
            crashes.append(result["crashed"])
            break
        (traced if result.get("spans") is not None else suites).append(result)
        if time.monotonic() + result["wall_s"] > started + seconds and (traced or not trace):
            break
    if crashes or not suites or (trace and not traced):
        return {"problems": crashes or ["no sample completed"], "attempted": len(CHECKS),
                "failed": len(CHECKS)}

    everything = suites + traced
    digests = {report_digest(s["report"]) for s in everything}
    failed = sum(len(failed_checks(s["report"])) for s in everything)
    attempted = len(CHECKS) * len(everything)
    problems = [f"sample exited with status {s['exit_status']}"
                for s in everything if s["exit_status"] != 0]
    notes = [f"not found, so not traced: {name}"
             for name in sorted({n for s in traced for n in s["untraced"]})]
    if len(digests) != 1:
        problems.append(f"report digests differ between samples: {sorted(digests)}")
    suite_s = summary([s["suite_s"] for s in suites])
    results = {"samples": len(everything), "digest": min(digests), "attempted": attempted,
               "failed": failed, "check_fail_ratio": failed / attempted}
    if not trace:
        setups += [s["setup_s"] for s in suites]
        results["end_to_end"] = {
            "suite_s": (suite_s, "s"),
            "peak_rss_mb": (summary([s["peak_rss_mb"] for s in suites]), "MB"),
            "setup_s": (summary(setups), "s"),
        }
    else:
        per_suite = []
        for s in traced:
            agg, tree_problems = layer_stats(s["spans"])
            problems += tree_problems
            per_suite.append(agg)
        traced_s = statistics.median(s["suite_s"] for s in traced)
        layer = {}
        for name, unit in per_layer_units().items():
            if name == "trace.suite_s":
                value = traced_s
            elif name == "trace.overhead_s":
                value = traced_s - suite_s["median"]
            else:
                span, stat = name.rsplit(".", 1)
                value = statistics.median(agg[span][stat] for agg in per_suite)
            layer[name] = (value, unit)
        results["per_layer"] = layer
        results["check_spans"] = {
            c: {k: per_suite[-1][f"verifier.check.{c}"][k] for k in ("s", "self_s", "children_s")}
            for c in CHECKS}
    results["problems"] = problems
    results["notes"] = notes
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # a terminated run raises inside subprocess.run, which then kills the running sample
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "torsorcheck" / "__init__.py").is_file():
        print(f"no torsorcheck sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be a non-negative integer (it becomes numeric.seed)", file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    taus, grid = WORKLOADS[args.workload]
    res = measure(torus_config(taus, grid, args.seed), tag, args.seconds, bool(args.trace))
    res["environment"] = env
    (OUT / f"{tag}.json").write_text(json.dumps(res, indent=1), encoding="utf-8")
    if "samples" not in res:
        for problem in res["problems"]:
            print(f"problem: {problem}")
        print(json.dumps({"correct": False, "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": {}}))
        return 0

    print(f"workload {args.workload}, seed {args.seed}: {res['samples']} suites, "
          f"report sha256 {res['digest']}")
    for problem in res["problems"]:
        print(f"problem: {problem}")
    for note in res["notes"]:
        print(f"note: {note}")
    print(f"check_fail_ratio {res['check_fail_ratio']:.4f} ratio "
          f"({res['failed']} of {res['attempted']} checks failed or crashed)")
    if args.trace:
        for check, span in res["check_spans"].items():
            print(f"check {check}: span {span['s']:.4f} s = self {span['self_s']:.4f} s "
                  f"+ children {span['children_s']:.4f} s")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["per_layer"].items()}
    else:
        for name, (s, unit) in res["end_to_end"].items():
            print(f"{name} {s['median']:.4f} {unit} (q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, "
                  f"n {s['n']})")
        metrics = {name: {"value": s["median"], "unit": unit}
                   for name, (s, unit) in res["end_to_end"].items()}
    correct = not res["problems"] and res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
