"""One ``name sha256`` line per verification report, for byte-identity checks.

    python3 tools/report_digests.py --src SRC [--seeds N] > digests.txt

Runs the suite, in this process, from the ``torsorcheck`` package under
``SRC`` (default: this checkout's ``src``) on the three demos and on seeds
1..N (default 20) of each benchmark workload.  The workload configs come from
``perfbench/run.py`` (``WORKLOADS`` and ``torus_config``), and each report is
hashed with that module's ``report_digest``: the JSON as written, with its
``wall_time_ms`` fields stripped and ``config_digest`` kept.  A RuntimeWarning
stops the run.  Two trees give the same reports exactly when

    diff <(python3 tools/report_digests.py --src A/src) \\
         <(python3 tools/report_digests.py --src B/src)

prints nothing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_benchmark():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _import_torsorcheck(src: Path):
    sys.path.insert(0, str(src))
    import torsorcheck

    if src not in Path(torsorcheck.__file__).resolve().parents:
        raise SystemExit(f"torsorcheck was imported from {torsorcheck.__file__}, not {src}")
    return torsorcheck


def digest_lines(src: Path, seeds: int):
    """Yield ``name sha256`` for the demos, then seeds 1..``seeds`` of each workload."""
    bench = _load_benchmark()
    tc = _import_torsorcheck(src.resolve())
    from torsorcheck.verifier import report_json

    configs = [(f"demo/{name}", tc.VerificationConfig.demo(name))
               for name in sorted(tc.DEMO_CONFIGS)]
    for workload, (taus, grid) in bench.WORKLOADS.items():
        for seed in range(1, seeds + 1):
            data = json.loads(json.dumps(bench.torus_config(taus, grid, seed)))
            configs.append((f"{workload}/seed-{seed}", tc.VerificationConfig.from_dict(data)))
    for name, cfg in configs:
        report = json.loads(report_json(tc.run_suite(cfg)))
        yield f"{name} {bench.report_digest(report)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the torsorcheck package")
    parser.add_argument("--seeds", type=int, default=20,
                        help="seeds 1..N of each workload (0 runs the demos only)")
    args = parser.parse_args(argv)
    if args.seeds < 0:
        parser.error("--seeds must be >= 0")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for line in digest_lines(args.src, args.seeds):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
