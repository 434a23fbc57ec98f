"""One benchmark sample: the ``verify`` CLI on one config, in this fresh interpreter.

    python3 perfbench/sample.py --src SRC --config CFG --out REPORT --result RESULT \
        --spawned T [--setup-only] [--spans SPANS]

``--spawned`` is the CLOCK_MONOTONIC reading the parent took just before it
started this interpreter, so set-up time counts interpreter start, ``import
torsorcheck`` and config validation, up to entry into ``run_suite``.  With
``--setup-only`` the sample stops there.  With ``--spans`` the layer calls are
traced and the spans written to that file at the end.  The result file gets
the timings, the peak resident memory and the CLI's exit status.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


class _SetupDone(Exception):
    pass


def main() -> None:
    parser = argparse.ArgumentParser()
    for flag in ("--src", "--config", "--out", "--result", "--spans"):
        parser.add_argument(flag)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import torsorcheck
    from torsorcheck import cli

    if Path(args.src).resolve() not in Path(torsorcheck.__file__).resolve().parents:
        raise SystemExit(f"torsorcheck was imported from {torsorcheck.__file__}, not {args.src}")
    result = {}
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer(Path(args.spans).stem)
        result["untraced"] = tracer.install(torsorcheck)
    run_suite = cli.run_suite

    def timed_run_suite(cfg):
        entered = time.monotonic()
        result["setup_s"] = entered - args.spawned
        if args.setup_only:
            raise _SetupDone
        report = run_suite(cfg)
        result["suite_s"] = time.monotonic() - entered
        return report

    cli.run_suite = timed_run_suite
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI's text summary
            result["exit_status"] = cli.main(["--config", args.config, "--out", args.out])
    except _SetupDone:
        result["exit_status"] = 0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
