"""Command-line front end: run the verification suite on a config or a built-in demo."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ConfigInvalid
from .verifier import DEMO_CONFIGS, VerificationConfig, emit_report, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Verify the connection-torsor identities for a line bundle "
        "on a compact complex torus and emit a JSON report.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="PATH", help="JSON run configuration")
    source.add_argument(
        "--demo",
        choices=sorted(DEMO_CONFIGS),
        help="run one of the built-in configurations",
    )
    parser.add_argument("--out", metavar="PATH", help="where to write the JSON report")
    parser.add_argument(
        "--checks",
        metavar="LIST",
        help="comma-separated subset of check names to run",
    )
    parser.add_argument("--grid", type=int, metavar="N", help="grid resolution override")
    parser.add_argument("--seed", type=int, metavar="S", help="RNG seed override")
    parser.add_argument(
        "--tol",
        type=float,
        metavar="T",
        help="override the tolerance of the difference-mediated checks",
    )
    return parser


def _resolve_out(cli_out: str | None, cfg_out: str | None) -> str | None:
    out = cli_out if cli_out is not None else cfg_out
    override_dir = os.environ.get("TORSORCHECK_OUT_DIR")
    if override_dir:
        name = Path(out).name if out else "report.json"
        return str(Path(override_dir) / name)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.demo:
            cfg = VerificationConfig.demo(args.demo)
        else:
            cfg = VerificationConfig.from_file(args.config)
        given = {"grid": args.grid, "seed": args.seed, "tolerance_fd": args.tol}
        overrides = {k: v for k, v in given.items() if v is not None}
        if args.checks is not None or overrides:
            base = dict(cfg.canonical)
            if args.checks is not None:
                base["checks"] = [c.strip() for c in args.checks.split(",") if c.strip()]
            base["numeric"] = {**base["numeric"], **overrides}
            cfg = VerificationConfig.from_dict(base)
        out = _resolve_out(args.out, cfg.output)
        if out is not None and (Path(out).is_dir() or not Path(out).parent.is_dir()):
            raise ConfigInvalid(f"report path {out} must name a file in an existing directory")
    except ConfigInvalid as exc:
        print(f"configuration invalid: {exc}", file=sys.stderr)
        return 2
    report = run_suite(cfg)
    try:
        emit_report(report, out)
    except OSError as exc:
        print(f"report not written: {exc}", file=sys.stderr)
        return 2
    return 0 if report.overall == "pass" else 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
