"""Command-line interface.

Subcommands: simulate, observe, fuse, decode, analyze, graph, pipeline.
Exit codes: 0 success, 1 config validation failure, 2 runtime stage failure.
OFFICELAB_LOG={error,info,debug} controls verbosity.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from pathlib import Path

from .config import load_config, with_seed
from .errors import OfficeLabError, ParseError, ValidationError
from .pipeline import SOURCES, STAGES, Run, open_manifest, run_pipeline, run_stage

log = logging.getLogger("officelab")


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("OFFICELAB_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


@functools.cache  # built once per process: in-process callers (tests, benchmarks) run many commands
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="officelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*STAGES, "pipeline"):
        p = sub.add_parser(name, help=f"run the {name} stage" if name != "pipeline" else "run all stages")
        p.add_argument("--config", required=True, help="path to the world config document")
        p.add_argument("--out", required=True, help="output directory (holds the run manifest)")
        p.add_argument("--seed", type=int, default=None, help="override the config rng_seed")
        if name in ("analyze", "graph", "pipeline"):
            p.add_argument(
                "--analytics-source",
                choices=sorted(SOURCES),
                default="truth",
                help="run analytics on ground truth or on decoded paths",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = with_seed(config, args.seed)
    except (ParseError, ValidationError) as exc:
        print(f"officelab: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    source = getattr(args, "analytics_source", "truth")
    try:
        if args.command == "pipeline":
            run_pipeline(config, args.config, out_dir, source=source)
        else:
            run_stage(args.command, Run(config, out_dir, open_manifest(config, args.config, out_dir), source))
    except OfficeLabError as exc:
        print(f"officelab: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
