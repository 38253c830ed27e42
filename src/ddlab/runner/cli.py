"""Command-line front end: ``ddlab <kind> --config <file>``."""

import argparse
import sys
from pathlib import Path

from ..errors import ConfigError, DdlabError, DivergenceError
from .config import KINDS, parse_config
from .execute import run

_BLURBS = {
    "map-iterate": "iterate a grid density under an interval map",
    "dde-ensemble": "evolve an ensemble of delay trajectories and snapshot densities",
    "gaussian": "variance curve of a linear delay equation from a covariance kernel",
    "brownian": "trajectory statistics for the sine-feedback delay oscillator",
    "kicked": "Ornstein-Uhlenbeck limit sweep for the kicked chaotic oscillator",
    "compare": "analytic variance vs Monte Carlo ensemble, side by side",
}


def _build_parser():
    top = argparse.ArgumentParser(
        prog="ddlab",
        description="Run a configured experiment; outputs are CSV files "
                    "plus a manifest.json recording config and content hashes.")
    sub = top.add_subparsers(dest="kind", required=True, metavar="<kind>")
    for kind in KINDS:
        sp = sub.add_parser(kind, help=_BLURBS[kind])
        sp.add_argument("--config", required=True, metavar="FILE",
                        help="run configuration file")
        sp.add_argument("--threads", type=int, default=None, metavar="N",
                        help="accepted for compatibility; all work runs on "
                             "the calling thread and outputs do not change")
        sp.add_argument("--dry-run", action="store_true",
                        help="validate and write the manifest only")
        sp.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (overrides the config)")
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as err:
        print(f"ddlab: cannot read config: {err}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, kind=args.kind)
        manifest = run(config, threads=args.threads, dry_run=args.dry_run,
                       outdir=args.out)
    except ConfigError as err:
        for line, msg in err.problems:
            where = f"{args.config}:{line}: " if line is not None else ""
            print(f"ddlab: {where}{msg}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"ddlab: invalid run: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"ddlab: {err}", file=sys.stderr)
        return 3
    except DdlabError as err:
        print(f"ddlab: {err}", file=sys.stderr)
        return 4
    word = "validated" if args.dry_run else f"wrote {len(manifest.outputs)} file(s) into"
    print(f"ddlab: {word} {manifest.outdir} (config {manifest.config_hash[:12]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
