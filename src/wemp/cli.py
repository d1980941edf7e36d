"""Command line front end.

    wemp run <config> [--assert] [--out DIR]
    wemp soe-table <alpha> <tau_f> <epsilon>

Exit codes: 0 success, 1 config error (an epsilon above its feasibility
ceiling is one), 2 acceptance breach (only with --assert), 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .experiments import ConfigError, parse_config, run_experiment
from .soe import build_soe, dump_soe_table


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wemp",
                     description="multiscale parareal solver for "
                                 "time-fractional diffusion")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("config", help="path to the config file")
    run.add_argument("--assert", dest="assert_mode", action="store_true",
                     help="exit 2 when the experiment misses its tolerance")
    run.add_argument("--out", default=None,
                     help="write here instead of the [run] output directory")

    table = sub.add_parser("soe-table",
                           help="print the exponential-sum table as CSV")
    table.add_argument("alpha", type=float)
    table.add_argument("tau_f", type=float)
    table.add_argument("epsilon", type=float)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    if args.command == "run":
        try:
            cfg = parse_config(args.config)
            return run_experiment(cfg, assert_mode=args.assert_mode,
                                  out_dir=args.out)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1

    if args.command == "soe-table":
        try:
            soe = build_soe(args.alpha, args.tau_f, args.epsilon)
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        dump_soe_table(soe, sys.stdout)
        print(f"n_terms = {soe.n_terms}, realized bound = {soe.epsilon:.6g}, "
              f"slowest rate = {soe.gamma_min:.6g}", file=sys.stderr)
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
