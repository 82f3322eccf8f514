"""The command line the gated smoke benchmarks share.

``bench_dist``, ``bench_service``, ``bench_rebalance`` and
``bench_program`` each take ``--smoke`` / ``--json`` / ``--out``, write
their payload where ``--out`` says, print it with ``--json``, and exit 0
only when every ``"bool"`` gate of the payload holds (the timed and
counted gates are ``check_regression.py``'s to judge).
"""
from __future__ import annotations

import argparse
import json
import sys

try:
    from .common import write_json
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from common import write_json


def parser(description: str) -> argparse.ArgumentParser:
    """An argument parser holding the three shared flags."""
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--smoke", action="store_true",
                   help="run the gated smoke measurement")
    p.add_argument("--json", action="store_true",
                   help="print the payload as JSON on stdout")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the payload JSON here")
    return p


def parse_smoke(p: argparse.ArgumentParser, argv=None) -> argparse.Namespace:
    """Parse ``argv``; only ``--smoke`` mode runs from the command line."""
    args = p.parse_args(argv)
    if not args.smoke:
        p.error("only --smoke mode is runnable from the CLI")
    return args


def finish(name: str, payload: dict, args: argparse.Namespace) -> int:
    """Write and print ``payload`` as the flags ask; the exit code is 0
    when every bool gate holds, else 1."""
    if args.out:
        write_json(name, payload, out=args.out)
    if args.json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    ok = all(payload["metrics"][g["metric"]] is True
             for g in payload["gates"] if g["direction"] == "bool")
    return 0 if ok else 1
