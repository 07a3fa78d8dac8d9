"""Command line interface.

Exit codes: 0 success, 1 check failure (a certificate or side condition
reported a violation), 2 usage or configuration error, 3 cap exceeded.  Any
other exception is a fault of the program and propagates with its traceback.
"""
from __future__ import annotations

import argparse
import sys

from .forests import CapExceeded
from .rules import SubcriticalityError
from .workbench import ConfigError, Workbench, parse_config, report_emit


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="renormforest",
        description="Symbolic workbench for tree renormalization and "
        "multiscale power counting.",
    )
    p.add_argument("--config", required=True, help="path to the JSON configuration")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", help="emit the tree basis with homogeneities")
    r = sub.add_parser("renormalize", help="emit the counterterm report of a tree")
    r.add_argument("tree_id")
    b = sub.add_parser("bphz", help="emit the BPHZ expansion of a tree, one row per term")
    b.add_argument("tree_id")
    c = sub.add_parser("certify", help="run the power-counting certificates of a tree")
    c.add_argument("tree_id")
    pj = sub.add_parser("project", help="emit safe-forest and harvested-cut tables")
    pj.add_argument("tree_id")
    pj.add_argument("--scales", required=True, help="path to a scale-assignment JSON")
    d = sub.add_parser("decompose", help="emit the chaos-term inventory of a tree")
    d.add_argument("tree_id")
    e = sub.add_parser("export-dot", help="write a DOT diagram of an object")
    e.add_argument("object_id")
    return p


def _read_scales(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError([f"cannot read scales: {exc}"]) from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_config(fh.read())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    wb = Workbench(config)
    try:
        if args.command == "generate":
            result = wb.cmd_generate()
        elif args.command == "renormalize":
            result = wb.cmd_renormalize(args.tree_id)
        elif args.command == "bphz":
            result = wb.cmd_bphz(args.tree_id)
        elif args.command == "certify":
            result = wb.cmd_certify(args.tree_id)
        elif args.command == "project":
            result = wb.cmd_project(args.tree_id, _read_scales(args.scales))
        elif args.command == "decompose":
            result = wb.cmd_decompose(args.tree_id)
        else:
            result = wb.cmd_export_dot(args.object_id)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except SubcriticalityError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.stdout.write(report_emit(result))
    if isinstance(result, dict) and result.get("pass") is False:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
