"""Record the benchmark's expected outputs from the current program.

    python3 perfbench/record.py [--out PATH]

Writes perfbench/expected.json (or PATH): for every request of every
workload, the digest of its report (or, for bphz, its term count and exact
coefficient sum).  Re-record only when a change to the program is meant to
change its output.  Takes about a minute.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import workloads as wl


def record() -> dict:
    prog = wl.load_program()
    wbs = wl.setup(prog)
    problems = wl.check_basis(wbs)
    expected: dict = {}
    for name in wl.WORKLOADS:
        for req in wl.make_workload(name, prog, wbs).canonical():
            out = wl.execute(prog, wbs, req)
            problems += wl.known_problems(req, out)
            expected[req.key] = wl.observe(req, out)
            if req.reference:
                plain = dataclasses.replace(req, reference=False)
                expected[plain.key] = wl.observe(plain, out)
    if problems:
        raise SystemExit("refusing to record failing outputs:\n" + "\n".join(problems))
    return expected


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=str(wl.EXPECTED_PATH))
    args = p.parse_args(argv)
    expected = record()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(expected)} outputs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
