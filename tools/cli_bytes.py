"""Compare the bytes and exit codes of ``jaco`` command lines with those of
another checkout.

Usage: ``python3 tools/cli_bytes.py OTHER``, where OTHER is the root of
another checkout of this repository, for example a change's parent.

For each checkout, one subprocess with that checkout's ``src`` first on
the path calls ``jacograph.cli.main`` on each argument list of
``COMMANDS`` and records its exit code, standard output and standard error
(the ``SystemExit`` of ``--help`` gives the exit code).  Prints each
argument list whose results differ, with the parts that differ, then
``N of M command lines differ``; exits 1 when N > 0.  The list is kept
small: both checkouts together take about half a second on a 2-core x86
VM.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = [
    ["table1", "--f", "x^2", "--n", "40", "--show-paper-errata"],
    ["table1", "--f", "3", "--n", "12"],  # constant: the chain breaks, no distance
    ["table3", "--f", "x^2", "--n", "30", "--weights", "--show-paper-errata"],
    ["braided", "--orders", "7,5", "--overlaps", "3", "--erratum", "--show-paper-errata"],
    ["braided", "--orders", "7,5,6", "--overlaps", "3,2", "--format", "dot"],
    ["export", "--f", "2*x+1", "--n", "20", "--arcs"],
    ["export", "--f", "x^2", "--n", "20", "--format", "dot-directed"],
    ["verify", "--n", "40", "--colouring-n", "8"],
    [],
    ["--help"],
    *([command, "--help"] for command in ("table1", "table3", "braided", "verify", "export")),
    # the documented errors
    ["table1", "--f", "x^^2", "--n", "5"],
    ["table1", "--f", "x^2", "--n", "0"],
    ["table1", "--f", "x^2", "--n", "3037000500"],
    ["export", "--f", "x^2", "--n", "5", "--arc-budget=-1"],
    ["export", "--f", "x^2", "--n", "50", "--format", "dot-directed", "--arc-budget", "10"],
    ["braided", "--orders", "7,5", "--overlaps", "6"],
    ["verify", "--prop", "no-such-law"],
    ["table1", "--f=--", "--n", "5"],
]

# Run in the subprocess: argv[1] is the checkout's src, stdin the
# argument lists; stdout gets one [exit code, stdout, stderr] per list.
_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from jacograph.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.__stdout__)
"""


def run_checkout(root: Path) -> list[list]:
    """[exit code, stdout, stderr] of each of ``COMMANDS`` in the checkout at ``root``."""
    env = dict(os.environ, COLUMNS="80")  # argparse wraps its help to the terminal width
    done = subprocess.run(
        [sys.executable, "-B", "-c", _CHILD, str(root / "src")], input=json.dumps(COMMANDS),
        capture_output=True, text=True, check=True, cwd=root, env=env,
    )
    return json.loads(done.stdout)


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python3 tools/cli_bytes.py OTHER", file=sys.stderr)
        return 1
    ours, theirs = run_checkout(ROOT), run_checkout(Path(sys.argv[1]).resolve())
    differ = 0
    for argv, mine, other in zip(COMMANDS, ours, theirs):
        parts = [name for name, x, y in zip(("exit code", "stdout", "stderr"), mine, other) if x != y]
        if parts:
            differ += 1
            print(f"jaco {shlex.join(argv)}: {', '.join(parts)} differ")
    print(f"{differ} of {len(COMMANDS)} command lines differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
