"""Run one atseg CLI command in a fresh interpreter and print its peak RSS.

The process holds only what a user's `atseg` command holds (the interpreter,
numpy, scipy and the package), so its peak resident set size is the
program's own.  The command's output goes to standard error; the last line
of standard output is the peak RSS in KiB.  Exits with the command's code.

Usage: python3 bench/rss_probe.py ATSEG_ARGS...
"""

import contextlib
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from atseg import cli  # noqa: E402


def main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(sys.stderr):
        rc = cli.main(argv)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
