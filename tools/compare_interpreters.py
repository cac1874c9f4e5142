"""Run a fixed list of ``python -m seifert`` commands under each given
interpreter and compare what they print.

    python3 tools/compare_interpreters.py PYTHON [PYTHON ...]

Each PYTHON is the path of an interpreter; the script runs those it is
given and looks for no other.  Every command runs with ``PYTHONPATH``
set to the ``src`` directory of this checkout, and some with one more
variable, in a temporary directory that holds three small census tables
and one large enough to be graded in forked workers.
For each command and interpreter the script prints one sha256 over the
exit code, stdout and stderr, and it exits 1 if any command's digest
differs between the interpreters.
Standard library only, so it runs under any interpreter the package
supports.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# sharp, overestimated and violated rows in both conventions, a comment,
# and a name recorded with two fibrations
TABLE = """\
# census table for the interpreter comparison
RP2xS1\t{0;(n1,1,(0,0));(|);}\t1\tnormalized
twisted\t{1;(n1,1,(0,0));(|);}\t0\tnormalized
over\t{0;(n1,2,(0,0));(|);((2,1))}\t1\tburton
low\t{0;(n2,2,(0,0));(|);((3,1))}\t99\tnormalized
twice\t{0;(n1,1,(0,0));(|);((3,1))}\t4\tnormalized
twice\t{0;(n1,1,(0,0));(|);((5,2))}\t5\tburton
"""

# two rows, the last named with a letter that ASCII cannot spell
ASCII_TABLE = """\
RP2xS1\t{0;(n1,1,(0,0));(|);}\t1\tnormalized
caf\u00e9\t{0;(n1,1,(0,0));(|);}\t1\tnormalized
"""

# a name on line 3 whose byte 0xff is not UTF-8
BAD_TABLE = (b"RP2xS1\t{0;(n1,1,(0,0));(|);}\t1\tnormalized\n"
             b"# a comment\n"
             b"ov\xffer\t{0;(n1,2,(0,0));(|);((2,1))}\t1\tburton\n")

# the data rows of TABLE 2,000 times, each copy's names numbered: 12,000
# rows, 0.58 MB, above the size (0.5 MB) from which census check grades a
# regular file in byte ranges, in forked workers
BIG_TABLE = "".join(row.replace("\t", f"{i}\t", 1) + "\n"
                    for i in range(2000)
                    for row in TABLE.splitlines() if not row.startswith("#"))

# (environment beyond PYTHONPATH, arguments) of each command
COMMANDS = [
    ({}, ("bound", "--json", "{-1;(o1,0,(0,0));(|);((2,1),(3,1),(11,2))}")),
    ({}, ("info", "{0;(o,4,(1,1));(1|0);}")),
    ({}, ("--help",)),
    ({}, ("bound", "{0;(N1,1,(0,0));(|);}")),  # a parse error
    # an eps word outside the eight: parse error at position 4
    ({}, ("bound", "{0;(o3,1,(0,0));(|);}")),
    # a unit pair, a negative q and a pair to reflect
    ({}, ("normalize", "{3;(n1,1,(0,0));(|);((1,2),(5,-7),(3,2))}")),
    # three branches of upper_bound: Lens_bpq (L(7,2)), BorderedGeneral
    # (3) and ClosedNonorientableGeneral (20)
    ({}, ("bound", "{2;(o1,0,(0,0));(|);((3,1))}")),
    ({}, ("bound", "{0;(o1,1,(0,0));(0|);((5,2),(7,3))}")),
    ({}, ("bound", "{0;(n3,2,(1,0));(|);((2,1),(5,2))}")),
    # the least genus and base orientability of an eps symbol: info
    # prints both, and a genus below the least one is refused (exit 2)
    ({}, ("info", "--json", "{0;(o2,1,(0,0));(|);((3,1))}")),
    ({}, ("info", "{0;(n3,2,(1,0));(|);}")),
    ({}, ("info", "{1;(n4,3,(0,0));(|);((2,1))}")),
    ({}, ("bound", "{0;(n4,2,(0,0));(|);}")),
    ({}, ("census", "gen", "--cmax", "12")),
    ({}, ("census", "gen", "--cmax", "12", "--json")),
    # below budget 3 the per-room pair lists are empty, and every head
    # takes its first pairs from the index
    ({}, ("census", "gen", "--cmax", "2")),
    # the first budget with chi^orb < 0 entries; heads of room 7 and of
    # room 1 take their first pairs from both sources
    ({}, ("census", "gen", "--cmax", "7", "--json")),
    ({}, ("census", "check", "--file", "table.tsv")),
    ({}, ("census", "check", "--file", "table.tsv", "--json")),
    # --cmax grades only the rows recorded with complexity <= 1
    ({}, ("census", "check", "--file", "table.tsv", "--cmax", "1")),
    ({}, ("census", "check", "--json", "--cmax", "1", "--file", "table.tsv")),
    # exit 2: line 3: byte 0xff is not valid UTF-8
    ({}, ("census", "check", "--file", "bad.tsv")),
    # graded in ranges on every usable CPU, merged in file order
    ({}, ("census", "check", "--file", "big.tsv")),
    ({}, ("census", "check", "--file", "big.tsv", "--json")),
    # a name that stdout cannot spell: one stderr line, stdout empty
    ({"PYTHONIOENCODING": "ascii"},
     ("census", "check", "--file", "ascii.tsv")),
    # JSON escapes the name, so the same table prints (exit 0)
    ({"PYTHONIOENCODING": "ascii"},
     ("census", "check", "--json", "--file", "ascii.tsv")),
]


def digest(python: str, extra: dict[str, str], argv: tuple[str, ...],
           cwd: str) -> str:
    """sha256 over the exit code, stdout and stderr of one command, run
    with the variables of extra added to its environment."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               **extra)
    proc = subprocess.run([python, "-m", "seifert", *argv], cwd=cwd,
                          env=env, capture_output=True, timeout=300)
    h = hashlib.sha256()
    for part in (str(proc.returncode).encode(), proc.stdout, proc.stderr):
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON",
                        help="path of an interpreter to run the commands")
    args = parser.parse_args(argv)
    for python in args.pythons:
        version = subprocess.run([python, "--version"], capture_output=True,
                                 text=True, timeout=60)
        print(f"# {python}: {(version.stdout or version.stderr).strip()}")
    differ = 0
    with tempfile.TemporaryDirectory() as cwd:
        Path(cwd, "table.tsv").write_text(TABLE, encoding="utf-8")
        Path(cwd, "ascii.tsv").write_text(ASCII_TABLE, encoding="utf-8")
        Path(cwd, "bad.tsv").write_bytes(BAD_TABLE)
        Path(cwd, "big.tsv").write_text(BIG_TABLE, encoding="utf-8")
        for extra, command in COMMANDS:
            digests = [digest(python, extra, command, cwd)
                       for python in args.pythons]
            same = len(set(digests)) == 1
            differ += not same
            print(f"{'same' if same else 'DIFFERS'}: "
                  + " ".join([*(f"{k}={v}" for k, v in extra.items()),
                              "seifert", *command]))
            for python, value in zip(args.pythons, digests):
                print(f"  {value}  {python}")
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands "
          f"print the same bytes under {len(args.pythons)} interpreters")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
