"""Seeded benchmark inputs, built without importing the package under test.

The program sees only the strings made here, so two commits measured with
the same seed get byte-identical input.  The move words below re-implement
the elementary moves on plain tuples instead of calling the package, so a
change to the package cannot change its own input.
"""
from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from math import gcd
from pathlib import Path

# Output of `seifert census gen --cmax 12`, kept as an external census table.
CENSUS_TABLE = Path(__file__).with_name("data") / "census12.tsv"

EPSILONS = ("o", "o1", "o2", "n", "n1", "n2", "n3", "n4")
MIN_GENUS = {"o": 0, "o1": 0, "o2": 1, "n": 1, "n1": 1, "n2": 1, "n3": 2,
             "n4": 3}
MIRROR_ONLY = ("o1", "n2")  # no fibre-reversing curve: pairs flip together
CONVENTIONS = ("normalized", "burton")
ONESHOT_COMMANDS = ("bound", "normalize", "conjecture", "info", "eq")

REWRITES_PER_ENTRY = 4
ONESHOT_SEQUENCE = 1000  # calls generated; a run uses a prefix, cycling

_BRACKET = re.compile(
    r"\{(-?\d+);\((\w+),(\d+),\((\d+),(\d+)\)\);\(([\d,]*)\|([\d,]*)\);(.*)\}")
_PAIR = re.compile(r"\((-?\d+),(-?\d+)\)")


@dataclass(frozen=True)
class Raw:
    """A parameter set as plain values; not necessarily canonical."""

    b: int
    eps: str
    g: int
    t: int
    k: int
    hplus: tuple[int, ...]
    kminus: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]


def spell(x: Raw) -> str:
    """Bracket notation of x."""
    pairs = ""
    if x.pairs:
        pairs = "(" + ",".join(f"({p},{q})" for p, q in x.pairs) + ")"
    hplus = ",".join(map(str, x.hplus))
    kminus = ",".join(map(str, x.kminus))
    return f"{{{x.b};({x.eps},{x.g},({x.t},{x.k}));({hplus}|{kminus});{pairs}}}"


def _naturals(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",")) if text else ()


def read_census(budget: int) -> list[tuple[Raw, int]]:
    """Entries of the stored census table with value <= budget."""
    entries = []
    for line in CENSUS_TABLE.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        text, value = line.split("\t")[:2]
        if int(value) > budget:
            continue
        b, eps, g, t, k, hplus, kminus, pairs = _BRACKET.fullmatch(text).groups()
        entries.append((Raw(int(b), eps, int(g), int(t), int(k),
                            _naturals(hplus), _naturals(kminus),
                            tuple((int(p), int(q))
                                  for p, q in _PAIR.findall(pairs))),
                        int(value)))
    return entries


def scramble(rng: random.Random, x: Raw) -> Raw:
    """x rewritten by a random word of 3 to 7 moves: twist, unit-pair
    insertion, pair reflection and (for o1, n2) mirror."""
    b, pairs = x.b, list(x.pairs)
    for _ in range(rng.randrange(3, 8)):
        moves = ["insert"]
        if pairs:
            moves.append("twist")
        if x.eps in MIRROR_ONLY:
            moves.append("mirror")
        elif pairs:
            moves.append("reflect")
        move = rng.choice(moves)
        if move == "insert":
            q = rng.randrange(-3, 4)
            b -= q
            pairs.append((1, q))
        elif move == "twist":
            j, n = rng.randrange(len(pairs)), rng.randrange(-3, 4)
            p, q = pairs[j]
            pairs[j] = (p, q - n * p)
            b += n
        elif move == "reflect":
            j = rng.randrange(len(pairs))
            p, q = pairs[j]
            pairs[j] = (p, p - q)
            b += 1
        else:
            if x.t == 0 and not x.hplus and not x.kminus:
                b = -b - len(pairs)  # closed orientable: b changes too
            pairs = [(p, p - q) for p, q in pairs]
    rng.shuffle(pairs)
    return Raw(b, x.eps, x.g, x.t, x.k, x.hplus, x.kminus, tuple(pairs))


def random_set(rng: random.Random) -> Raw:
    """A random admissible raw set over all eight eps, closed or bordered,
    with unreduced b, unit pairs and out-of-range q."""
    eps = rng.choice(EPSILONS)
    g = MIN_GENUS[eps] + rng.randrange(3)
    if eps in ("o", "n"):
        k = rng.randrange(3)
        m_minus = rng.choice([v for v in range(4) if (v + k) % 2 == 0 and v + k])
        t = k + rng.randrange(3)
    else:
        k, m_minus, t = 0, 0, rng.randrange(3)
    hplus = tuple(rng.randrange(3) for _ in range(rng.choice((0, 0, 1, 2))))
    kminus = tuple(rng.randrange(3) for _ in range(m_minus))
    pairs = []
    for _ in range(rng.randrange(4)):
        p = rng.randrange(1, 13)
        q = rng.choice([q for q in range(1, p + 1) if gcd(p, q) == 1])
        pairs.append((p, q + p * rng.randrange(-3, 4)))
    return Raw(rng.randrange(-5, 6), eps, g, t, k, hplus, kminus, tuple(pairs))


def census_check_table(seed: int, census_budget: int,
                       rows: int) -> tuple[str, list[str]]:
    """A census TSV and the names of its census-derived rows.

    Each census entry with value <= census_budget appears
    REWRITES_PER_ENTRY times, rewritten by a move word and recorded with
    its census value; random admissible sets recorded as 0 fill the
    table up to `rows`.  Rows alternate between the two conventions.
    """
    rng = random.Random(seed)
    table = []
    for i, (x, value) in enumerate(read_census(census_budget)):
        for _ in range(REWRITES_PER_ENTRY):
            table.append((f"c{i}", spell(scramble(rng, x)), value))
    while len(table) < rows:
        table.append((f"r{len(table)}", spell(random_set(rng)), 0))
    rng.shuffle(table)
    lines = [f"# census_check input, seed {seed}"]
    lines += [f"{name}\t{text}\t{value}\t{CONVENTIONS[i % 2]}"
              for i, (name, text, value) in enumerate(table)]
    return "\n".join(lines) + "\n", [n for n, _, _ in table if n[0] == "c"]


def oneshot_argvs(seed: int) -> list[list[str]]:
    """ONESHOT_SEQUENCE command lines, each of which exits 0.

    `conjecture` and `eq` take rewritten census entries (closed and
    non-orientable, as conjecture requires); `eq` compares two rewrites of
    one entry half of the time.  The other commands take a random set or
    a rewritten census entry with equal odds.
    """
    rng = random.Random(seed)
    census = [x for x, _ in read_census(12)]
    argvs = []
    for _ in range(ONESHOT_SEQUENCE):
        command = rng.choice(ONESHOT_COMMANDS)
        x = rng.choice(census)
        if command == "eq":
            y = x if rng.random() < 0.5 else rng.choice(census)
            args = [scramble(rng, x), scramble(rng, y)]
        elif command == "conjecture" or rng.random() < 0.5:
            args = [scramble(rng, x)]
        else:
            args = [random_set(rng)]
        argvs.append([command, *map(spell, args)])
    return argvs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
