"""One-vertex VH square complexes and the link condition.

A (2m,2n)-complex has a single vertex, m horizontal loops a_1..a_m, n
vertical loops b_1..b_n, and mn geometric squares with boundary word
a b a' b' (positions 1,3 horizontal, positions 2,4 vertical).  The four
boundary readings

    (a, b, a', b')   (a', b', a, b)   (a^-1, b'^-1, a'^-1, b^-1)
    (a'^-1, b^-1, a^-1, b'^-1)

describe the same geometric square; we store the lexicographic minimum.

The link condition ("the vertex link is the complete bipartite graph
K_{2m,2n}") is checked as an exact cover: every corner pair (a, b) with
a horizontal and b vertical must occur in exactly one square.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

HORIZONTAL = "h"
VERTICAL = "v"


class ComplexError(ValueError):
    """Malformed complex description (parse or construction time)."""


class LinkError(ValueError):
    """A corner pair is missing or duplicated where uniqueness is assumed."""


@dataclass(frozen=True, order=True)
class Letter:
    """An oriented edge: side 'h' or 'v', 1-based index, inversion flag.

    Ordering is (side, index, inverted), so a_1 < a_1^-1 < ... and all
    horizontal letters sort before all vertical ones.
    """

    side: str
    index: int
    inverted: bool = False

    def inverse(self) -> "Letter":
        return Letter(self.side, self.index, not self.inverted)

    def __repr__(self):
        mark = "^-1" if self.inverted else ""
        return f"{self.side}{self.index}{mark}"


class Square(NamedTuple):
    """A geometric square stored as an ordered corner tuple (a, b, a2, b2)."""

    a: Letter
    b: Letter
    a2: Letter
    b2: Letter

    def forms(self):
        """The four equivalent boundary readings of this square."""
        a, b, a2, b2 = self
        return (
            Square(a, b, a2, b2),
            Square(a2, b2, a, b),
            Square(a.inverse(), b2.inverse(), a2.inverse(), b.inverse()),
            Square(a2.inverse(), b.inverse(), a.inverse(), b2.inverse()),
        )

    def corners(self):
        """The four (corner, partner) pairs contributed to the link.

        Each form (x1, x2, x3, x4) contributes the corner (x1, x2) with
        partner (x3, x4); uniqueness of partners is the link condition.
        """
        return [((f.a, f.b), (f.a2, f.b2)) for f in self.forms()]


def canonical_square(a: Letter, b: Letter, a2: Letter, b2: Letter) -> Square:
    """Canonical representative: minimum of the four equivalent forms."""
    for x, want in ((a, HORIZONTAL), (b, VERTICAL), (a2, HORIZONTAL), (b2, VERTICAL)):
        if x.side != want:
            raise ComplexError(f"letter {x!r} on the wrong side of a square")
    return min(Square(a, b, a2, b2).forms())


@dataclass(frozen=True)
class LinkReport:
    """Outcome of the link check; ok iff both failure lists are empty."""

    ok: bool
    missing_corners: tuple
    duplicate_corners: tuple  # ((a, b), (square, square, ...)) entries
    total_corners: int

    @property
    def corners_covered(self) -> int:
        return self.total_corners - len(self.missing_corners)


@dataclass(frozen=True)
class SquareComplex:
    """A one-vertex VH square complex with named generators.

    ``squares`` holds canonical forms, sorted and de-duplicated; a complex
    violating the link condition is representable (the check reports it).
    """

    name: str
    hnames: tuple
    vnames: tuple
    squares: tuple

    @classmethod
    def build(cls, name, hnames, vnames, squares) -> "SquareComplex":
        hnames = tuple(hnames)
        vnames = tuple(vnames)
        if not hnames or not vnames:
            raise ComplexError("both generator families must be nonempty")
        if len(set(hnames) | set(vnames)) != len(hnames) + len(vnames):
            raise ComplexError("generator names must be distinct")
        canon = []
        for sq in squares:
            csq = canonical_square(*sq)
            for x in csq:
                bound = len(hnames) if x.side == HORIZONTAL else len(vnames)
                if not 1 <= x.index <= bound:
                    raise ComplexError(f"letter {x!r} outside the declared alphabet")
            canon.append(csq)
        return cls(name, hnames, vnames, tuple(sorted(set(canon))))

    @property
    def m(self) -> int:
        return len(self.hnames)

    @property
    def n(self) -> int:
        return len(self.vnames)

    def horizontal_letters(self):
        """All 2m horizontal letters, plain ones first."""
        plain = [Letter(HORIZONTAL, i + 1) for i in range(self.m)]
        return plain + [x.inverse() for x in plain]

    def vertical_letters(self):
        plain = [Letter(VERTICAL, j + 1) for j in range(self.n)]
        return plain + [x.inverse() for x in plain]

    def letter_name(self, x: Letter) -> str:
        names = self.hnames if x.side == HORIZONTAL else self.vnames
        return names[x.index - 1] + ("^-1" if x.inverted else "")

    def square_text(self, sq: Square) -> str:
        return " ".join(self.letter_name(x) for x in sq)

    @cached_property
    def corner_entries(self):
        """Map corner (a, b) -> list of (partner, source square), built
        once per complex; check_link and corner_partner both read it."""
        entries = {}
        for sq in self.squares:
            for corner, partner in sq.corners():
                entries.setdefault(corner, []).append((partner, sq))
        return entries

    def corner_partner(self, a: Letter, b: Letter):
        """The unique (a', b') with a b a' b' a square boundary.

        Raises LinkError when the corner is missing or ambiguous, which is
        how a link violation surfaces lazily.
        """
        hits = self.corner_entries.get((a, b), [])
        if len(hits) != 1:
            raise LinkError(
                f"corner ({a!r}, {b!r}) occurs in {len(hits)} squares, expected 1"
            )
        return hits[0][0]


def check_link(c: SquareComplex) -> LinkReport:
    """Exact-cover check: every (a, b) in A x B in exactly one square."""
    entries = c.corner_entries
    missing = []
    duplicates = []
    for a in c.horizontal_letters():
        for b in c.vertical_letters():
            hits = entries.get((a, b), [])
            if not hits:
                missing.append((a, b))
            elif len(hits) > 1:
                duplicates.append(((a, b), tuple(sq for _, sq in hits)))
    total = 4 * c.m * c.n
    return LinkReport(
        ok=not missing and not duplicates,
        missing_corners=tuple(missing),
        duplicate_corners=tuple(duplicates),
        total_corners=total,
    )


def euler_characteristic(c: SquareComplex) -> int:
    """1 - (m + n) + mn for a link-valid complex (1 vertex, m+n loops)."""
    return 1 - (c.m + c.n) + c.m * c.n


def letters_from_names(c: SquareComplex, names: Iterable[str]):
    """Inversion-closed letter set for the given base generator names."""
    out = set()
    for name in names:
        if name in c.hnames:
            x = Letter(HORIZONTAL, c.hnames.index(name) + 1)
        elif name in c.vnames:
            x = Letter(VERTICAL, c.vnames.index(name) + 1)
        else:
            raise ComplexError(f"unknown generator {name!r}")
        out.add(x)
        out.add(x.inverse())
    return out


def check_subcomplex(c: SquareComplex, hsub, vsub):
    """Test whether a generator subset spans a link-valid subcomplex.

    ``hsub``/``vsub`` are inversion-closed, nonempty letter sets.  The
    squares of ``c`` whose four letters all lie in the subset are collected
    and re-indexed over the sub-alphabet; the result is (ok, subcomplex)
    where ok means the subcomplex satisfies the full link condition for
    (|hsub|/2, |vsub|/2).  That is the machine-checkable hypothesis under
    which the subcomplex is locally isometric, so its group includes
    injectively.
    """
    hsub = set(hsub)
    vsub = set(vsub)
    for sub, side in ((hsub, HORIZONTAL), (vsub, VERTICAL)):
        if not sub:
            raise ComplexError("subcomplex generator subsets must be nonempty")
        for x in sub:
            if x.side != side:
                raise ComplexError(f"letter {x!r} in the wrong subset")
            if x.inverse() not in sub:
                raise ComplexError(f"subset not closed under inversion at {x!r}")

    hbase = sorted({x.index for x in hsub})
    vbase = sorted({x.index for x in vsub})
    hmap = {old: new + 1 for new, old in enumerate(hbase)}
    vmap = {old: new + 1 for new, old in enumerate(vbase)}

    def remap(x: Letter) -> Letter:
        table = hmap if x.side == HORIZONTAL else vmap
        return Letter(x.side, table[x.index], x.inverted)

    inside = [
        sq for sq in c.squares if all(x in hsub or x in vsub for x in sq)
    ]
    sub = SquareComplex.build(
        c.name + "_sub",
        tuple(c.hnames[i - 1] for i in hbase),
        tuple(c.vnames[j - 1] for j in vbase),
        [Square(*(remap(x) for x in sq)) for sq in inside],
    )
    return check_link(sub).ok, sub


def parse_complex(text: str) -> SquareComplex:
    """Parse the line-oriented complex file format.

    Format: ``complex NAME``, ``horizontal a1 ... am``, ``vertical b1 ...
    bn``, then one ``square x1 x2 x3 x4`` line per square, with tokens
    optionally suffixed ``^-1``.  '#' starts a comment.
    """
    name = None
    hnames = None
    vnames = None
    squares = []

    def err(lineno, msg):
        raise ComplexError(f"line {lineno}: {msg}")

    def parse_token(lineno, tok, side):
        base, caret, exp = tok.partition("^")
        if caret and exp != "-1":
            err(lineno, f"bad exponent in {tok!r} (only ^-1 is allowed)")
        names = hnames if side == HORIZONTAL else vnames
        if base not in names:
            err(lineno, f"undeclared {'horizontal' if side == 'h' else 'vertical'} generator {base!r}")
        return Letter(side, names.index(base) + 1, bool(caret))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        if kind == "complex":
            if name is not None:
                err(lineno, "duplicate complex line")
            if len(args) != 1:
                err(lineno, "expected: complex NAME")
            name = args[0]
        elif kind == "horizontal":
            if name is None:
                err(lineno, "horizontal line before complex line")
            if not args:
                err(lineno, "at least one horizontal generator is required")
            hnames = tuple(args)
        elif kind == "vertical":
            if hnames is None:
                err(lineno, "vertical line before horizontal line")
            if not args:
                err(lineno, "at least one vertical generator is required")
            vnames = tuple(args)
        elif kind == "square":
            if vnames is None:
                err(lineno, "square line before generator declarations")
            if len(args) != 4:
                err(lineno, "expected: square X1 X2 X3 X4")
            sides = (HORIZONTAL, VERTICAL, HORIZONTAL, VERTICAL)
            squares.append(
                tuple(parse_token(lineno, tok, side) for tok, side in zip(args, sides))
            )
        else:
            err(lineno, f"unknown directive {kind!r}")

    if name is None or hnames is None or vnames is None:
        raise ComplexError("missing complex/horizontal/vertical declarations")
    return SquareComplex.build(name, hnames, vnames, squares)


def render_complex(c: SquareComplex) -> str:
    """Canonical text form; parse_complex(render_complex(c)) == c."""
    lines = [
        f"complex {c.name}",
        "horizontal " + " ".join(c.hnames),
        "vertical " + " ".join(c.vnames),
    ]
    lines += [f"square {c.square_text(sq)}" for sq in c.squares]
    return "\n".join(lines) + "\n"
