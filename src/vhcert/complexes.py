"""One-vertex VH square complexes and the link condition.

A (2m,2n)-complex has a single vertex, m horizontal loops a_1..a_m, n
vertical loops b_1..b_n, and mn geometric squares with boundary word
a b a' b' (positions 1,3 horizontal, positions 2,4 vertical).

A letter is an int, the encoding ``fpgroups`` uses for words: the
generators a_1..a_m, b_1..b_n are numbered 0..m+n-1 in that order, and
generator g gives the letter 2g and its inverse the letter 2g + 1.  So
``x ^ 1`` inverts a letter, ``x >> 1`` is its generator, x is horizontal
iff x < 2m, and the integer order is the order (side, index, inverted):
a_1 < a_1^-1 < a_2 < ... < b_n^-1.  A square's four letters are its
relator in ``presentation_from_complex``.

The four boundary readings

    (a, b, a', b')   (a', b', a, b)   (a^-1, b'^-1, a'^-1, b^-1)
    (a'^-1, b^-1, a^-1, b'^-1)

describe the same geometric square; we store the lexicographic minimum.

The link condition ("the vertex link is the complete bipartite graph
K_{2m,2n}") is checked as an exact cover: every corner pair (a, b) with
a horizontal and b vertical must occur in exactly one square.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

HORIZONTAL = "h"
VERTICAL = "v"


class ComplexError(ValueError):
    """Malformed complex description (parse or construction time)."""


class LinkError(ValueError):
    """A corner pair is missing or duplicated where uniqueness is assumed."""


class Square(NamedTuple):
    """A geometric square stored as an ordered corner tuple (a, b, a2, b2)."""

    a: int
    b: int
    a2: int
    b2: int

    def forms(self):
        """The four equivalent boundary readings of this square."""
        a, b, a2, b2 = self
        return (
            Square(a, b, a2, b2),
            Square(a2, b2, a, b),
            Square(a ^ 1, b2 ^ 1, a2 ^ 1, b ^ 1),
            Square(a2 ^ 1, b ^ 1, a ^ 1, b2 ^ 1),
        )

    def corners(self):
        """The four (corner, partner) pairs contributed to the link.

        Each form (x1, x2, x3, x4) contributes the corner (x1, x2) with
        partner (x3, x4); uniqueness of partners is the link condition.
        """
        return [((f.a, f.b), (f.a2, f.b2)) for f in self.forms()]


def canonical_square(a: int, b: int, a2: int, b2: int) -> Square:
    """Canonical representative: minimum of the four equivalent forms."""
    return min(Square(a, b, a2, b2).forms())


class LinkReport(NamedTuple):
    """Outcome of the link check; ok iff both failure lists are empty."""

    ok: bool
    missing_corners: tuple
    duplicate_corners: tuple  # ((a, b), (square, square, ...)) entries
    total_corners: int

    @property
    def corners_covered(self) -> int:
        return self.total_corners - len(self.missing_corners)


class SquareComplex:
    """A one-vertex VH square complex with named generators.

    ``squares`` holds canonical forms, sorted, with repeats kept: a square
    listed twice, in any of its readings, duplicates its four corners.  A
    complex violating the link condition is representable (the check
    reports it).
    Two complexes are equal when their names, alphabets and squares are.
    """

    def __init__(self, name: str, hnames: tuple, vnames: tuple, squares: tuple):
        self.name = name
        self.hnames = hnames
        self.vnames = vnames
        self.names = hnames + vnames  # indexed by generator number
        self.squares = squares

    def _key(self):
        return (self.name, self.hnames, self.vnames, self.squares)

    def __eq__(self, other):
        return isinstance(other, SquareComplex) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @classmethod
    def build(cls, name, hnames, vnames, squares) -> "SquareComplex":
        hnames = tuple(hnames)
        vnames = tuple(vnames)
        # a file line splits on whitespace and ends at '#'
        if not name or any(ch == "#" or ch.isspace() for ch in name):
            raise ComplexError(f"complex name {name!r} is not readable in a file "
                               "(nonempty, no '#' or whitespace)")
        if not hnames or not vnames:
            raise ComplexError("both generator families must be nonempty")
        if len(set(hnames) | set(vnames)) != len(hnames) + len(vnames):
            raise ComplexError("generator names must be distinct")
        for g in hnames + vnames:
            # a word also splits on '*' and '^' and reads a bare 1 as the
            # identity
            if not g or g == "1" or any(ch in "*^#" or ch.isspace() for ch in g):
                raise ComplexError(
                    f"generator name {g!r} is not readable in a word or a file "
                    "(nonempty, no '*', '^', '#' or whitespace, and not '1')"
                )
        canon = []
        for sq in squares:
            for x, horizontal in zip(sq, (True, False, True, False)):
                if not 0 <= x < 2 * (len(hnames) + len(vnames)):
                    raise ComplexError(f"letter {x!r} outside the declared alphabet")
                if (x < 2 * len(hnames)) != horizontal:
                    raise ComplexError(f"letter {x!r} on the wrong side of a square")
            canon.append(canonical_square(*sq))
        return cls(name, hnames, vnames, tuple(sorted(canon)))

    @property
    def m(self) -> int:
        return len(self.hnames)

    @property
    def n(self) -> int:
        return len(self.vnames)

    def side(self, x: int) -> str:
        if not 0 <= x < 2 * (self.m + self.n):
            raise ComplexError(f"letter {x!r} outside the alphabet")
        return HORIZONTAL if x < 2 * self.m else VERTICAL

    def horizontal_letters(self):
        """All 2m horizontal letters, plain ones first."""
        return [*range(0, 2 * self.m, 2), *range(1, 2 * self.m, 2)]

    def vertical_letters(self):
        """All 2n vertical letters, plain ones first."""
        lo, hi = 2 * self.m, 2 * (self.m + self.n)
        return [*range(lo, hi, 2), *range(lo + 1, hi, 2)]

    def letter_name(self, x: int) -> str:
        return self.names[x >> 1] + ("^-1" if x & 1 else "")

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

    def corner_partner(self, a: int, b: int):
        """The unique (a', b') with a b a' b' a square boundary.

        Raises LinkError when the corner is missing or ambiguous, which is
        how a link violation surfaces lazily.
        """
        hits = self.corner_entries.get((a, b), [])
        if len(hits) != 1:
            raise LinkError(
                f"corner ({self.letter_name(a)}, {self.letter_name(b)}) occurs in "
                f"{len(hits)} squares, expected 1"
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
        if name not in c.names:
            raise ComplexError(f"unknown generator {name!r}")
        g = c.names.index(name)
        out.update((2 * g, 2 * g + 1))
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
            if c.side(x) != side:
                raise ComplexError(f"letter {c.letter_name(x)} in the wrong subset")
            if x ^ 1 not in sub:
                raise ComplexError(f"subset not closed under inversion at {c.letter_name(x)}")

    # the kept generators renumbered in order, so horizontal ones stay first
    kept = sorted({x >> 1 for x in hsub | vsub})
    new = {2 * g + e: 2 * i + e for i, g in enumerate(kept) for e in (0, 1)}
    sub = SquareComplex.build(
        c.name + "_sub",
        tuple(c.names[g] for g in kept if g < c.m),
        tuple(c.names[g] for g in kept if g >= c.m),
        [[new[x] for x in sq] for sq in c.squares if all(x in new for x in sq)],
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
        names, first = (hnames, 0) if side == HORIZONTAL else (vnames, len(hnames))
        if base not in names:
            err(lineno, f"undeclared {'horizontal' if side == 'h' else 'vertical'} generator {base!r}")
        return 2 * (first + names.index(base)) + bool(caret)

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
            if hnames is not None:
                err(lineno, "duplicate horizontal line")
            if not args:
                err(lineno, "at least one horizontal generator is required")
            hnames = tuple(args)
        elif kind == "vertical":
            if hnames is None:
                err(lineno, "vertical line before horizontal line")
            if vnames is not None:
                err(lineno, "duplicate vertical line")
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
