"""Finitely presented groups: words, presentations, the index-4 parity
homomorphism, and abelianization via exact Smith normal form.

Words are freely reduced tuples of (generator id, +-1); relators are
additionally cyclically reduced.  All matrix arithmetic is plain Python
integers, so invariant factors are exact whatever their size.
"""

from __future__ import annotations

from vhcert.checks import check
from vhcert.complexes import HORIZONTAL, SquareComplex


# Words are expanded letter by letter, so ``a1^N`` costs memory linear in N;
# longer words are refused before they are expanded.
MAX_WORD_LENGTH = 100_000


class WordError(ValueError):
    pass


def free_reduce(letters):
    """Cancel adjacent inverse pairs; idempotent."""
    out = []
    for g, e in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def cyclic_reduce(word):
    word = list(free_reduce(word))
    while len(word) >= 2 and word[0][0] == word[-1][0] and word[0][1] == -word[-1][1]:
        word = word[1:-1]
    return tuple(word)


def invert_word(word):
    return tuple((g, -e) for g, e in reversed(word))


def concat(*words):
    out = []
    for w in words:
        out.extend(w)
    return free_reduce(out)


class Presentation:
    """Group presentation over named generators.

    ``sides`` records, for presentations exported from a complex, which
    generators are horizontal ('h') and which vertical ('v'); it is None
    for hand-built presentations.
    """

    def __init__(self, generators: tuple, relators: tuple, sides: tuple | None = None):
        for rel in relators:
            if rel != cyclic_reduce(rel):
                raise WordError(f"relator {rel!r} is not cyclically reduced")
            for g, e in rel:
                if not 0 <= g < len(generators) or e not in (1, -1):
                    raise WordError(f"bad letter ({g}, {e}) in relator")
        self.generators = generators
        self.relators = relators
        self.sides = sides

    def _key(self):
        return (self.generators, self.relators, self.sides)

    def __eq__(self, other):
        return isinstance(other, Presentation) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @classmethod
    def build(cls, generators, relators, sides=None):
        return cls(
            tuple(generators),
            tuple(cyclic_reduce(r) for r in relators),
            None if sides is None else tuple(sides),
        )

    def word_to_string(self, word) -> str:
        if not word:
            return "1"
        return "*".join(
            self.generators[g] + ("^-1" if e < 0 else "") for g, e in word
        )

    def parse_word(self, text: str):
        """Parse word syntax like ``a2*a1^-1*a3*a4^-1`` (also ``a1^3``).

        A word longer than ``MAX_WORD_LENGTH`` letters, counted before free
        reduction, is refused with ``WordError`` before it is expanded.
        """
        text = text.strip()
        if text in ("", "1"):
            return ()
        powers = []
        for token in text.split("*"):
            base, caret, exp = token.strip().partition("^")
            if base not in self.generators:
                raise WordError(f"unknown generator {base!r}")
            try:
                power = int(exp) if caret else 1
            except ValueError:
                raise WordError(f"bad exponent in token {token!r}") from None
            powers.append((self.generators.index(base), power))
        length = sum(abs(power) for _, power in powers)
        if length > MAX_WORD_LENGTH:
            raise WordError(
                f"word has {length} letters, more than the limit of {MAX_WORD_LENGTH}"
            )
        return free_reduce(
            (g, 1 if power > 0 else -1) for g, power in powers for _ in range(abs(power))
        )

    def __str__(self):
        rels = ", ".join(self.word_to_string(r) for r in self.relators)
        return f"< {', '.join(self.generators)} | {rels} >"

    def total_length(self) -> int:
        return sum(len(r) for r in self.relators)


def presentation_from_complex(c: SquareComplex) -> Presentation:
    """m + n generators and one length-4 relator a b a' b' per square."""

    def letter_id(x):
        return x.index - 1 if x.side == HORIZONTAL else c.m + x.index - 1

    relators = [
        tuple((letter_id(x), -1 if x.inverted else 1) for x in sq)
        for sq in c.squares
    ]
    return Presentation.build(
        c.hnames + c.vnames,
        relators,
        sides=(HORIZONTAL,) * c.m + ("v",) * c.n,
    )


class ParityHom:
    """The surjection onto Z/2 x Z/2 sending horizontal generators to
    (1, 0) and vertical generators to (0, 1); its kernel has index 4."""

    def __init__(self, presentation: Presentation):
        if presentation.sides is None:
            raise WordError("generator without side information")
        self.presentation = presentation
        self.images = tuple((1, 0) if s == HORIZONTAL else (0, 1) for s in presentation.sides)
        for rel in presentation.relators:
            if self.image(rel) != (0, 0):
                raise WordError(f"relator {rel!r} is not in the parity kernel")

    def image(self, word):
        x = y = 0
        for g, e in word:
            dx, dy = self.images[g]
            x += dx * e
            y += dy * e
        return (x % 2, y % 2)

    def in_kernel(self, word) -> bool:
        """A word lies in the kernel iff both exponent sums are even."""
        return self.image(word) == (0, 0)


def index4_hom(p: Presentation) -> ParityHom:
    return ParityHom(p)


# ---------------------------------------------------------------------------
# Smith normal form


def _mat_mul(a, b):
    cols = len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


def _eye(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def determinant(matrix) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def smith_normal_form(matrix):
    """Invariant factors and unimodular transforms with M = U * D * V.

    Pivoting always picks the minimum nonzero absolute entry of the
    remaining block (ties row-major), which keeps the run deterministic;
    the divisibility repair step guarantees d1 | d2 | ... directly.
    Returns (factors, U, V) with the factors positive.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    d = [list(map(int, row)) for row in matrix]
    u = _eye(rows)
    v = _eye(cols)

    # Row op on D is matched by the inverse column op on U (M = U*D*V),
    # column ops on D by inverse row ops on V.
    def row_add(i, j, k):  # row_i += k * row_j
        for t in range(cols):
            d[i][t] += k * d[j][t]
        for t in range(rows):
            u[t][j] -= k * u[t][i]

    def col_add(i, j, k):  # col_i += k * col_j
        for t in range(rows):
            d[t][i] += k * d[t][j]
        for t in range(cols):
            v[j][t] -= k * v[i][t]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        for t in range(rows):
            u[t][i], u[t][j] = u[t][j], u[t][i]

    def col_swap(i, j):
        for t in range(rows):
            d[t][i], d[t][j] = d[t][j], d[t][i]
        v[i], v[j] = v[j], v[i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        for t in range(rows):
            u[t][i] = -u[t][i]

    factors = []
    for t in range(min(rows, cols)):
        while True:
            pivot = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if d[i][j] and (pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    row_add(i, t, -(d[i][t] // d[t][t]))
                    dirty = dirty or bool(d[i][t])
            for j in range(t + 1, cols):
                if d[t][j]:
                    col_add(j, t, -(d[t][j] // d[t][t]))
                    dirty = dirty or bool(d[t][j])
            if dirty:
                continue
            offender = next(
                (
                    (i, j)
                    for i in range(t + 1, rows)
                    for j in range(t + 1, cols)
                    if d[i][j] % d[t][t]
                ),
                None,
            )
            if offender is None:
                break
            row_add(t, offender[0], 1)
        if d[t][t] == 0:
            break
        if d[t][t] < 0:
            row_negate(t)
        factors.append(d[t][t])

    full = [[factors[i] if i == j and i < len(factors) else 0 for j in range(cols)] for i in range(rows)]
    check(_mat_mul(u, _mat_mul(full, v)) == [list(map(int, row)) for row in matrix],
          "smith normal form transforms do not reproduce the input")
    return factors, u, v


class AbelianInvariants:
    """Free rank plus the torsion divisibility chain d1 | d2 | ... (> 1)."""

    def __init__(self, free_rank: int, torsion: tuple):
        check(all(b % a == 0 for a, b in zip(torsion, torsion[1:])),
              "torsion coefficients must form a divisor chain")
        check(all(t > 1 for t in torsion), "torsion coefficients must exceed 1")
        self.free_rank = free_rank
        self.torsion = torsion

    def _key(self):
        return (self.free_rank, self.torsion)

    def __eq__(self, other):
        return isinstance(other, AbelianInvariants) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = [f"Z/{t}" for t in self.torsion]
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        return " x ".join(parts) if parts else "trivial"


def relator_matrix(p: Presentation):
    """Exponent-sum matrix: one row per relator, one column per generator."""
    matrix = []
    for rel in p.relators:
        row = [0] * len(p.generators)
        for g, e in rel:
            row[g] += e
        matrix.append(row)
    return matrix


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariants of the abelianized group, from the SNF of the relator
    exponent matrix; free rank = #generators - rank."""
    factors, _, _ = smith_normal_form(relator_matrix(p))
    return AbelianInvariants(
        free_rank=len(p.generators) - len(factors),
        torsion=tuple(t for t in factors if t > 1),
    )
