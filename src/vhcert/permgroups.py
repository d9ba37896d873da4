"""Exact permutation groups: BSGS orders, stabilizers, transitivity,
recognition of the simple groups the certificate chain needs.

Transitivity and recognition are read off the group's own stabilizer
chain: for any base b_0, b_1, ..., G is k-transitive on d points iff
level i's orbit has d - i points for every i < k (a level past the end
of the base counts as 1), since that orbit lies among the d - i points
other than b_0..b_(i-1).  Only ``point_stabilizer`` builds a second
group, and it cross-checks the chain by the orbit-stabilizer identity.

Permutations are dense image tuples on 0..d-1 internally; cycle notation
(the only 1-based surface) is used for parsing and printing, e.g.
``(1,2)(4,5)(6,8,7)``.

Orders are computed by a deterministic Schreier-Sims run (no
randomization, base points chosen as first moved points) and are exact
Python integers, so values like 20160 * 2520**8 are handled verbatim.
"""

from __future__ import annotations

import math
import re
from collections import deque
from operator import itemgetter

from vhcert.checks import check


class PermutationError(ValueError):
    pass


def _mul(p, q):
    """Compose image tuples: apply p, then q."""
    if len(p) < 2:
        # itemgetter with one index returns a bare element, with none it raises
        return tuple(q[i] for i in p)
    return itemgetter(*p)(q)


def _inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _identity(degree):
    return tuple(range(degree))


class Permutation:
    """Bijection on d points, stored as the image tuple of 0..d-1."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise PermutationError(f"not a bijection: {images!r}")
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise PermutationError("degree mismatch")
        return Permutation(_mul(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(_inv(self.images))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def moved_points(self):
        return [i for i, j in enumerate(self.images) if i != j]

    def cycles(self):
        """Nontrivial cycles as 0-based tuples, each starting at its minimum."""
        seen = set()
        out = []
        for i in range(self.degree):
            if i in seen or self.images[i] == i:
                continue
            cyc = [i]
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen.add(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def cycle_string(self) -> str:
        """1-based disjoint-cycle notation, '()' for the identity."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(x + 1) for x in c) + ")" for c in cycs)

    __repr__ = cycle_string

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Permutation":
        """Build from 1-based cycles, e.g. [(1, 2), (4, 5)]."""
        images = list(range(degree))
        for cyc in cycles:
            pts = [x - 1 for x in cyc]
            if len(set(pts)) != len(pts):
                raise PermutationError(f"repeated point in cycle {cyc!r}")
            for x in pts:
                if not 0 <= x < degree:
                    raise PermutationError(f"point {x + 1} out of range 1..{degree}")
            for x, y in zip(pts, pts[1:] + pts[:1]):
                if images[x] != x:
                    raise PermutationError(f"point {x + 1} in two cycles")
                images[x] = y
        return cls(images)

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse 1-based cycle notation such as '(1,2)(4,5)(6,8,7)'."""
        stripped = text.replace(" ", "")
        if not re.fullmatch(r"(\(\d+(,\d+)*\))*|\(\)", stripped):
            raise PermutationError(f"cannot parse permutation {text!r}")
        cycles = [
            tuple(int(x) for x in body.split(","))
            for body in re.findall(r"\(([\d,]+)\)", stripped)
        ]
        if degree is None:
            degree = max((max(c) for c in cycles), default=0)
        return cls.from_cycles(cycles, degree)


# ---------------------------------------------------------------------------
# Schreier-Sims


def _orbit_grow(orbit, base_pt, all_gens, fresh_gens, degree):
    """Extend transversal dict pt -> (u, u_inv) by the fresh generators.

    Existing entries are never rewritten, so Schreier generators already
    sifted against them stay valid.  Returns the (pt, gen index) pairs that
    define tree edges (their Schreier generators are trivial).
    """
    tree_pairs = []
    if not orbit:
        ident = _identity(degree)
        orbit[base_pt] = (ident, ident)
    fresh_offset = len(all_gens) - len(fresh_gens)
    new_pts = deque()
    for pt in list(orbit):
        u = orbit[pt][0]
        for k, s in enumerate(fresh_gens):
            image = s[pt]
            if image not in orbit:
                v = _mul(u, s)
                orbit[image] = (v, _inv(v))
                new_pts.append(image)
                tree_pairs.append((pt, fresh_offset + k))
    while new_pts:
        pt = new_pts.popleft()
        u = orbit[pt][0]
        for k, s in enumerate(all_gens):
            image = s[pt]
            if image not in orbit:
                v = _mul(u, s)
                orbit[image] = (v, _inv(v))
                new_pts.append(image)
                tree_pairs.append((pt, k))
    return tree_pairs


class _Level:
    __slots__ = ("gens", "orbit", "done")

    def __init__(self):
        self.gens = []
        self.orbit = {}
        self.done = set()  # (orbit point, generator index) pairs verified


def _schreier_sims(raw_gens, degree):
    """Deterministic Schreier-Sims; returns (base, levels)."""
    ident = _identity(degree)
    base = []
    levels = []

    def new_base_point(g):
        for x in range(degree):
            if g[x] != x:
                base.append(x)
                levels.append(_Level())
                return

    def add_at(level_idx, g):
        lvl = levels[level_idx]
        lvl.gens.append(g)
        for pair in _orbit_grow(lvl.orbit, base[level_idx], lvl.gens, [g], degree):
            lvl.done.add(pair)

    def sift(g, start):
        for l in range(start, len(base)):
            entry = levels[l].orbit.get(g[base[l]])
            if entry is None:
                return g, l
            g = _mul(g, entry[1])
        return g, len(base)

    seen = set()
    for g in raw_gens:
        if g == ident or g in seen:
            continue
        seen.add(g)
        lev = next(
            (l for l in range(len(base)) if g[base[l]] != base[l]), None
        )
        if lev is None:
            new_base_point(g)
            lev = len(base) - 1
        for l in range(lev + 1):
            add_at(l, g)

    def find_residue(level_idx):
        lvl = levels[level_idx]
        for pt in list(lvl.orbit):
            u = lvl.orbit[pt][0]
            for k, s in enumerate(lvl.gens):
                if (pt, k) in lvl.done:
                    continue
                schreier = _mul(_mul(u, s), lvl.orbit[s[pt]][1])
                if schreier == ident:
                    lvl.done.add((pt, k))
                    continue
                h, j = sift(schreier, level_idx + 1)
                if h == ident:
                    lvl.done.add((pt, k))
                    continue
                return h, j
        return None

    i = len(base) - 1
    while i >= 0:
        found = find_residue(i)
        if found is None:
            i -= 1
            continue
        h, j = found
        if j == len(base):
            new_base_point(h)
        for l in range(i + 1, j + 1):
            add_at(l, h)
        i = j

    return base, levels


def _orbit_transversal(gens, start, degree):
    """Plain orbit of ``start`` with transversal perms u (u[start] = pt)."""
    orbit = {start: _identity(degree)}
    queue = deque([start])
    while queue:
        pt = queue.popleft()
        u = orbit[pt]
        for s in gens:
            image = s[pt]
            if image not in orbit:
                orbit[image] = _mul(u, s)
                queue.append(image)
    return orbit


class PermGroup:
    """Permutation group with base, strong generating set and exact order."""

    def __init__(self, generators, degree: int | None = None):
        generators = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
        if degree is None:
            if not generators:
                raise PermutationError("degree required for the trivial group")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise PermutationError("generators of mixed degree")
        self.degree = degree
        self.generators = tuple(generators)
        self._base, self._levels = _schreier_sims(
            [g.images for g in generators], degree
        )
        order = 1
        for lvl in self._levels:
            order *= len(lvl.orbit)
        self.order = order

    def __contains__(self, perm: Permutation) -> bool:
        if perm.degree != self.degree:
            return False
        g = perm.images
        for l, pt in enumerate(self._base):
            entry = self._levels[l].orbit.get(g[pt])
            if entry is None:
                return False
            g = _mul(g, entry[1])
        return g == _identity(self.degree)

    def orbit(self, point: int):
        """Orbit of a point under the whole group, in discovery order."""
        gens = [g.images for g in self.generators]
        return list(_orbit_transversal(gens, point, self.degree))

    def is_abelian(self) -> bool:
        gens = [g.images for g in self.generators]
        return all(
            _mul(p, q) == _mul(q, p) for i, p in enumerate(gens) for q in gens[i + 1:]
        )

    def elements(self):
        """Full element list via breadth-first closure (deterministic order)."""
        ident = _identity(self.degree)
        gens = [g.images for g in self.generators]
        seen = {ident}
        out = [ident]
        queue = deque([ident])
        while queue:
            p = queue.popleft()
            for s in gens:
                q = _mul(p, s)
                if q not in seen:
                    seen.add(q)
                    out.append(q)
                    queue.append(q)
        return [Permutation(p) for p in out]


def bsgs_build(generators, degree: int | None = None) -> PermGroup:
    """Group from generators; the order is exact (arbitrary precision)."""
    return PermGroup(generators, degree)


def point_stabilizer(group: PermGroup, point: int) -> PermGroup:
    """Stabilizer of a point, generated by its Schreier generators."""
    gens = [g.images for g in group.generators]
    degree = group.degree
    orbit = _orbit_transversal(gens, point, degree)
    inv = {pt: _inv(u) for pt, u in orbit.items()}
    ident = _identity(degree)
    schreier = []
    seen = set()
    for pt, u in orbit.items():
        for s in gens:
            g = _mul(_mul(u, s), inv[s[pt]])
            if g != ident and g not in seen:
                seen.add(g)
                schreier.append(g)
    stab = PermGroup([Permutation(g) for g in schreier] or [], degree=degree)
    check(stab.order * len(orbit) == group.order,
          "stabilizer order breaks the orbit-stabilizer identity")
    return stab


def _transitive_along_chain(group: PermGroup, k: int, points: int) -> bool:
    """The chain test of the module docstring, on ``points`` points."""
    sizes = [len(lvl.orbit) for lvl in group._levels] + [1] * k
    return all(sizes[i] == points - i for i in range(k))


def is_k_transitive(group: PermGroup, k: int) -> bool:
    """Transitivity on ordered k-tuples, read off the group's own BSGS.

    G is k-transitive on d points iff, for every i < k, level i's orbit
    has d - i points (HEO ch. 4); no stabilizer is built.
    """
    if k > group.degree:
        raise PermutationError(f"k={k} exceeds degree {group.degree}")
    return _transitive_along_chain(group, k, group.degree)


def recognize(group: PermGroup) -> str:
    """Identify the group on its d moved points.

    Returns 'Alt(d)', 'Sym(d)', 'M11', 'M12' or 'other(<order>)'.  Alt/Sym
    use the order plus generator parity; M11 and M12 the exact orders and
    sharp transitivity degrees.  Base points are moved points and every
    level orbit stays among them, so the chain test with d points in place
    of the degree decides transitivity on the moved points: no restricted
    copy of the group is built.
    """
    dm = len({p for g in group.generators for p in g.moved_points()})
    if not dm:
        return "other(1)"
    order = group.order
    if order == math.factorial(dm):
        return f"Sym({dm})"
    if order == math.factorial(dm) // 2 and all(g.is_even() for g in group.generators):
        return f"Alt({dm})"
    if dm == 12 and order == 95040 and _transitive_along_chain(group, 5, dm):
        return "M12"
    if dm == 11 and order == 7920 and _transitive_along_chain(group, 4, dm):
        return "M11"
    return f"other({order})"


def conjugacy_class_reps(group: PermGroup, elements=None):
    """Non-identity class representatives, in element discovery order."""
    if elements is None:
        elements = group.elements()
    gens = [g.images for g in group.generators]
    ident = _identity(group.degree)
    seen = {ident}
    reps = []
    for e in elements:
        e = e.images
        if e in seen:
            continue
        reps.append(Permutation(e))
        block = {e}
        queue = deque([e])
        while queue:
            x = queue.popleft()
            for s in gens:
                y = _mul(_mul(_inv(s), x), s)
                if y not in block:
                    block.add(y)
                    queue.append(y)
        seen |= block
    return reps


def normal_closure(group: PermGroup, element: Permutation) -> PermGroup:
    """Smallest normal subgroup of ``group`` containing ``element``."""
    gens = [g.images for g in group.generators]
    closure_gens = [element.images]
    closed = PermGroup([element], degree=group.degree)
    while True:
        grew = False
        for h in list(closure_gens):
            for s in gens:
                conj = _mul(_mul(_inv(s), h), s)
                if Permutation(conj) not in closed:
                    closure_gens.append(conj)
                    closed = PermGroup(
                        [Permutation(g) for g in closure_gens], degree=group.degree
                    )
                    grew = True
        if not grew:
            return closed


# Largest order the brute-force simplicity check will enumerate.
SIMPLICITY_BOUND = 100_000


def brute_simplicity(group: PermGroup, bound: int = SIMPLICITY_BOUND):
    """Exhaustive simplicity check for groups of order at most ``bound``.

    Returns ('simple', None), ('not_simple', witness) with the witness an
    element whose normal closure is proper, or ('unknown', None) when the
    order exceeds the bound.  The trivial group counts as not simple.
    """
    if group.order > bound:
        return "unknown", None
    if group.order == 1:
        return "not_simple", None
    elements = group.elements()
    for rep in conjugacy_class_reps(group, elements):
        if normal_closure(group, rep).order < group.order:
            return "not_simple", rep
    return "simple", None


def is_whitelisted_nonabelian_simple(group: PermGroup, bound: int = SIMPLICITY_BOUND):
    """True / False / None ('unknown') nonabelian-simplicity verdict.

    Recognition covers Alt(d) for d >= 5, M11 and M12; abelian groups are
    rejected directly; anything else falls back to the brute-force check
    when the order fits under ``bound`` and is otherwise undecided (None).
    """
    return recognized_simplicity(group, recognize(group), bound)


def recognized_simplicity(group: PermGroup, name: str, bound: int):
    """The same verdict for a group that ``recognize`` already named."""
    if group.is_abelian():
        return False
    if name in ("M11", "M12"):
        return True
    match = re.fullmatch(r"Alt\((\d+)\)", name)
    if match:
        return int(match.group(1)) >= 5
    if name.startswith("Sym("):
        return False
    verdict, _ = brute_simplicity(group, bound)
    if verdict == "unknown":
        return None
    return verdict == "simple"
