"""Exact permutation groups: BSGS orders, stabilizers, transitivity,
recognition of the simple groups the certificate chain needs.

Elements are image tuples of 0..d-1 throughout.  ``PermGroup(...)`` and
``x in group`` also take a ``Permutation`` or an image sequence and
validate it; everything stored or returned is an image tuple.
``Permutation`` is for parsing, printing and user-side arithmetic; its
cycle notation, e.g. ``(1,2)(4,5)(6,8,7)``, is the only 1-based surface.
One orbit routine (``_orbit_grow``) builds every transversal, one
``_sift`` serves Schreier-Sims, membership and ``normal_closure``, and one
insertion routine (``_insert``) adds every strong generator, and opens
every level, of every chain.  The (point, generator) pairs already
verified are bookkeeping of the deterministic run alone.

Transitivity and recognition are read off the group's own stabilizer
chain: for any base b_0, b_1, ..., G is k-transitive on d points iff
level i's orbit has d - i points for every i < k (a level past the end
of the base counts as 1), since that orbit lies among the d - i points
other than b_0..b_(i-1).  Only ``point_stabilizer`` builds a second
group, and it cross-checks the chain by the orbit-stabilizer identity.

Orders are exact Python integers, so values like 20160 * 2520**8 are
handled verbatim.  By default the chain comes from a deterministic
Schreier-Sims run (base points chosen as first moved points).  A caller
that knows a proven upper bound on the order passes it as
``order_bound``; then a seeded random Schreier-Sims run sifts
product-replacement elements into the chain and stops as soon as the
product of the basic orbit lengths equals the bound.  Every generator
of level i fixes b_0..b_(i-1), so level i's orbit lies in the orbit of
b_i under the pointwise stabilizer G_i of b_0..b_(i-1); with r base
points, |G| = |G_r| * prod |b_i^(G_i)| >= prod |level i's orbit|
(HEO ch. 4).  Once that lower bound meets the upper bound, every level
orbit is a full basic orbit and G_r is trivial: the order is exact and the
chain is a complete BSGS, so membership, orbits, transitivity and
recognition stay exact.  A product above the bound raises
``VerificationError``.  If ``STALL_SIFTS`` consecutive random elements
sift to the identity first, the group is built by the deterministic run,
so its chain is the same as without a bound.
"""

from __future__ import annotations

import itertools
import math
import random
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


def _cycles(images):
    """Nontrivial cycles as 0-based tuples, each starting at its minimum."""
    seen = set()
    out = []
    for i, j in enumerate(images):
        if i in seen or j == i:
            continue
        cyc = [i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = images[j]
        out.append(tuple(cyc))
    return out


def _images(g):
    """The image tuple of a Permutation or image sequence, validated."""
    return (g if isinstance(g, Permutation) else Permutation(g)).images


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

    def cycles(self):
        """Nontrivial cycles as 0-based tuples, each starting at its minimum."""
        return _cycles(self.images)

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


def _orbit_grow(orbit, base_pt, gens, fresh, degree):
    """Extend transversal dict pt -> (u, u_inv) by the last ``fresh`` of
    ``gens``, breadth first: known points meet only the fresh generators,
    new points all of them.

    Existing entries are never rewritten, so Schreier generators already
    sifted against them stay valid.
    """
    if not orbit:
        ident = _identity(degree)
        orbit[base_pt] = (ident, ident)
    elif all(orbit.keys() >= set(map(s.__getitem__, orbit)) for s in gens[-fresh:]):
        return  # the fresh generators map the orbit into itself
    queue = deque((pt, len(gens) - fresh) for pt in orbit)
    while queue:
        pt, first = queue.popleft()
        u = orbit[pt][0]
        for s in gens[first:]:
            image = s[pt]
            if image not in orbit:
                v = _mul(u, s)
                orbit[image] = (v, _inv(v))
                queue.append((image, 0))


def _sift(g, base, levels, start=0):
    """Strip ``g`` through levels ``start``.. of a chain; returns the residue
    and the level where it left the orbits (``len(base)`` if it never did)."""
    for l in range(start, len(base)):
        entry = levels[l].orbit.get(g[base[l]])
        if entry is None:
            return g, l
        g = _mul(g, entry[1])
    return g, len(base)


class _Level:
    __slots__ = ("gens", "orbit")

    def __init__(self):
        self.gens = []
        self.orbit = {}


def _insert(base, levels, g, lo, j):
    """Add the strong generator ``g``, which fixes b_0..b_(j-1), to levels
    lo..j and grow their orbits; a chain of only j levels first gets level
    j, based at the first point ``g`` moves."""
    if j == len(base):
        base.append(next(x for x, y in enumerate(g) if y != x))
        levels.append(_Level())
    for l in range(lo, j + 1):
        levels[l].gens.append(g)
        _orbit_grow(levels[l].orbit, base[l], levels[l].gens, 1, len(g))


def _initial_chain(raw_gens, degree):
    """(base, levels) of the input generators alone: each distinct
    non-identity generator joins every level up to the first base point it
    moves, so level 0 holds them all."""
    ident = _identity(degree)
    base = []
    levels = []
    for g in dict.fromkeys(raw_gens):
        if g != ident:
            j = next((l for l, b in enumerate(base) if g[b] != b), len(base))
            _insert(base, levels, g, 0, j)
    return base, levels


def _schreier_sims(raw_gens, degree):
    """Deterministic Schreier-Sims; returns (base, levels)."""
    ident = _identity(degree)
    base, levels = _initial_chain(raw_gens, degree)
    done = {}  # level -> (orbit point, generator index) pairs verified

    def find_residue(level_idx):
        lvl = levels[level_idx]
        verified = done.setdefault(level_idx, set())
        for pt in list(lvl.orbit):
            u = lvl.orbit[pt][0]
            for k, s in enumerate(lvl.gens):
                if (pt, k) in verified:
                    continue
                schreier = _mul(_mul(u, s), lvl.orbit[s[pt]][1])
                if schreier == ident:
                    verified.add((pt, k))
                    continue
                h, j = _sift(schreier, base, levels, level_idx + 1)
                if h == ident:
                    verified.add((pt, k))
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
        _insert(base, levels, h, i + 1, j)
        i = j

    return base, levels


# The random phase: product-replacement slots, scrambling steps before
# the first element is used, the fixed seed, and the run of consecutive
# sifts to the identity after which it gives up on reaching the bound.
_PR_SLOTS = 10
_PR_SCRAMBLE = 50
_RANDOM_SEED = 1
STALL_SIFTS = 50


def _random_elements(gens, rng):
    """Product replacement with an accumulator (HEO ch. 3): an endless
    stream of elements of <gens>, nearly uniform after scrambling."""
    slots = [gens[i % len(gens)] for i in range(max(_PR_SLOTS, len(gens)))]
    acc = slots[0]
    for step in itertools.count(-_PR_SCRAMBLE):
        s, t = rng.sample(range(len(slots)), 2)
        if rng.getrandbits(1):
            slots[s] = _mul(slots[s], slots[t])
        else:
            slots[s] = _mul(slots[t], slots[s])
        acc = _mul(acc, slots[s])
        if step >= 0:
            yield acc


def _bounded_schreier_sims(raw_gens, degree, order_bound):
    """Seeded random Schreier-Sims up to ``order_bound``; returns
    (base, levels) once the product of the level orbit lengths reaches the
    bound, or None after ``STALL_SIFTS`` consecutive sifts to the identity.

    Level 0 of the initial chain holds every generator, so its orbit is the
    whole orbit of b_0.  A residue that leaves the chain at level j fixes
    b_0..b_(j-1), so it may join any of levels 1..j; it joins them all,
    which lets the lower orbits grow too.
    """
    base, levels = _initial_chain(raw_gens, degree)
    if not base:
        return None
    ident = _identity(degree)
    order = math.prod(len(lvl.orbit) for lvl in levels)
    stream = _random_elements(levels[0].gens, random.Random(_RANDOM_SEED))
    quiet = 0
    while order < order_bound and quiet < STALL_SIFTS:
        h, j = _sift(next(stream), base, levels)
        if h == ident:
            quiet += 1
            continue
        quiet = 0
        _insert(base, levels, h, 1, j)
        order = math.prod(len(lvl.orbit) for lvl in levels)
    return (base, levels) if order >= order_bound else None


def _transversal(group, point):
    """Orbit of ``point`` under the group's generators as pt -> (u, u_inv)."""
    if not 0 <= point < group.degree:
        raise PermutationError(f"point {point} out of range 0..{group.degree - 1}")
    orbit = {}
    gens = group.generators
    _orbit_grow(orbit, point, gens, len(gens), group.degree)
    return orbit


class PermGroup:
    """Permutation group with base, strong generating set and exact order.

    ``generators`` keeps every input generator as an image tuple, in input
    order, identities and repeats included.

    ``order_bound``, if given, is a proven upper bound on the order; the
    chain is then built by the random phase of the module docstring, and
    an order above the bound raises ``VerificationError``.  A bound below
    the true order is a caller error that cannot always be detected: the
    random phase may stop on a partial chain whose product happens to
    equal it.  So only ``local_actions.depth_order_bound``, whose bound is
    proven, supplies one.
    """

    def __init__(self, generators, degree: int | None = None, *,
                 order_bound: int | None = None):
        generators = tuple(_images(g) for g in generators)
        if degree is None:
            if not generators:
                raise PermutationError("degree required for the trivial group")
            degree = len(generators[0])
        if any(len(g) != degree for g in generators):
            raise PermutationError("generators of mixed degree")
        self.degree = degree
        self.generators = generators
        chain = None
        if order_bound is not None:
            chain = _bounded_schreier_sims(generators, degree, order_bound)
        self._base, self._levels = chain or _schreier_sims(generators, degree)
        self.order = math.prod(len(lvl.orbit) for lvl in self._levels)
        check(order_bound is None or self.order <= order_bound,
              f"group order {self.order} exceeds the proven bound {order_bound}")

    def __contains__(self, perm) -> bool:
        g = _images(perm)
        return (len(g) == self.degree
                and _sift(g, self._base, self._levels)[0] == _identity(self.degree))

    def orbit(self, point: int):
        """Orbit of a point under the whole group, in discovery order."""
        return list(_transversal(self, point))

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            _mul(p, q) == _mul(q, p) for i, p in enumerate(gens) for q in gens[i + 1:]
        )

    def elements(self):
        """All elements as image tuples, in breadth-first (deterministic) order."""
        ident = _identity(self.degree)
        seen = {ident}
        out = [ident]
        queue = deque([ident])
        while queue:
            p = queue.popleft()
            for s in self.generators:
                q = _mul(p, s)
                if q not in seen:
                    seen.add(q)
                    out.append(q)
                    queue.append(q)
        return out


def bsgs_build(generators, degree: int | None = None, *,
               order_bound: int | None = None) -> PermGroup:
    """Group from generators; the order is exact (arbitrary precision)."""
    return PermGroup(generators, degree, order_bound=order_bound)


def point_stabilizer(group: PermGroup, point: int) -> PermGroup:
    """Stabilizer of a point, generated by its Schreier generators."""
    orbit = _transversal(group, point)
    ident = _identity(group.degree)
    schreier = []
    seen = set()
    for pt, (u, _) in orbit.items():
        for s in group.generators:
            g = _mul(_mul(u, s), orbit[s[pt]][1])
            if g != ident and g not in seen:
                seen.add(g)
                schreier.append(g)
    stab = PermGroup(schreier, degree=group.degree)
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
    if not 0 <= k <= group.degree:
        raise PermutationError(f"k={k} outside 0..{group.degree}")
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
    cycles = [_cycles(g) for g in group.generators]
    dm = len({p for cs in cycles for c in cs for p in c})
    if not dm:
        return "other(1)"
    order = group.order
    if order == math.factorial(dm):
        return f"Sym({dm})"
    if order == math.factorial(dm) // 2 and all(
        sum(len(c) - 1 for c in cs) % 2 == 0 for cs in cycles
    ):
        return f"Alt({dm})"
    if dm == 12 and order == 95040 and _transitive_along_chain(group, 5, dm):
        return "M12"
    if dm == 11 and order == 7920 and _transitive_along_chain(group, 4, dm):
        return "M11"
    return f"other({order})"


def conjugacy_class_reps(group: PermGroup):
    """Non-identity class representatives, in element discovery order."""
    ident = _identity(group.degree)
    seen = {ident}
    reps = []
    for e in group.elements():
        if e in seen:
            continue
        reps.append(e)
        block = {e}
        queue = deque([e])
        while queue:
            x = queue.popleft()
            for s in group.generators:
                y = _mul(_mul(_inv(s), x), s)
                if y not in block:
                    block.add(y)
                    queue.append(y)
        seen |= block
    return reps


def normal_closure(group: PermGroup, element) -> PermGroup:
    """Smallest normal subgroup of ``group`` containing ``element``."""
    closed = PermGroup([element], degree=group.degree)
    closure_gens = list(closed.generators)
    ident = _identity(group.degree)
    while True:
        grew = False
        for h in list(closure_gens):
            for s in group.generators:
                conj = _mul(_mul(_inv(s), h), s)
                if _sift(conj, closed._base, closed._levels)[0] != ident:
                    closure_gens.append(conj)
                    closed = PermGroup(closure_gens, degree=group.degree)
                    grew = True
        if not grew:
            return closed


# Largest order the brute-force simplicity check will enumerate.
SIMPLICITY_BOUND = 100_000


def brute_simplicity(group: PermGroup):
    """Exhaustive simplicity check for groups of order at most
    ``SIMPLICITY_BOUND``.

    Returns ('simple', None), ('not_simple', witness) with the witness an
    element (an image tuple) whose normal closure is proper, or
    ('unknown', None) when the order exceeds the bound.  The trivial group
    counts as not simple.
    """
    if group.order > SIMPLICITY_BOUND:
        return "unknown", None
    if group.order == 1:
        return "not_simple", None
    for rep in conjugacy_class_reps(group):
        if normal_closure(group, rep).order < group.order:
            return "not_simple", rep
    return "simple", None


def is_whitelisted_nonabelian_simple(group: PermGroup):
    """True / False / None ('unknown') nonabelian-simplicity verdict.

    Recognition covers Alt(d) for d >= 5, M11 and M12; abelian groups are
    rejected directly; anything else falls back to the brute-force check
    when the order fits under ``SIMPLICITY_BOUND`` and is otherwise
    undecided (None).
    """
    return recognized_simplicity(group, recognize(group))


def recognized_simplicity(group: PermGroup, name: str):
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
    verdict, _ = brute_simplicity(group)
    if verdict == "unknown":
        return None
    return verdict == "simple"
