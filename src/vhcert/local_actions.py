"""Local permutation actions of a VH complex on tree spheres.

A horizontal letter a fixes the base vertex of the vertical tree; the
unique square a b a' b' rewrites to a b = b'^-1 a'^-1, so a carries the
b-neighbour to the b'^-1-neighbour and continues one level deeper as
a'^-1.  ``local_perm`` reads that depth-1 map plus residual letter for
either side; it determines the action on every k-sphere one letter at a
time, and the groups these actions generate are the local groups of the
complex (vertical side generated by a_1..a_m, horizontal side by
b_1..b_n, acting on reduced words of the other side).  ``local_group``
is their one builder, and it proves every order from depth 2 on.
Letters are the ints of ``complexes``, so ``x ^ 1`` is the inverse of x.
"""

from __future__ import annotations

from vhcert.checks import check
from vhcert.complexes import HORIZONTAL, VERTICAL, SquareComplex
from vhcert.permgroups import PermGroup, Permutation

# Sphere sizes grow as d*(d-1)**(k-1); nothing in the certificate chain
# needs depth beyond 2.
DEFAULT_MAX_DEPTH = 3


class LocalPerm:
    """Depth-1 action of one letter on the opposite side's letters."""

    def __init__(self, c: SquareComplex, actor: int, depth1: dict, residual: dict):
        values = list(depth1.values())
        check(len(set(values)) == len(values), "depth-1 map is not a bijection")
        check(all(c.side(r) == c.side(actor) for r in residual.values()),
              "a residual letter is not on the actor's side")
        self.actor = actor
        self.depth1 = depth1
        self.residual = residual


def local_perm(c: SquareComplex, x: int) -> LocalPerm:
    """Depth-1 action of the letter x on the letters of the other side.

    A horizontal x reads a square a b a' b' as x y = y'^-1 x'^-1 from the
    corner (x, y), whose partner is (x', y').  A vertical x reads the
    rotated boundary b a' b' a as x y = a^-1 b'^-1 from the corner
    (y^-1, x^-1) of the square a x y b', whose partner is (a^-1, b'^-1).
    Either way y goes to the first letter on the right and x continues as
    the second.
    """
    depth1 = {}
    residual = {}
    if c.side(x) == HORIZONTAL:
        for y in c.vertical_letters():
            x2, y2 = c.corner_partner(x, y)
            depth1[y], residual[y] = y2 ^ 1, x2 ^ 1
    else:
        for y in c.horizontal_letters():
            depth1[y], residual[y] = c.corner_partner(y ^ 1, x ^ 1)
    return LocalPerm(c, x, depth1, residual)


def vertical_local_perm(c: SquareComplex, a: int) -> LocalPerm:
    """Action of a horizontal letter on the 2n vertical letters."""
    if c.side(a) != HORIZONTAL:
        raise ValueError(f"{c.letter_name(a)} is not horizontal")
    return local_perm(c, a)


def horizontal_local_perm(c: SquareComplex, b: int) -> LocalPerm:
    """Action of a vertical letter on the 2m horizontal letters."""
    if c.side(b) != VERTICAL:
        raise ValueError(f"{c.letter_name(b)} is not vertical")
    return local_perm(c, b)


class SphereIndex:
    """Ordered enumeration of the reduced words x1..xk over one side.

    The letter order is plain letters ascending followed by inverted
    letters ascending (b1 < b2 < ... < b1^-1 < ...), which fixes the point
    labels of every printed sphere permutation.  ``actions`` holds the
    depth-1 action of every letter of the other side, from which each
    sphere_action on this sphere is computed; it is built once per sphere.
    """

    def __init__(self, c: SquareComplex, side: str, depth: int):
        if depth < 1:
            raise ValueError("sphere depth must be >= 1")
        if depth > DEFAULT_MAX_DEPTH:
            raise ValueError(f"sphere depth {depth} exceeds the cap {DEFAULT_MAX_DEPTH}")
        own, other = c.horizontal_letters(), c.vertical_letters()
        if side == VERTICAL:
            own, other = other, own
        self.actions = {x: local_perm(c, x) for x in other}
        self.side = side
        self.depth = depth
        self.letters = tuple(own)
        words = [()]
        for _ in range(depth):
            words = [
                w + (x,)
                for w in words
                for x in self.letters
                if not w or x != w[-1] ^ 1
            ]
        self.words = tuple(words)
        self.position = {w: i for i, w in enumerate(self.words)}
        d = len(self.letters)
        check(len(self.words) == d * (d - 1) ** (depth - 1),
              "sphere size is not d*(d-1)^(depth-1)")

    def __len__(self):
        return len(self.words)


def sphere_action(
    c: SquareComplex, x: int, depth: int, sphere: SphereIndex | None = None,
) -> Permutation:
    """Permutation induced by ``x`` on the depth-k sphere of the other tree.

    The image of w1 w2 .. wk under x is depth1_x(w1) followed by
    the image of w2 .. wk under residual_x(w1).
    """
    opposite = VERTICAL if c.side(x) == HORIZONTAL else HORIZONTAL
    if sphere is None:
        sphere = SphereIndex(c, opposite, depth)

    images = []
    for word in sphere.words:
        actor, image = x, []
        for y in word:
            lp = sphere.actions[actor]
            image.append(lp.depth1[y])
            actor = lp.residual[y]
        images.append(sphere.position[tuple(image)])  # image must be a reduced word
    return Permutation(images)


def local_group(
    c: SquareComplex, side: str, depth: int, groups: dict | None = None,
) -> PermGroup:
    """The local group of one side at the given sphere depth.

    The vertical local group is generated by the actions of a_1..a_m on
    the vertical tree, the horizontal one by b_1..b_n on the horizontal
    tree.

    Orders grow between two bounds.  Restriction to the smaller sphere maps
    P^(k) onto P^(k-1), so |P^(k-1)| divides |P^(k)|.  Its kernel fixes the
    (k-1)-ball, and at each of the d(d-1)^(k-2) vertices of the
    (k-1)-sphere it acts through the stabilizer in P^(1) of the letter back
    to the parent, so |P^(k)| <= |P^(k-1)| * s^(d(d-1)^(k-2)) with s the
    largest point-stabilizer order of P^(1) (all point stabilizers have
    that order when P^(1) is transitive).

    From depth 2 on the order is proven by the random phase meeting that
    ``depth_order_bound``.  P^(1) and P^(k-1) come from ``groups``, this
    complex's groups keyed by (side, depth), or are built into it, as is
    the result.
    """
    if side not in (HORIZONTAL, VERTICAL):
        raise ValueError(f"side must be 'h' or 'v', not {side!r}")
    # the sphere refuses a depth above the cap before any group is built
    sphere = SphereIndex(c, side, depth)
    groups = {} if groups is None else groups
    bound = None
    if depth >= 2:
        for k in (1, depth - 1):
            if (side, k) not in groups:
                local_group(c, side, k, groups)
        bound = depth_order_bound(groups[side, 1], groups[side, depth - 1])
    if side == HORIZONTAL:
        actors = c.vertical_letters()[:c.n]
    else:
        actors = c.horizontal_letters()[:c.m]
    gens = [sphere_action(c, a, depth, sphere) for a in actors]
    groups[side, depth] = PermGroup(gens, degree=len(sphere), order_bound=bound)
    return groups[side, depth]


def depth_order_bound(depth1: PermGroup, previous: PermGroup) -> int:
    """The upper bound |P^(k-1)| * s^(d(d-1)^(k-2)) on |P^(k)| argued in
    ``local_group``, from P^(1) and P^(k-1).

    s is the largest point-stabilizer order of P^(1), and the
    (k-1)-sphere has d(d-1)^(k-2) vertices: the degree of P^(k-1).
    """
    s = depth1.order // min(len(depth1.orbit(x)) for x in range(depth1.degree))
    return previous.order * s ** previous.degree
