"""Local-group orders computed without vhcert, for cross-checking expected.py.

Parses the .vh square list itself, builds the sphere actions from the
square boundaries, and hands the permutations to sympy's Schreier-Sims.
Only the benchmark's tests import this module.
"""

from __future__ import annotations


def _inv(x):
    name, e = x
    return (name, -e)


def _letter(tok):
    base, _, exp = tok.partition("^")
    return (base, -1 if exp == "-1" else 1)


def parse(text):
    """(horizontal names, vertical names, corner map) of a .vh file.

    The corner map sends (h, v) to (h', v') for every reading h v h' v'
    of a square boundary: the two rotations by two letters and the two
    rotations of the reversed word that start on a horizontal letter.
    """
    hnames = vnames = None
    corners = {}
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "horizontal":
            hnames = fields[1:]
        elif fields[0] == "vertical":
            vnames = fields[1:]
        elif fields[0] == "square":
            x1, x2, x3, x4 = (_letter(t) for t in fields[1:])
            for h, v, h2, v2 in (
                (x1, x2, x3, x4),
                (x3, x4, x1, x2),
                (_inv(x1), _inv(x4), _inv(x3), _inv(x2)),
                (_inv(x3), _inv(x2), _inv(x1), _inv(x4)),
            ):
                corners[(h, v)] = (h2, v2)
    return hnames, vnames, corners


def _step(corners, actor, x, horizontal_tree):
    """Image of letter x under actor, and the actor one level down."""
    if horizontal_tree:
        # actor b is vertical: the reading x^-1 b^-1 p q gives x -> p, b -> q
        return corners[(_inv(x), _inv(actor))]
    h2, v2 = corners[(actor, x)]
    # actor a is horizontal: the reading a x h2 v2 gives x -> v2^-1, a -> h2^-1
    return _inv(v2), _inv(h2)


def sphere_generators(text, side, depth):
    """Permutations (as image lists) of the local group of one side."""
    hnames, vnames, corners = parse(text)
    on_names, actor_names = (hnames, vnames) if side == "h" else (vnames, hnames)
    letters = [(n, 1) for n in on_names] + [(n, -1) for n in on_names]
    words = [()]
    for _ in range(depth):
        words = [w + (x,) for w in words for x in letters if not w or x != _inv(w[-1])]
    index = {w: i for i, w in enumerate(words)}

    def image(actor, word):
        out = []
        for x in word:
            y, actor = _step(corners, actor, x, side == "h")
            out.append(y)
        return tuple(out)

    return [
        [index[image((a, 1), w)] for w in words] for a in actor_names
    ], len(words)


def sympy_order(text, side, depth):
    from sympy.combinatorics import Permutation, PermutationGroup

    gens, degree = sphere_generators(text, side, depth)
    return PermutationGroup([Permutation(g, size=degree) for g in gens]).order()
