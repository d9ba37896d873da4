import random

import pytest

from vhcert import corpus
from vhcert.certificates import Analysis
from vhcert.complexes import ComplexError, LinkError, SquareComplex, parse_complex
from vhcert.local_actions import (
    SphereIndex,
    depth_order_bound,
    horizontal_local_perm,
    local_group,
    local_perm,
    sphere_action,
    vertical_local_perm,
)
from vhcert.permgroups import PermGroup

from oracles import depth1_moves


def _letter(c, name: str) -> int:
    """The letter of a generator name, suffixed ' for the inverse."""
    return 2 * c.names.index(name.rstrip("'")) + name.endswith("'")


def test_lambda_a1_depth1_map(lam):
    # corner rule applied to the four squares containing a1 (and inverse forms)
    lp = vertical_local_perm(lam, _letter(lam, "a1"))
    expected = {
        "b1": "b1", "b2": "b3", "b3": "b2",
        "b1'": "b1'", "b2'": "b3'", "b3'": "b2'",
    }
    for src, dst in expected.items():
        assert lp.depth1[_letter(lam, src)] == _letter(lam, dst)


def test_commuting_square_gives_identity_map():
    c = parse_complex(
        "complex torus\nhorizontal a1\nvertical b1\nsquare a1 b1 a1^-1 b1^-1\n"
    )
    lp = vertical_local_perm(c, _letter(c, "a1"))
    assert all(lp.depth1[b] == b for b in c.vertical_letters())


def test_sigma_a6_maps_b3_to_b4(sigma):
    lp = vertical_local_perm(sigma, _letter(sigma, "a6"))
    assert lp.depth1[_letter(sigma, "b3")] == _letter(sigma, "b4")


def test_lambda_b1_fixes_a1(lam):
    lp = horizontal_local_perm(lam, _letter(lam, "b1"))
    assert lp.depth1[_letter(lam, "a1")] == _letter(lam, "a1")


def test_sigma_b4_maps_a3_to_a1_inverse(sigma):
    lp = horizontal_local_perm(sigma, _letter(sigma, "b4"))
    assert lp.depth1[_letter(sigma, "a3")] == _letter(sigma, "a1'")


@pytest.mark.parametrize("name", corpus.NAMES)
def test_local_perm_matches_the_square_readings(name):
    # the eight readings of each square, taken straight from c.squares,
    # cover every (actor, letter) pair of opposite sides exactly once
    c = corpus.load(name)
    moves = depth1_moves(c)
    h, v = c.horizontal_letters(), c.vertical_letters()
    assert set(moves) == {(x, y) for x in h for y in v} | {(y, x) for x in h for y in v}
    assert all(len(found) == 1 for found in moves.values())
    for actor, letters in [(x, v) for x in h] + [(y, h) for y in v]:
        lp = local_perm(c, actor)
        assert {y: (lp.depth1[y], lp.residual[y]) for y in lp.depth1} == {
            y: moves[actor, y][0] for y in letters
        }


def test_errors_name_the_generators(sigma):
    with pytest.raises(ValueError, match=r"^b1 is not horizontal$"):
        vertical_local_perm(sigma, _letter(sigma, "b1"))
    with pytest.raises(ValueError, match=r"^a1\^-1 is not vertical$"):
        horizontal_local_perm(sigma, _letter(sigma, "a1'"))
    for x in (-1, 20):  # sigma's letters are 0..19
        with pytest.raises(ComplexError, match=f"^letter {x} outside the alphabet$"):
            vertical_local_perm(sigma, x)
    broken = SquareComplex(sigma.name, sigma.hnames, sigma.vnames, sigma.squares[1:])
    a, b = sigma.squares[0][:2]
    with pytest.raises(LinkError, match=r"^corner \(a1, b1\) occurs in 0 squares"):
        broken.corner_partner(a, b)


def test_depth1_maps_are_bijections(lam, delta, sigma):
    for c in (lam, delta, sigma):
        for x in c.horizontal_letters():
            lp = vertical_local_perm(c, x)
            assert sorted(lp.depth1.values()) == sorted(c.vertical_letters())
        for x in c.vertical_letters():
            lp = horizontal_local_perm(c, x)
            assert sorted(lp.depth1.values()) == sorted(c.horizontal_letters())


def test_sphere_action_depth1_is_depth1_map(lam):
    sphere = SphereIndex(lam, "v", 1)
    lp = vertical_local_perm(lam, _letter(lam, "a2"))
    perm = sphere_action(lam, _letter(lam, "a2"), 1, sphere)
    for i, (letter,) in enumerate(sphere.words):
        assert sphere.words[perm(i)] == (lp.depth1[letter],)


def test_prefix_projection_intertwines(lam, delta, sigma):
    # deleting the last letter of a depth-2 word commutes with the action
    for c in (lam, delta, sigma):
        s2 = SphereIndex(c, "v", 2)
        s1 = SphereIndex(c, "v", 1)
        for x in c.horizontal_letters():
            p2 = sphere_action(c, x, 2, s2)
            p1 = sphere_action(c, x, 1, s1)
            for i, word in enumerate(s2.words):
                image2 = s2.words[p2(i)]
                image1 = s1.words[p1(s1.position[word[:1]])]
                assert image2[:1] == image1


def test_sphere_images_are_reduced_words(lam, delta, sigma):
    # Permutation construction would fail on a non-reduced image (missing
    # from the index); assert explicitly for k <= 2 on the whole corpus.
    for c in (lam, delta, sigma):
        for k in (1, 2):
            sphere = SphereIndex(c, "v", k)
            for x in c.horizontal_letters():
                perm = sphere_action(c, x, k, sphere)
                images = {sphere.words[perm(i)] for i in range(len(sphere))}
                assert len(images) == len(sphere)


def test_sphere_size_formula(sigma):
    assert len(SphereIndex(sigma, "h", 2)) == 12 * 11
    assert len(SphereIndex(sigma, "v", 2)) == 8 * 7
    assert len(SphereIndex(sigma, "v", 3)) == 8 * 7 * 7


def test_depth_cap():
    from vhcert import corpus

    lam = corpus.load("lambda")
    with pytest.raises(ValueError, match="cap"):
        sphere_action(lam, _letter(lam, "a1"), 4)


def test_depth_cap_refuses_before_building_the_sphere(sigma, monkeypatch):
    # a sphere starts with the depth-1 actions of the other side; a
    # refused depth must not get that far (depth 4 on sigma has 15,972 words)
    import vhcert.local_actions as la

    built = []
    monkeypatch.setattr(la, "local_perm", lambda c, x: built.append(x))
    for side in ("h", "v"):
        with pytest.raises(ValueError, match="cap"):
            local_group(sigma, side, 4)
    with pytest.raises(ValueError, match="cap"):
        sphere_action(sigma, _letter(sigma, "a1"), 4)
    assert built == []


def test_local_group_orders_depth1(lam, sigma):
    assert local_group(lam, "v", 1).order == 360
    assert local_group(lam, "h", 1).order == 360
    assert local_group(sigma, "h", 1).order == 95040
    assert local_group(sigma, "v", 1).order == 20160


def test_depth1_order_divides_factorial(lam, delta, sigma):
    import math

    for c in (lam, delta, sigma):
        assert math.factorial(2 * c.m) % local_group(c, "h", 1).order == 0
        assert math.factorial(2 * c.n) % local_group(c, "v", 1).order == 0


def test_lambda_depth2_order(lam):
    assert local_group(lam, "v", 2).order == 360 * 60**6


def test_order_invariant_under_relabelling(lam):
    # renumber the vertical generators by shuffling their declaration, which
    # relabels every sphere point; the generated group's order cannot change
    lines = corpus.text("lambda").splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("vertical"))
    names = lines[at].split()[1:]
    random.Random(7).shuffle(names)
    assert names != sorted(names)
    lines[at] = "vertical " + " ".join(names)
    shuffled = parse_complex("\n".join(lines))
    assert shuffled.vnames == tuple(names)
    assert local_group(shuffled, "v", 2).order == 360 * 60**6


def _depth_bound(c, side, depth):
    """|P^(depth-1)| and ``depth_order_bound``, from groups built without a
    bound."""
    previous = local_group(c, side, depth - 1)
    return previous.order, depth_order_bound(local_group(c, side, 1), previous)


def _unbounded_order(group):
    """The deterministic order of a group built against a bound."""
    return PermGroup(group.generators, group.degree).order


DEPTH_BOUND_CASES = [
    (name, side, 2) for name in corpus.NAMES for side in ("h", "v")
] + [("delta", "h", 3), ("delta", "v", 3)]


@pytest.mark.parametrize("name, side, depth", DEPTH_BOUND_CASES)
def test_local_group_order_between_depth_bounds(name, side, depth):
    c = corpus.load(name)
    lower, bound = _depth_bound(c, side, depth)
    group = Analysis(c).local_group(side, depth)
    order = _unbounded_order(group)
    assert group.order == order
    assert order % lower == 0
    assert order <= bound
    assert (order == bound) == (name in ("lambda", "sigma"))


def test_depth_bound_is_the_irreducibility_target_on_sigma(sigma):
    # P_v^(1) = Alt(8) is transitive with point stabilizers Alt(7)
    _, bound = _depth_bound(sigma, "v", 2)
    group = Analysis(sigma).local_group("v", 2)
    assert bound == 20160 * 2520**8 == _unbounded_order(group) == group.order


def test_sigma_vertical_depth3_meets_its_bound(sigma):
    # 392 points; the deterministic run does not finish in minutes, the
    # random phase reaches the bound |P^(2)| * |Alt(7)|^56, a 738-bit order
    group = Analysis(sigma).local_group("v", 3)
    assert group.degree == 392
    assert group.order == 20160 * 2520**8 * 2520**56
