import hashlib
import itertools
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from vhcert import corpus, permgroups
from vhcert.certificates import Analysis
from vhcert.checks import VerificationError
from vhcert.local_actions import depth_order_bound, local_group
from vhcert.permgroups import (
    PermGroup,
    Permutation,
    PermutationError,
    _bounded_schreier_sims,
    _mul,
    brute_simplicity,
    bsgs_build,
    conjugacy_class_reps,
    is_k_transitive,
    is_whitelisted_nonabelian_simple,
    normal_closure,
    point_stabilizer,
    recognize,
    recognized_simplicity,
)


def perm(text, degree=None):
    return Permutation.parse(text, degree)


def test_cycle_round_trip():
    for text in ("(1,2)(4,5)(6,8,7)", "(1,2,3)(4,5)(7,8)", "()"):
        p = perm(text, 8)
        assert perm(p.cycle_string(), 8) == p


def test_parse_rejects_garbage():
    with pytest.raises(PermutationError):
        perm("(1,2")
    with pytest.raises(PermutationError):
        perm("(1,2)(2,3)")
    with pytest.raises(PermutationError):
        Permutation((0, 0, 1))


def test_mul_convention():
    # apply left factor first
    p = perm("(1,2)", 3)
    q = perm("(2,3)", 3)
    assert (p * q).cycle_string() == "(1,3,2)"


perm_pairs = st.integers(0, 60).flatmap(
    lambda d: st.tuples(st.permutations(range(d)), st.permutations(range(d)))
)


@given(perm_pairs)
@example(([], []))
@example(([0], [0]))
@example(([1, 0], [1, 0]))
def test_mul_matches_plain_composition(pair):
    p, q = (tuple(x) for x in pair)
    assert _mul(p, q) == tuple(q[i] for i in p)


def test_degree_one_group():
    ident = Permutation([0])
    g = bsgs_build([ident])
    assert (g.degree, g.order) == (1, 1)
    assert g.elements() == [(0,)]
    assert ident in g
    stab = point_stabilizer(g, 0)
    assert (stab.degree, stab.order) == (1, 1)


def test_s4_order():
    g = bsgs_build([perm("(1,2)", 4), perm("(1,2,3,4)", 4)])
    assert g.order == 24
    assert recognize(g) == "Sym(4)"


def test_trivial_group():
    g = bsgs_build([], degree=5)
    assert g.order == 1
    assert recognize(g) == "other(1)"


def test_bsgs_vs_brute_on_random_subgroups():
    rng = random.Random(20240)
    for _ in range(200):
        degree = rng.randint(2, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(images))
        group = bsgs_build(gens)
        assert group.order == len(group.elements())


def test_membership():
    g = bsgs_build([perm("(1,2,3)", 4)])
    assert perm("(1,3,2)", 4) in g
    assert perm("(1,2)", 4) not in g
    # image sequences are accepted and validated like Permutations
    assert (2, 0, 1, 3) in g and [1, 0, 2, 3] not in g
    assert (1, 2, 0) not in g  # wrong degree
    with pytest.raises(PermutationError):
        (0, 0, 1, 2) in g


@pytest.mark.parametrize("build, message", [
    (lambda: perm("(1,2)", 2) * perm("(1,2)", 3), "^degree mismatch$"),
    (lambda: Permutation.from_cycles([(1, 2, 1)], 3), r"^repeated point in cycle \(1, 2, 1\)$"),
    (lambda: Permutation.from_cycles([(1, 4)], 3), r"^point 4 out of range 1\.\.3$"),
    (lambda: PermGroup([]), "^degree required for the trivial group$"),
    (lambda: PermGroup([(1, 0), (0, 2, 1)]), "^generators of mixed degree$"),
], ids=["mul_degrees", "cycle_repeats", "cycle_range", "no_degree", "mixed_degrees"])
def test_malformed_permutations_and_groups_are_refused(build, message):
    with pytest.raises(PermutationError, match=message):
        build()


def test_trivial_and_symmetric_groups_are_not_simple():
    assert brute_simplicity(bsgs_build([], degree=3)) == ("not_simple", None)
    for d in (3, 4, 5):
        sym = bsgs_build([perm("(1,2)", d), Permutation.from_cycles([range(1, d + 1)], d)])
        assert recognize(sym) == f"Sym({d})"
        assert recognized_simplicity(sym, f"Sym({d})") is False


def test_out_of_range_points_and_k_are_refused():
    g = bsgs_build([perm("(1,2,3,4)"), perm("(1,2)", 4)])
    for point in (4, 7, -1):
        with pytest.raises(PermutationError):
            point_stabilizer(g, point)
        with pytest.raises(PermutationError):
            g.orbit(point)
    for k in (-1, 5):
        with pytest.raises(PermutationError):
            is_k_transitive(g, k)
    assert is_k_transitive(g, 0) and is_k_transitive(g, 4)


def _chain(group):
    return group._base, [list(lvl.orbit) for lvl in group._levels]


def test_bound_met_gives_a_complete_chain():
    # bounded by its own order, the random phase must stop on a complete
    # BSGS: membership agrees with the deterministic chain on all of Sym(d)
    rng = random.Random(5150)
    for _ in range(60):
        degree = rng.randint(2, 6)
        gens = [tuple(rng.sample(range(degree), degree)) for _ in range(rng.randint(1, 3))]
        exact = bsgs_build(gens, degree)
        bounded = bsgs_build(gens, degree, order_bound=exact.order)
        assert bounded.order == exact.order
        for k in range(degree + 1):
            assert is_k_transitive(bounded, k) == is_k_transitive(exact, k)
        for p in itertools.permutations(range(degree)):
            assert (p in bounded) == (p in exact)


def test_bound_not_met_falls_back_to_the_deterministic_chain(delta):
    # delta's depth-2 groups stay below their depth bound; small groups
    # given twice their order, or one more, can never meet it
    cases = [
        (local_group(delta, side, 2),
         depth_order_bound(local_group(delta, side, 1), local_group(delta, side, 1)))
        for side in ("h", "v")
    ]
    s4 = bsgs_build([perm("(1,2)", 4), perm("(1,2,3,4)", 4)])
    a5 = bsgs_build([perm("(1,2,3)", 5), perm("(3,4,5)", 5)])
    cases += [(s4, 48), (a5, 61)]
    for group, bound in cases:
        assert group.order < bound
        bounded = bsgs_build(group.generators, group.degree, order_bound=bound)
        assert bounded.order == group.order
        assert _chain(bounded) == _chain(group)


def test_random_phase_meets_the_corpus_depth_bounds(lam, sigma):
    # lambda's and sigma's depth-2 orders equal their bounds; the random
    # phase must prove that itself, without the deterministic fallback
    for c in (lam, sigma):
        a = Analysis(c)
        for side in ("h", "v"):
            previous = a.local_group(side, 1)
            bound = depth_order_bound(previous, previous)
            group = a.local_group(side, 2)
            chain = _bounded_schreier_sims(group.generators, group.degree, bound)
            assert chain is not None
            assert math.prod(len(lvl.orbit) for lvl in chain[1]) == bound


# sha256 of repr((base, each level's orbit in discovery order, each
# level's strong generators)) of the chains the certificate steps and the
# CI runs build; key (complex, side, depth, point), with point the one
# stabilized by ``point_stabilizer`` or None for the local group itself
CHAIN_DIGESTS = {
    ("sigma", "v", 1, None): "b397af904bdf6279942267147a6b5c86ae75cbd9502c04aa663a5f9e625102ed",
    ("sigma", "v", 2, None): "a18c7e26868884d5db2bc74ea451f3b17266e5004a7d5cff4d1cbe1df8faa5f1",
    ("sigma", "h", 1, None): "dc80521b11cecddb64dab350dbbbd5f2fa7c068863d200e80aec055b7e811a70",
    ("sigma", "h", 2, None): "72418f1123b6766103177ea84f5d2dde7b94c1c4ffb2f3f34e1bc45f57cea871",
    ("sigma", "h", 1, 0): "1f60e55d5db5343f571dd883cb8cb176eb6924b843e9d993142c9334dd91c7fb",
    ("sigma", "v", 1, 0): "7a1c1f0517b81567d3c8226a5a5e476f6d259218a87aa3347449a152a9794c21",
    ("delta", "v", 2, None): "91fab7ebe601b23b04a009efb62618f9af68cdbf53a43b44329c50ddfdc7f0e5",
    ("delta", "v", 3, None): "edb503b5bfa2d6c259cecd424e3027bc2d61a0b4a9e9d7770ede4ab74f97794b",
    ("lambda", "v", 2, None): "68a4d0cc0a23bfadcec88ff50493bfb3fe277706be1476c270d295644e6e3c57",
}


def _chain_digest(group):
    chain = (group._base, [list(lvl.orbit) for lvl in group._levels],
             [lvl.gens for lvl in group._levels])
    return hashlib.sha256(repr(chain).encode()).hexdigest()


def test_chains_are_pinned(lam, delta, sigma):
    # a bare local_group call, with no groups shared, builds the same chain
    # as the certificate's Analysis
    complexes = {"lambda": lam, "delta": delta, "sigma": sigma}
    analyses = {name: Analysis(c) for name, c in complexes.items()}
    for (name, side, depth, point), want in CHAIN_DIGESTS.items():
        group = analyses[name].local_group(side, depth)
        if point is not None:
            group = point_stabilizer(group, point)
        else:
            bare = local_group(complexes[name], side, depth)
            assert _chain_digest(bare) == want, ("bare", name, side, depth)
        assert _chain_digest(group) == want, (name, side, depth, point)


def test_bound_overshoot_raises():
    # Alt(5) on 5 points: the orbit product goes 5, 20, 60 past a bound of 59
    gens = [perm("(1,2,3)", 5).images, perm("(3,4,5)", 5).images]
    base, levels = _bounded_schreier_sims(gens, 5, 59)
    assert [len(lvl.orbit) for lvl in levels] == [5, 4, 3]
    with pytest.raises(VerificationError, match="exceeds the proven bound"):
        bsgs_build(gens, 5, order_bound=59)
    # the deterministic fallback is checked against the bound too
    with pytest.raises(VerificationError, match="exceeds the proven bound"):
        bsgs_build([], degree=3, order_bound=0)
    assert bsgs_build(gens, 5, order_bound=60).order == 60


def test_orbit_stabilizer_identity():
    rng = random.Random(99)
    for _ in range(30):
        degree = rng.randint(3, 8)
        images = list(range(degree))
        rng.shuffle(images)
        other = list(range(degree))
        rng.shuffle(other)
        group = bsgs_build([Permutation(images), Permutation(other)])
        p = rng.randrange(degree)
        stab = point_stabilizer(group, p)  # checks the identity internally
        assert stab.order * len(group.orbit(p)) == group.order


def test_point_stabilizer_of_transposition():
    g = bsgs_build([perm("(1,2)", 2)])
    assert point_stabilizer(g, 0).order == 1


def test_k_transitivity_small():
    c3 = bsgs_build([perm("(1,2,3)")])
    assert is_k_transitive(c3, 1)
    assert not is_k_transitive(c3, 2)


def test_a6_four_transitive_matches_brute_force():
    a6 = bsgs_build([perm("(1,2,3,4,5,6)") * perm("(1,2)", 6), perm("(1,2,3)", 6)])
    assert recognize(a6) == "Alt(6)"

    # independent oracle: explicit orbit of ordered 4-tuples
    elements = a6.elements()
    tuples = {
        tuple(p[x] for x in (0, 1, 2, 3)) for p in elements
    }
    assert len(tuples) == 6 * 5 * 4 * 3
    assert is_k_transitive(a6, 4)


def test_k_transitive_divisibility():
    groups = [
        bsgs_build([perm("(1,2)", 4), perm("(1,2,3,4)")]),
        bsgs_build([perm("(1,2,3,4,5)"), perm("(3,4,5)", 5)]),
    ]
    for g in groups:
        for k in range(1, 4):
            if is_k_transitive(g, k):
                expected = math.prod(range(g.degree - k + 1, g.degree + 1))
                assert g.order % expected == 0


def test_recognize_alt_sym():
    s3 = bsgs_build([perm("(1,2)", 3), perm("(1,2,3)")])
    assert recognize(s3) == "Sym(3)"
    a5 = bsgs_build([perm("(1,2,3,4,5)"), perm("(3,4,5)", 5)])
    assert recognize(a5) == "Alt(5)"


def test_recognize_on_moved_points_only():
    # A5 acting on 7 points with two fixed points is still Alt(5)
    a5 = bsgs_build([perm("(1,2,3,4,5)", 7), perm("(3,4,5)", 7)])
    assert recognize(a5) == "Alt(5)"


def test_recognize_stable_under_conjugation_and_shuffle(sigma):
    rng = random.Random(4)
    m12 = local_group(sigma, "h", 1)
    images = list(range(12))
    rng.shuffle(images)
    w = Permutation(images)
    conj = [w.inverse() * Permutation(g) * w for g in m12.generators]
    rng.shuffle(conj)
    assert recognize(bsgs_build(conj)) == "M12"


def test_recognize_mathieu(sigma):
    m12 = local_group(sigma, "h", 1)
    assert recognize(m12) == "M12"
    assert is_k_transitive(m12, 5)
    m11 = point_stabilizer(m12, 0)
    assert m11.order == 7920
    assert recognize(m11) == "M11"


def test_whitelist_verdicts(sigma):
    m12 = local_group(sigma, "h", 1)
    assert is_whitelisted_nonabelian_simple(point_stabilizer(m12, 0)) is True
    cyclic = bsgs_build([perm("(1,2,3,4,5,6)")])
    assert is_whitelisted_nonabelian_simple(cyclic) is False
    a4 = bsgs_build([perm("(1,2,3)", 4), perm("(2,3,4)")])
    assert is_whitelisted_nonabelian_simple(a4) is False


def test_whitelist_unknown_beyond_bound(monkeypatch):
    a5 = bsgs_build([perm("(1,2,3,4,5)"), perm("(3,4,5)", 5)])
    wreath = _direct_square(a5)
    # order 3600, unrecognized; tiny bound forces the unknown verdict
    monkeypatch.setattr(permgroups, "SIMPLICITY_BOUND", 100)
    assert is_whitelisted_nonabelian_simple(wreath) is None


def _direct_square(g):
    degree = g.degree
    gens = []
    for p in g.generators:
        gens.append(p + tuple(range(degree, 2 * degree)))
        gens.append(tuple(range(degree)) + tuple(x + degree for x in p))
    return bsgs_build(gens)


def test_brute_simplicity(monkeypatch):
    a5 = bsgs_build([perm("(1,2,3,4,5)"), perm("(3,4,5)", 5)])
    assert brute_simplicity(a5) == ("simple", None)

    a4 = bsgs_build([perm("(1,2,3)", 4), perm("(2,3,4)")])
    verdict, witness = brute_simplicity(a4)
    assert verdict == "not_simple"
    # the witness generates the Klein four-group normally
    assert normal_closure(a4, witness).order == 4

    big = _direct_square(a5)
    monkeypatch.setattr(permgroups, "SIMPLICITY_BOUND", 1000)
    assert brute_simplicity(big) == ("unknown", None)


def test_conjugacy_class_reps_cover_group():
    s3 = bsgs_build([perm("(1,2)", 3), perm("(1,2,3)")])
    reps = conjugacy_class_reps(s3)
    assert len(reps) == 2  # transpositions and 3-cycles


def sympy_group(group):
    """The same generators as a sympy group, for an independent Schreier-Sims."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    return combinatorics.PermutationGroup([
        combinatorics.Permutation(list(g)) for g in group.generators
    ])


def _random_group(rng):
    """Up to 3 generators, each shuffling a random subset of the points, so
    that intransitive groups and fixed points are common."""
    degree = rng.randint(2, 7)
    gens = []
    for _ in range(rng.randint(1, 3)):
        support = rng.sample(range(degree), rng.randint(0, degree))
        images = list(range(degree))
        for x, y in zip(support, rng.sample(support, len(support))):
            images[x] = y
        gens.append(Permutation(images))
    return bsgs_build(gens)


def test_k_transitivity_matches_sympy_on_random_groups():
    rng = random.Random(7321)
    degrees = set()
    for _ in range(300):
        group = _random_group(rng)
        top = sympy_group(group).transitivity_degree
        degrees.add(top)
        for k in range(group.degree + 1):
            assert is_k_transitive(group, k) == (k <= top), (group.generators, k)
    # intransitive groups and 5-transitive ones both occur
    assert 0 in degrees and max(degrees) >= 5


def test_recognize_padded_conjugated_m12(sigma):
    m12 = local_group(sigma, "h", 1)
    rng = random.Random(14)
    images = list(range(14))
    rng.shuffle(images)
    w = Permutation(images)
    padded = [Permutation(g + (12, 13)) for g in m12.generators]
    group = bsgs_build([w.inverse() * g * w for g in padded])
    assert recognize(group) == "M12"
    assert not is_k_transitive(group, 1)
    stab = point_stabilizer(group, images[0])
    assert recognize(stab) == "M11"
    assert (sympy_group(group).order(), sympy_group(stab).order()) == (95040, 7920)


CORPUS_GROUPS = [
    (name, side, depth)
    for name in corpus.NAMES for side in ("h", "v") for depth in (1, 2)
    if (name, side, depth) != ("sigma", "h", 2)
]


@pytest.mark.parametrize("name, side, depth", CORPUS_GROUPS)
def test_corpus_local_group_matches_sympy(name, side, depth):
    group = local_group(corpus.load(name), side, depth)
    reference = sympy_group(group)
    assert group.order == reference.order()
    if depth == 1:
        assert is_k_transitive(group, 2) == (reference.transitivity_degree >= 2)
