import random

import pytest
from hypothesis import given, strategies as st

from vhcert import fpgroups
from vhcert.checks import VerificationError
from vhcert.fpgroups import (
    MAX_WORD_LENGTH,
    AbelianInvariants,
    Presentation,
    WordError,
    abelianization,
    concat,
    cyclic_reduce,
    free_reduce,
    index4_hom,
    invert_word,
    presentation_from_complex,
    relator_matrix,
    smith_normal_form,
)

from oracles import determinant

# letters over four generators: 2g for generator g, 2g + 1 for its inverse
letters = st.lists(st.integers(0, 2 * 4 - 1), max_size=12)


@given(letters)
def test_free_reduce_idempotent(raw):
    once = free_reduce(raw)
    assert free_reduce(once) == once
    assert len(once) <= len(raw)


@given(letters)
def test_free_reduction_has_no_cancelling_pair(raw):
    reduced = free_reduce(raw)
    for x, y in zip(reduced, reduced[1:]):
        assert x ^ 1 != y


@given(letters)
def test_word_inverse_cancels(raw):
    word = free_reduce(raw)
    assert concat(word, invert_word(word)) == ()


def test_cyclic_reduce():
    # x y x^-1 reduces cyclically to y
    assert cyclic_reduce((0, 2, 1)) == (2,)


def test_presentation_rejects_relators_that_are_not_cyclically_reduced():
    x, X, y, Y = 0, 1, 2, 3
    for rel in ((x, y, Y, x), (y, x, X), (X, x)):  # an inner inverse pair
        with pytest.raises(WordError, match="cyclically reduced"):
            Presentation(("x", "y"), ((x, y), rel))
    for rel in ((x, y, X), (Y, x, x, y)):  # the two ends are an inverse pair
        with pytest.raises(WordError, match="cyclically reduced"):
            Presentation(("x", "y"), ((x, y), rel))
    # X and y are consecutive ints but letters of different generators
    for rel in ((), (x,), (x, x), (x, y, X, Y), (X, y)):
        assert Presentation(("x", "y"), ((x, y), rel)).relators[1] == rel
    # the letters of two generators are 0..3
    for rel in ((x, 4), (-1,), (y, -2), (x, 7), (x, y, 10**9)):
        with pytest.raises(WordError, match="bad letter"):
            Presentation(("x", "y"), (rel,))


@given(letters)
def test_presentation_accepts_exactly_the_cyclically_reduced_relators(raw):
    rel = tuple(raw)
    if rel == cyclic_reduce(rel):
        Presentation(("a", "b", "c", "d"), (rel,))
    else:
        with pytest.raises(WordError, match="cyclically reduced"):
            Presentation(("a", "b", "c", "d"), (rel,))


def test_word_parsing_round_trip(sigma):
    p = presentation_from_complex(sigma)
    w = p.parse_word("a2*a1^-1*a3*a4^-1")
    assert p.word_to_string(w) == "a2*a1^-1*a3*a4^-1"
    assert p.parse_word("a1^3") == (0,) * 3
    assert p.parse_word("1") == ()
    with pytest.raises(WordError):
        p.parse_word("z9")


def test_word_exponents_are_ascii_digits(sigma):
    p = presentation_from_complex(sigma)
    assert p.parse_word("a1^-1") == (1,)
    assert p.parse_word("a1^3") == (0,) * 3
    assert p.parse_word("a1^0*b1") == p.parse_word("b1")
    # int() would read the first five as 10, 3, 3, 3 and -3
    for token in ("a1^1_0", "a1^\u0663", "a1^+3", "a1^ 3", "a1^-\uff13", "a1^", "a1^-"):
        with pytest.raises(WordError, match="bad exponent"):
            p.parse_word(token)


def test_word_length_is_bounded_before_expansion(sigma):
    p = presentation_from_complex(sigma)
    assert len(p.parse_word(f"a1^{MAX_WORD_LENGTH}")) == MAX_WORD_LENGTH
    # counted before free reduction, over all tokens
    with pytest.raises(WordError, match="limit"):
        p.parse_word(f"a1^{MAX_WORD_LENGTH}*a1^-1")
    # expanding this one would exhaust memory
    with pytest.raises(WordError, match="limit"):
        p.parse_word("a1^99999999999999999999")


def test_presentation_counts(lam, delta, sigma):
    for c, gens, rels in ((sigma, 10, 24), (lam, 6, 9), (delta, 7, 12)):
        p = presentation_from_complex(c)
        assert len(p.generators) == gens
        assert len(p.relators) == rels
        assert all(len(r) == 4 for r in p.relators)


def test_index4_hom_kernel(sigma):
    p = presentation_from_complex(sigma)
    hom = index4_hom(p)
    # every square relator maps to the identity (checked at construction too)
    assert all(hom.in_kernel(r) for r in p.relators)
    assert hom.in_kernel(p.parse_word("a2*a1^-1*a3*a4^-1"))
    assert not hom.in_kernel(p.parse_word("a1"))
    assert not hom.in_kernel(p.parse_word("a1*b1"))
    assert hom.in_kernel(p.parse_word("a1*b1*a2*b3"))


def test_index4_hom_requires_sides():
    p = Presentation.build(("x",), [(0,) * 2])
    with pytest.raises(WordError, match="side"):
        index4_hom(p)


def test_index4_hom_refuses_an_odd_relator():
    p = Presentation.build(("a", "b"), [(0, 2)], sides=("h", "v"))
    with pytest.raises(WordError, match=r"^relator \(0, 2\) is not in the parity kernel$"):
        index4_hom(p)


def _check_snf(matrix):
    factors, u, v = smith_normal_form(matrix)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert all(f > 0 for f in factors)
    assert determinant(u) in (1, -1)
    assert determinant(v) in (1, -1)
    return factors


def test_snf_examples():
    assert _check_snf([[1, 0, 0], [0, 2, 0], [0, 0, 6]]) == [1, 2, 6]
    assert _check_snf([[4, 6], [2, 2]]) == [2, 2]
    assert _check_snf([[0, 0, 0], [0, 0, 0]]) == []


def test_snf_random_matrices():
    rng = random.Random(11)
    for _ in range(500):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        matrix = [
            [rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)
        ]
        _check_snf(matrix)  # unimodularity, divisibility, and M = U*D*V


def test_snf_check_rejects_a_corrupted_transform(monkeypatch):
    # U starts as a wrong identity, so the tracked U no longer satisfies
    # M = U*D*V; the check reads only U's first len(factors) columns.
    eye = fpgroups._eye

    def corrupted_eye(k):
        m = eye(k)
        if k == 3:
            m[2][0] = 1
        return m

    matrix = [[2, 0], [0, 3], [1, 1]]
    assert _check_snf(matrix) == [1, 1]
    monkeypatch.setattr(fpgroups, "_eye", corrupted_eye)
    with pytest.raises(VerificationError, match="do not reproduce"):
        smith_normal_form(matrix)


def test_snf_empty_and_zero_column_matrices():
    assert smith_normal_form([]) == ([], [], [])
    assert smith_normal_form([[], []]) == ([], [[1, 0], [0, 1]], [])


def test_abelianization_delta(delta):
    inv = abelianization(presentation_from_complex(delta))
    assert inv == AbelianInvariants(free_rank=3, torsion=())


def test_abelianization_sigma(sigma):
    inv = abelianization(presentation_from_complex(sigma))
    assert inv == AbelianInvariants(free_rank=0, torsion=(2, 2))


def test_abelianization_trivial():
    p = Presentation.build(("x",), [(0,)])
    assert abelianization(p).is_trivial()


def test_abelianization_free_group():
    p = Presentation.build(("x", "y"), [])
    assert abelianization(p) == AbelianInvariants(free_rank=2, torsion=())


def test_abelianization_invariant_under_relator_moves(sigma):
    rng = random.Random(5)
    p = presentation_from_complex(sigma)
    base = abelianization(p)

    relators = list(p.relators)
    rng.shuffle(relators)
    relators = [
        cyclic_reduce(invert_word(r)) if rng.random() < 0.5 else r for r in relators
    ]
    relators = [
        cyclic_reduce(r[k:] + r[:k])
        for r, k in ((r, rng.randrange(len(r))) for r in relators)
    ]
    moved = Presentation.build(p.generators, relators)
    assert abelianization(moved) == base


def test_relator_matrix_shape(sigma):
    p = presentation_from_complex(sigma)
    matrix = relator_matrix(p)
    assert len(matrix) == 24 and len(matrix[0]) == 10
    # each square contributes two horizontal and two vertical letters
    assert all(sum(map(abs, row)) <= 4 for row in matrix)
