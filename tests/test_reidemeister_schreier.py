import hashlib
import random

import pytest

from vhcert import corpus
from vhcert.fpgroups import (
    Presentation,
    abelianization,
    cyclic_reduce,
    index4_hom,
    invert_word,
    presentation_from_complex,
)
from vhcert.reidemeister_schreier import (
    is_perfect,
    schreier_generator_words,
    schreier_transversal,
    subgroup_presentation,
    tietze_simplify,
)
from vhcert.todd_coxeter import (
    CosetTable,
    enumerate_cosets,
    normal_closure_table,
    parity_kernel_table,
)


def pres(gen_names, *relator_strings):
    stub = Presentation.build(tuple(gen_names), [])
    return Presentation.build(
        tuple(gen_names), [stub.parse_word(s) for s in relator_strings]
    )


@pytest.mark.parametrize("call, message", [
    (lambda p: schreier_transversal(CosetTable(p)), "^transversal requires a closed table$"),
    (lambda p: subgroup_presentation(p, CosetTable(p)),
     "^subgroup presentation requires a closed table$"),
    (lambda p: subgroup_presentation(pres(["x", "y"]), enumerate_cosets(p)),
     "^presentation does not match the table$"),
], ids=["open_transversal", "open_presentation", "mismatch"])
def test_open_or_mismatched_tables_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call(pres(["x"], "x^2"))


def test_transversal_index_one():
    p = pres(["x"], "x")
    table = enumerate_cosets(p)
    assert schreier_transversal(table) == ((),)


def test_transversal_sigma_kernel(sigma):
    p = presentation_from_complex(sigma)
    tv = schreier_transversal(parity_kernel_table(p))
    assert [p.word_to_string(w) for w in tv] == ["1", "a1", "b1", "a1*b1"]


def test_transversal_klein_quotient():
    p = pres(["x", "y"], "x^2", "y^2", "x*y*x*y")
    table = enumerate_cosets(p)
    tv = schreier_transversal(table)
    assert [p.word_to_string(w) for w in tv] == ["1", "x", "y", "x*y"]


def test_counting_formulas_sigma(sigma):
    p = presentation_from_complex(sigma)
    sub = subgroup_presentation(p, parity_kernel_table(p))
    assert len(sub.generators) == 4 * 10 - 3 == 37
    assert len(sub.relators) == 4 * 24 == 96


def test_counting_formulas_lambda(lam):
    p = presentation_from_complex(lam)
    sub = subgroup_presentation(p, parity_kernel_table(p))
    assert len(sub.generators) == 4 * 6 - 3 == 21
    assert len(sub.relators) == 4 * 9 == 36


def test_index_one_returns_original_presentation():
    p = pres(["x", "y"], "x^2", "y^2", "x*y*x*y")
    table = enumerate_cosets(p, subgens=[p.parse_word(s) for s in ("x", "y")])
    assert table.index == 1
    sub = subgroup_presentation(p, table)
    assert len(sub.generators) == len(p.generators)
    assert len(sub.relators) == len(p.relators)


def test_schreier_generator_words_are_in_kernel(sigma):
    p = presentation_from_complex(sigma)
    hom = index4_hom(p)
    words = schreier_generator_words(p, parity_kernel_table(p))
    assert len(words) == 37
    assert all(hom.in_kernel(w) for w in words)


def test_enumeration_with_schreier_generators_recovers_kernel_table(sigma):
    # genuine Todd-Coxeter run on explicit subgroup generators must agree
    # with the directly-built parity table after standardization
    p = presentation_from_complex(sigma)
    direct = parity_kernel_table(p)
    enumerated = enumerate_cosets(p, subgens=schreier_generator_words(p, direct))
    assert enumerated.index == 4
    assert enumerated.table == direct.table


def test_kernel_membership_agrees_with_coset_tracking(sigma):
    # index4_hom parity test vs explicit tracking through an enumerated table
    rng = random.Random(12)
    p = presentation_from_complex(sigma)
    direct = parity_kernel_table(p)
    table = enumerate_cosets(p, subgens=schreier_generator_words(p, direct))
    hom = index4_hom(p)
    for _ in range(100):
        word = tuple(
            2 * rng.randrange(10) + (rng.choice((1, -1)) < 0)
            for _ in range(rng.randrange(12))
        )
        assert hom.in_kernel(word) == (table.trace(0, word) == 0)


def test_rewritten_relators_expand_to_parent_identities(sigma):
    # each subgroup relator, expanded through the Schreier generator words,
    # must trace every coset of the parent table back to itself
    p = presentation_from_complex(sigma)
    table = parity_kernel_table(p)
    sub = subgroup_presentation(p, table)
    gen_words = schreier_generator_words(p, table)
    for rel in sub.relators:
        expanded = []
        for x in rel:
            word = gen_words[x >> 1]
            expanded.extend(invert_word(word) if x & 1 else word)
        for coset in range(4):
            assert table.trace(coset, expanded) == coset


def test_tietze_eliminates_redundant_generator():
    p = pres(["x", "y"], "y*x^-1")
    simplified = tietze_simplify(p)
    assert len(simplified.generators) == 1
    assert len(simplified.relators) == 0


def test_tietze_fixpoint_when_no_single_occurrence():
    p = pres(["x"], "x^2")  # x occurs twice; nothing to eliminate
    assert tietze_simplify(p) == p


def test_tietze_budget_blocks_blowup():
    p = pres(["x", "y"], "y*x^-1*x^-1*x^-1*x^-1", "y^2*x^8")
    # with a tiny budget the substitution is skipped entirely
    frozen = tietze_simplify(p, total_length_budget=5)
    assert len(frozen.generators) == 2


def test_tietze_preserves_relator_generator_difference(sigma):
    p = presentation_from_complex(sigma)
    sub = subgroup_presentation(p, parity_kernel_table(p))
    simplified = tietze_simplify(sub)
    raw_diff = len(sub.relators) - len(sub.generators)
    assert raw_diff == 59
    assert len(simplified.relators) - len(simplified.generators) == raw_diff
    assert len(simplified.generators) <= 10


# (generators, total length, sha256 of str()) of the simplified parity kernel
TIETZE_PINS = {
    ("lambda", 10_000): (3, 968, "4f25bd017a5bad4a3d017bd672b7775dc55aa70abaab291ad6069d1d175263e5"),
    ("lambda", 500): (5, 326, "c5d04efddc209139253b1a22905c4a13f7ab48b8f44a3e38c42c2082b939fc09"),
    ("delta", 10_000): (5, 2134, "46e06b662ec31a105fed43a79197b157b6e4a20da0b4411174aa5df8f397f8b5"),
    ("delta", 500): (7, 408, "b95434f4646b52a4b78f8628b84de5ab2a5b4c82356658963e450b7107fe2057"),
    ("sigma", 10_000): (5, 6554, "a753ff23cfcbbd2f81703be327e98fe8efb329852650e450297fef2ea1b72ebe"),
    ("sigma", 500): (19, 490, "e16c64d9ce6c60b3d1bb69ae575701a5e98adb0afd6adc75fccf082090f5d463"),
}


@pytest.mark.parametrize("name, budget", sorted(TIETZE_PINS))
def test_tietze_output_is_pinned(name, budget):
    # the default budget and 500, where the budget skips candidates
    p = presentation_from_complex(corpus.load(name))
    sub = subgroup_presentation(p, parity_kernel_table(p))
    simplified = tietze_simplify(sub, total_length_budget=budget)
    digest = hashlib.sha256(str(simplified).encode()).hexdigest()
    assert (len(simplified.generators), simplified.total_length(), digest) == TIETZE_PINS[name, budget]


def test_tietze_preserves_abelianization(sigma, lam):
    for c in (sigma, lam):
        p = presentation_from_complex(c)
        sub = subgroup_presentation(p, parity_kernel_table(p))
        assert abelianization(tietze_simplify(sub)) == abelianization(sub)


def test_sigma_kernel_presentation_is_perfect(sigma):
    p = presentation_from_complex(sigma)
    sub = subgroup_presentation(p, parity_kernel_table(p))
    assert is_perfect(sub)


def test_delta_not_perfect(delta):
    assert not is_perfect(presentation_from_complex(delta))


def test_trivial_presentation_is_perfect():
    assert is_perfect(pres(["x"], "x"))


def test_subgroup_presentation_from_closure_table(sigma):
    # the normal-closure table and the parent presentation give the same
    # subgroup presentation shape as the directly built kernel table
    p = presentation_from_complex(sigma)
    w = p.parse_word("a2*a1^-1*a3*a4^-1")
    table = normal_closure_table(p, w)
    sub = subgroup_presentation(p, table)
    assert len(sub.generators) == 37
    assert len(sub.relators) == 96
    assert is_perfect(sub)


def test_witness_closure_has_index_four_by_reidemeister_schreier(sigma):
    # A route to index 4 that does not enumerate the closure: the witness
    # lies in the parity kernel K, so the parity table is also a closed
    # table of the presentation with the witness added, whose
    # Reidemeister-Schreier presentation presents K/<<w>>.  It is trivial
    # iff K = <<w>>, that is iff the closure has index 4.  Unsimplified.
    p = presentation_from_complex(sigma)
    w = cyclic_reduce(p.parse_word("a2*a1^-1*a3*a4^-1"))
    quotient = Presentation.build(p.generators, p.relators + (w,), p.sides)
    table = parity_kernel_table(quotient)
    assert [table.trace(alpha, w) for alpha in range(4)] == [0, 1, 2, 3]
    sub = subgroup_presentation(quotient, table)
    assert len(sub.generators) == 37
    assert len(sub.relators) == 100
    assert sum(map(len, sub.relators)) == 367
    for strategy in ("hlt", "felsch"):
        assert enumerate_cosets(sub, strategy=strategy).index == 1


class _UnusedRewritingSystem:
    """Stand-in for the rewriting system sympy's FpGroup builds eagerly;
    reidemeister_presentation never reads it, and building it takes
    several times as long as the presentation itself."""

    def __init__(self, group):
        pass

    def __getattr__(self, name):
        raise AssertionError(f"rewriting system used: {name}")


def _sympy_kernel_presentation(p, subgens, monkeypatch):
    """sympy's simplified Reidemeister-Schreier presentation of the subgroup
    generated by ``subgens``, read back as a Presentation."""
    fp_groups = pytest.importorskip("sympy.combinatorics.fp_groups")
    from sympy.combinatorics.free_groups import free_group

    monkeypatch.setattr(fp_groups, "RewritingSystem", _UnusedRewritingSystem)
    free, *letters = free_group(",".join(p.generators))

    def word(w):
        out = free.identity
        for x in w:
            out *= letters[x >> 1] ** (-1 if x & 1 else 1)
        return out

    group = fp_groups.FpGroup(free, [word(r) for r in p.relators])
    gens, rels = fp_groups.reidemeister_presentation(group, [word(w) for w in subgens])
    index = {g.array_form[0][0]: i for i, g in enumerate(gens)}
    return Presentation.build(
        tuple(str(g) for g in gens),
        [
            tuple(2 * index[sym] + (e < 0) for sym, e in r.array_form
                  for _ in range(abs(e)))
            for r in rels
        ],
    )


# sigma agrees too (trivial, 59) but takes seconds in sympy
@pytest.mark.parametrize("name", ["lambda", "delta"])
def test_parity_kernel_matches_sympy_reidemeister_schreier(name, monkeypatch):
    p = presentation_from_complex(corpus.load(name))
    table = parity_kernel_table(p)
    theirs = _sympy_kernel_presentation(p, table.subgens, monkeypatch)
    ours = subgroup_presentation(p, table)
    assert abelianization(theirs) == abelianization(ours)
    assert (len(theirs.relators) - len(theirs.generators)
            == len(ours.relators) - len(ours.generators))


def _random_presentations(count=400):
    """Seeded small presentations: 1-6 generators, 1-6 relators of 1-9
    random letters each (reduced by ``build``, so some come out empty)."""
    rng = random.Random("tietze")
    for _ in range(count):
        ngens = rng.randint(1, 6)
        relators = [
            [2 * rng.randrange(ngens) + (rng.choice((1, -1)) < 0)
             for _ in range(rng.randint(1, 9))]
            for _ in range(rng.randint(1, 6))
        ]
        yield Presentation.build([f"x{i}" for i in range(ngens)], relators)


def _digest_of_simplified(presentations, budgets):
    h = hashlib.sha256()
    for p in presentations:
        for budget in budgets:
            h.update(str(tietze_simplify(p, total_length_budget=budget)).encode() + b"\n")
    return h.hexdigest()


def test_tietze_random_presentations_are_pinned():
    # Junction cascades, cyclic reduction after substitution, both signs,
    # several occurrences per relator, and budgets that reject candidates.
    assert _digest_of_simplified(_random_presentations(), (10_000, 60, 8)) == (
        "f8edca80f3b492968d0f49ccc503b477334d4cbb27bc7357ef8144a13504407c"
    )


def test_tietze_closure_of_a1_is_pinned(sigma):
    # sigma's normal closure of a1 has index 2: 19 generators, 48 relators
    p = presentation_from_complex(sigma)
    sub = subgroup_presentation(p, normal_closure_table(p, p.parse_word("a1")))
    assert (len(sub.generators), len(sub.relators)) == (19, 48)
    simplified = tietze_simplify(sub)
    assert (len(simplified.generators), len(simplified.relators),
            simplified.total_length()) == (3, 32, 3274)
    assert _digest_of_simplified([sub], (10_000, 500, 50)) == (
        "0b9073776f6c692747df1e4f51973fbd193c173e6c716bf41e4c8093ef1d3a8a"
    )
