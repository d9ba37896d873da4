import hashlib
import random

import pytest

from oracles import quotient_is_abelian
from vhcert.checks import VerificationError
from vhcert.fpgroups import (
    Presentation,
    cyclic_reduce,
    free_reduce,
    presentation_from_complex,
)
from vhcert.permgroups import Permutation
from vhcert.reidemeister_schreier import schreier_generator_words, schreier_transversal
from vhcert.todd_coxeter import (
    CosetTable,
    EnumerationExhausted,
    enumerate_cosets,
    normal_closure_index,
    normal_closure_table,
    parity_kernel_table,
    quotient_structure,
)


def pres(gen_names, *relator_strings):
    stub = Presentation.build(tuple(gen_names), [])
    return Presentation.build(
        tuple(gen_names), [stub.parse_word(s) for s in relator_strings]
    )


def brute_order(perm_strings, degree):
    """Order of the generated permutation group by plain closure (no BSGS)."""
    perms = [Permutation.parse(s, degree).images for s in perm_strings]
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for p in frontier:
            for s in perms:
                q = tuple(s[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    fresh.append(q)
        frontier = fresh
    return len(seen)


def assert_realizes(p: Presentation, perm_strings, degree):
    """The permutations must satisfy every relator of the presentation."""
    perms = [Permutation.parse(s, degree) for s in perm_strings]
    ident = Permutation(range(degree))
    for rel in p.relators:
        value = ident
        for x in rel:
            value = value * (perms[x >> 1].inverse() if x & 1 else perms[x >> 1])
        assert value == ident, f"relator {p.word_to_string(rel)} not satisfied"


# name, generators, relators, permutation realization, degree
GROUP_CORPUS = [
    ("C2", ["x"], ["x^2"], ["(1,2)"], 2),
    ("C6", ["x"], ["x^6"], ["(1,2,3,4,5,6)"], 6),
    ("V4", ["x", "y"], ["x^2", "y^2", "x*y*x*y"], ["(1,2)", "(3,4)"], 4),
    ("S3", ["x", "y"], ["x^3", "y^2", "x*y*x*y"], ["(1,2,3)", "(1,2)"], 3),
    ("D4", ["x", "y"], ["x^4", "y^2", "x*y*x*y"], ["(1,2,3,4)", "(2,4)"], 4),
    ("D5", ["x", "y"], ["x^5", "y^2", "x*y*x*y"], ["(1,2,3,4,5)", "(2,5)(3,4)"], 5),
    ("D6", ["x", "y"], ["x^6", "y^2", "x*y*x*y"],
     ["(1,2,3,4,5,6)", "(2,6)(3,5)"], 6),
    ("C3xC3", ["x", "y"], ["x^3", "y^3", "x*y*x^-1*y^-1"],
     ["(1,2,3)", "(4,5,6)"], 6),
    ("C2xC4", ["x", "y"], ["x^2", "y^4", "x*y*x^-1*y^-1"],
     ["(1,2)", "(3,4,5,6)"], 6),
    ("Q8", ["x", "y"], ["x^4", "x^2*y^-2", "y^-1*x*y*x"],
     ["(1,3,2,4)(5,8,6,7)", "(1,5,2,6)(3,7,4,8)"], 8),
    ("A4", ["x", "y"], ["x^3", "y^3", "x*y*x*y"], ["(1,2,3)", "(2,3,4)"], 4),
    ("S4", ["x", "y"], ["x^4", "y^2", "x*y*x*y*x*y"], ["(1,2,3,4)", "(1,2)"], 4),
]


@pytest.mark.parametrize("name,gens,rels,perms,degree",
                         GROUP_CORPUS, ids=[g[0] for g in GROUP_CORPUS])
def test_index_matches_brute_order(name, gens, rels, perms, degree):
    p = pres(gens, *rels)
    assert_realizes(p, perms, degree)
    expected = brute_order(perms, degree)
    assert expected <= 24
    for strategy in ("hlt", "felsch"):
        assert enumerate_cosets(p, strategy=strategy).index == expected


def test_index_two():
    assert enumerate_cosets(pres(["x"], "x^2")).index == 2


def test_klein_four():
    table = enumerate_cosets(pres(["x", "y"], "x^2", "y^2", "x*y*x*y"))
    assert table.index == 4
    q = quotient_structure(table)
    assert q.abelian
    assert q.invariants.torsion == (2, 2)


def test_closed_table_invariants(sigma):
    p = presentation_from_complex(sigma)
    table = parity_kernel_table(p)
    table.verify_closed()  # columns permute, relators trace, subgens fix 0
    live = table.live_cosets()
    assert live == [0, 1, 2, 3]


def test_subgroup_generators_restrict_enumeration():
    # index of <x> in S3 via explicit subgroup generators
    p = pres(["x", "y"], "x^3", "y^2", "x*y*x*y")
    table = enumerate_cosets(p, subgens=[p.parse_word("x")])
    assert table.index == 2


def test_closed_table_is_verified_against_the_subgroup_words_as_given():
    # The enumeration scans x*y*x^-1 as given from coset 0, not its cyclic
    # reduction y, so <y, x*y*x^-1> closes as all of S3.
    p = pres(["x", "y"], "x^3", "y^2", "x*y*x*y")
    y, conjugate = p.parse_word("y"), p.parse_word("x*y*x^-1")
    for strategy in ("hlt", "felsch"):
        assert enumerate_cosets(p, [y, conjugate], strategy=strategy).index == 1
    # verify_closed traces the words as given: the table of <y> (index 3)
    # is refused for x*y*x^-1, which moves coset 0
    table = enumerate_cosets(p, [y])
    assert table.index == 3
    table.subgens = (conjugate,)
    with pytest.raises(VerificationError, match="moves coset 0"):
        table.verify_closed()


@pytest.fixture(scope="module")
def witness_closures(sigma):
    p = presentation_from_complex(sigma)
    w = p.parse_word("a2*a1^-1*a3*a4^-1")
    return {s: normal_closure_table(p, w, strategy=s) for s in ("hlt", "felsch")}


def test_normal_closure_sigma_word(witness_closures):
    table = witness_closures["hlt"]
    assert table.index == 4
    q = quotient_structure(table)
    assert q.abelian
    assert q.invariants.torsion == (2, 2)


def test_normal_closure_of_empty_word_is_trivial_subgroup():
    assert normal_closure_index(pres(["x"], "x^3"), ()) == 3


def test_free_group_closure_exhausts():
    free2 = Presentation.build(("x", "y"), [])
    with pytest.raises(EnumerationExhausted):
        normal_closure_index(free2, (0,), cap=1000)


def test_exhaustion_is_resource_not_mathematical(sigma):
    # the same enumeration closes at a workable cap
    p = presentation_from_complex(sigma)
    w = p.parse_word("a2*a1^-1*a3*a4^-1")
    with pytest.raises(EnumerationExhausted):
        normal_closure_table(p, w, cap=50)
    assert normal_closure_table(p, w, cap=10**6).index == 4


def test_standardized_table_is_canonical():
    rng = random.Random(3)
    p = pres(["x", "y"], "x^3", "y^2", "x*y*x*y")
    reference = enumerate_cosets(p).table
    for _ in range(5):
        relators = list(p.relators)
        rng.shuffle(relators)
        shuffled = Presentation.build(p.generators, relators)
        assert enumerate_cosets(shuffled).table == reference


def test_hlt_and_felsch_agree(witness_closures):
    assert witness_closures["hlt"].table == witness_closures["felsch"].table


def test_witness_closure_counters(sigma, witness_closures):
    # exact work counts: they move only if the order of definitions,
    # deductions and coincidences does
    assert [t.summary() for t in witness_closures.values()] == [
        {"index": 4, "strategy": "hlt", "max_live": 558, "total_defined": 561},
        {"index": 4, "strategy": "felsch", "max_live": 1508, "total_defined": 1516},
    ]
    p = presentation_from_complex(sigma)
    w = p.parse_word("a2*a1^-1*a3*a4^-1")
    # a cap between peak live and total defined: the cap path compresses
    # dead rows away and the table still closes.  HLT's closure loses only
    # 3 cosets, at its end, so no such cap closes it; its cap path runs on
    # the closure with the witness last (peak 1,160 live, 1,173 defined).
    last = Presentation.build(p.generators, p.relators + (cyclic_reduce(w),), p.sides)
    for table, cap in ((enumerate_cosets(last, (), 1165, "hlt"), 1165),
                       (normal_closure_table(p, w, cap=1512, strategy="felsch"), 1512)):
        assert table.index == 4
        assert table.max_live < cap < table.total_defined
    for cap in (559, 560):
        with pytest.raises(EnumerationExhausted):
            normal_closure_table(p, w, cap=cap, strategy="hlt")
    # a cap below peak live: both strategies exhaust
    for strategy in ("hlt", "felsch"):
        with pytest.raises(EnumerationExhausted):
            normal_closure_table(p, w, cap=500, strategy=strategy)


# sha256 of the repr of sigma's standardized index-4 table
WITNESS_TABLE_DIGEST = "58f637260d59eae5c77136ad99aa2cbe3e9c9e21638bd2bcc3176f18e7de43d1"


def test_witness_last_keeps_the_deduction_work(sigma, witness_closures):
    # The deduction loop's inline scans must make the definitions,
    # deductions and coincidences of a scan without definitions, in the
    # same order; with the witness as the last relator these are the
    # counts and the table that such scans give, and every order of
    # the relators gives the same standardized table.
    p = presentation_from_complex(sigma)
    w = p.parse_word("a2*a1^-1*a3*a4^-1")
    last = Presentation.build(p.generators, p.relators + (cyclic_reduce(w),), p.sides)
    tables = {s: enumerate_cosets(last, strategy=s) for s in ("hlt", "felsch")}
    assert [t.summary() for t in tables.values()] == [
        {"index": 4, "strategy": "hlt", "max_live": 1160, "total_defined": 1173},
        {"index": 4, "strategy": "felsch", "max_live": 2154, "total_defined": 2165},
    ]
    for table in (*tables.values(), *witness_closures.values()):
        digest = hashlib.sha256(repr(table.table).encode()).hexdigest()
        assert digest == WITNESS_TABLE_DIGEST


class _CountedCompressions(CosetTable):
    """Counts the cap path's compressions: the calls of _keep_rows outside
    _close (standardizing a closed table keeps rows too)."""

    compressions = 0
    closing = False

    def _close(self):
        self.closing = True
        super()._close()

    def _keep_rows(self, order):
        if not self.closing:
            self.compressions += 1
        super()._keep_rows(order)


class _CheckedCoincidences(_CountedCompressions):
    """Checks the rule that the deduction loop's skip relies on: after a
    coincidence, every coset still live keeps each entry it had defined,
    and its entries point to live cosets."""

    coincidences = 0

    def _coincidence(self, a, b):
        p = self.p
        before = [
            (k, [c for c, entry in enumerate(row) if entry is not None])
            for k, row in enumerate(self.table) if p[k] == k
        ]
        super()._coincidence(a, b)
        self.coincidences += 1
        for k, defined in before:
            if p[k] != k:
                continue
            row = self.table[k]
            assert all(row[c] is not None for c in defined), (k, defined, row)
            assert all(p[entry] == entry for entry in row if entry is not None), (k, row)


def _witness_quotient(sigma, witness_first):
    """Sigma's presentation with the witness added as a relator, first (as
    normal_closure_table builds it) or last."""
    p = presentation_from_complex(sigma)
    w = (cyclic_reduce(p.parse_word("a2*a1^-1*a3*a4^-1")),)
    relators = w + p.relators if witness_first else p.relators + w
    return Presentation.build(p.generators, relators, p.sides)


@pytest.mark.parametrize("strategy,witness_first,cap", [("hlt", True, 10**6),
                                                        ("felsch", True, 10**6),
                                                        ("hlt", False, 1165),
                                                        ("felsch", True, 1512)])
def test_coincidences_keep_live_entries(sigma, strategy, witness_first, cap):
    # sigma's witness closure; the smaller caps are those of
    # test_witness_closure_counters, where the cap path compresses dead
    # rows away and the table still closes
    quotient = _witness_quotient(sigma, witness_first)
    table = _CheckedCoincidences(quotient, (), cap, strategy).run()
    assert table.index == 4 and table.coincidences > 0
    assert (table.compressions > 0) == (cap < 10**6)
    assert table.summary() == CosetTable(quotient, (), cap, strategy).run().summary()


class _CheckedPreferred(_CountedCompressions):
    """Checks the preferred definition list: it is empty whenever the cap
    path compresses the table, and each preferred definition is of a live
    coset's undefined entry."""

    preferred = 0
    in_preferred = False

    def _keep_rows(self, order):
        assert self.closing or not self._preferred
        super()._keep_rows(order)

    def _define_preferred(self):
        self.in_preferred = True
        try:
            super()._define_preferred()
        finally:
            self.in_preferred = False

    def _define(self, alpha, col):
        if self.in_preferred:
            assert self.p[alpha] == alpha and self.table[alpha][col] is None, (alpha, col)
            self.preferred += 1
        return super()._define(alpha, col)


@pytest.mark.parametrize("strategy,witness_first,cap", [("hlt", False, 1165),
                                                        ("felsch", True, 1512)])
def test_preferred_definitions_at_the_cap(sigma, strategy, witness_first, cap):
    # sigma's witness closure with a cap between peak live and total
    # defined (for HLT with the witness last, as in
    # test_witness_closure_counters): it compresses and still closes
    quotient = _witness_quotient(sigma, witness_first)
    table = _CheckedPreferred(quotient, (), cap, strategy).run()
    assert table.index == 4
    assert table.compressions > 0 and table.preferred > 0


class _CountedCosetZeroScans(_CountedCompressions):
    """Counts the scans with definitions made from coset 0."""

    zero_scans = 0

    def _scan(self, alpha, cols):
        self.zero_scans += alpha == 0
        super()._scan(alpha, cols)


@pytest.mark.parametrize("strategy,witness_first,cap,counts",
                         [("hlt", False, 1165, (1160, 1173)),
                          ("felsch", True, 1512, (1508, 1516))])
def test_compression_carries_on_from_the_coset_in_progress(sigma, strategy, witness_first,
                                                           cap, counts):
    # each run compresses once, after coset 0's turn: coset 0 scans each of
    # the 25 relators once, where a restart from coset 0 would scan them
    # all again; the work counts are those of the same runs without a cap
    quotient = _witness_quotient(sigma, witness_first)
    table = _CountedCosetZeroScans(quotient, (), cap, strategy).run()
    assert table.index == 4 and table.compressions == 1
    assert table.zero_scans == len(quotient.relators) == 25
    assert (table.max_live, table.total_defined) == counts


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
def test_preferred_definitions_until_exhaustion(strategy):
    # a torus word whose quotient is infinite: the table compresses at the
    # cap, then exhausts it
    torus = pres(["x", "y"], "x*y*x^-1*y^-1", "x*y*x*y^-1*x^-1*y")
    table = _CheckedPreferred(torus, (), 2000, strategy)
    with pytest.raises(EnumerationExhausted):
        table.run()
    assert table.compressions > 0 and table.preferred > 0


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
def test_cap_hit_in_subgroup_generator_scan_is_exhaustion(strategy):
    # the cap is reached while scanning a subgroup generator from coset 0;
    # callers must see the public resource verdict
    p = pres(["x", "y"], "x^3")
    with pytest.raises(EnumerationExhausted):
        enumerate_cosets(p, [p.parse_word("y*x*y*x*y^-1")], cap=2, strategy=strategy)


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
def test_length_one_relator_closes_at_a_tight_cap(strategy):
    # y = 1 is known on every coset as soon as the coset exists, so y^-2*x
    # gives x = 1 without defining cosets along y
    p = pres(["x", "y"], "x^3", "y^6", "y^-2*x", "y^-1")
    table = enumerate_cosets(p, cap=2, strategy=strategy)
    assert table.index == 1
    assert table.total_defined == 2


def _random_word(rng, ngens, lo, hi):
    return free_reduce(
        [2 * rng.randrange(ngens) + (rng.choice((1, -1)) < 0)
         for _ in range(rng.randint(lo, hi))]
    )


def test_strategies_agree_on_random_presentations():
    # Felsch scans only the relator rotations through each deduced entry;
    # wherever both strategies close, the standardized tables must agree
    rng = random.Random(2024)
    closed = nontrivial = 0
    for _ in range(300):
        ngens = rng.randint(2, 3)
        relators = [(2 * g,) * rng.randint(2, 5) for g in range(ngens)
                    if rng.random() < 0.7]
        relators += [_random_word(rng, ngens, 2, 10) for _ in range(rng.randint(1, 3))]
        p = Presentation.build(("x", "y", "z")[:ngens], relators)
        subgens = [_random_word(rng, ngens, 1, 4) for _ in range(rng.randint(0, 2))]
        tables = {}
        for strategy in ("hlt", "felsch"):
            try:
                tables[strategy] = enumerate_cosets(p, subgens, 1000, strategy)
            except EnumerationExhausted:
                pass
        if len(tables) == 2:
            assert tables["hlt"].table == tables["felsch"].table, str(p)
            table = tables["hlt"]
            # the recorded spanning tree reaches every other coset once, and
            # each transversal word leads from coset 0 to its own coset
            assert len(table.tree) == table.index - 1
            words = schreier_transversal(table)
            assert [table.trace(0, w) for w in words] == list(range(table.index))
            closed += 1
            nontrivial += table.index > 1
    assert closed >= 200 and nontrivial >= 50


def _random_presentations():
    """The presentations and subgroup generators that
    test_strategies_agree_on_random_presentations draws, in its order."""
    rng = random.Random(2024)
    for _ in range(300):
        ngens = rng.randint(2, 3)
        relators = [(2 * g,) * rng.randint(2, 5) for g in range(ngens)
                    if rng.random() < 0.7]
        relators += [_random_word(rng, ngens, 2, 10) for _ in range(rng.randint(1, 3))]
        p = Presentation.build(("x", "y", "z")[:ngens], relators)
        yield p, [_random_word(rng, ngens, 1, 4) for _ in range(rng.randint(0, 2))]


# sha256 of the repr of the list of (summary(), table) of each enumeration
# below, "x" for one that exhausts its cap
RANDOM_ENUMERATIONS_DIGEST = "f692c712739c72585acd0fbdb57d9370d00d76d19d90dd7cd6c74a2fc5ca89f1"


def test_random_enumerations_are_pinned():
    # The exact work and tables of both strategies, beyond sigma's one
    # labelling: relators of length 1 and 2, proper powers, subgroup
    # generators, and tables that reach the cap and compress their dead
    # rows.  It moves only if the order of definitions, deductions or
    # coincidences does.
    results = []
    for p, subgens in _random_presentations():
        for strategy in ("hlt", "felsch"):
            try:
                table = enumerate_cosets(p, subgens, 1000, strategy)
            except EnumerationExhausted:
                results.append("x")
            else:
                results.append((table.summary(), table.table))
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == RANDOM_ENUMERATIONS_DIGEST


def test_preferred_definitions_on_random_presentations():
    # unlike sigma's closures, these record entries of cosets that die
    # before the entries are popped, and some compress at the cap
    compressions = preferred = 0
    for p, subgens in _random_presentations():
        for strategy in ("hlt", "felsch"):
            table = _CheckedPreferred(p, subgens, 1000, strategy)
            try:
                table.run()
            except EnumerationExhausted:
                pass
            compressions += table.compressions
            preferred += table.preferred
    assert compressions > 0 and preferred > 0


# generators, relators, subgroup generators, index
SYMPY_CASES = [
    ("A5", ["x", "y"], ["x^2", "y^3", "x*y*x*y*x*y*x*y*x*y"], [], 60),
    ("A5 mod <y>", ["x", "y"], ["x^2", "y^3", "x*y*x*y*x*y*x*y*x*y"], ["y"], 20),
    ("S3", ["x", "y"], ["x^3", "y^2", "x*y*x*y"], [], 6),
    ("S3 mod <x>", ["x", "y"], ["x^3", "y^2", "x*y*x*y"], ["x"], 2),
    ("Q8", ["x", "y"], ["x^4", "x^2*y^-2", "y^-1*x*y*x"], [], 8),
    ("proper power", ["x", "y"], ["x^2", "y^3", "x*y*x*y*x*y*x*y"], ["x*y"], 6),
    ("empty relator", ["x", "y"], ["x^2", "y^2", "1", "x*y*x*y*x*y"], [], 6),
]


@pytest.mark.parametrize("name,gens,rels,subgens,index",
                         SYMPY_CASES, ids=[c[0] for c in SYMPY_CASES])
def test_index_matches_sympy(name, gens, rels, subgens, index):
    pytest.importorskip("sympy")
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    free, *letters = free_group(" ".join(gens))
    p = pres(gens, *rels)

    def to_sympy(word):
        element = free.identity
        for x in word:
            element *= letters[x >> 1] ** (-1 if x & 1 else 1)
        return element

    group = FpGroup(free, [to_sympy(r) for r in p.relators])
    words = [p.parse_word(w) for w in subgens]
    assert group.index([to_sympy(w) for w in words]) == index
    for strategy in ("hlt", "felsch"):
        assert enumerate_cosets(p, words, strategy=strategy).index == index


def test_felsch_exhaustion_is_a_resource_verdict():
    # infinite index: Felsch must run out of cosets, never close wrongly
    # or fail a check
    with pytest.raises(EnumerationExhausted):
        enumerate_cosets(Presentation.build(("x", "y"), []), cap=1000,
                         strategy="felsch")
    torus = pres(["x", "y"], "x*y*x^-1*y^-1")
    with pytest.raises(EnumerationExhausted):
        normal_closure_index(torus, torus.parse_word("x*y^2"), cap=2000,
                             strategy="felsch")


def test_quotient_cyclic_six():
    q = quotient_structure(enumerate_cosets(pres(["x"], "x^6")))
    assert q.order == 6
    assert q.abelian
    assert q.invariants.torsion == (6,)


def test_quotient_s3_nonabelian():
    q = quotient_structure(enumerate_cosets(pres(["x", "y"], "x^3", "y^2", "x*y*x*y")))
    assert q.order == 6
    assert not q.abelian
    assert q.invariants is None


def test_quotient_invariants_c2xc4():
    q = quotient_structure(
        enumerate_cosets(pres(["x", "y"], "x^2", "y^4", "x*y*x^-1*y^-1"))
    )
    assert q.abelian
    assert q.invariants.torsion == (2, 4)


def test_quotient_rejects_non_normal_subgroup_of_large_index():
    # <y> has index 65 in the dihedral group of order 130 and is not normal
    p = pres(["x", "y"], "x^65", "y^2", "x*y*x*y")
    table = enumerate_cosets(p, subgens=[p.parse_word("y")])
    assert table.index == 65
    with pytest.raises(VerificationError, match="not normal"):
        quotient_structure(table)
    # the normal subgroup <x> and the trivial subgroup of Z/70 pass
    assert quotient_structure(enumerate_cosets(p, subgens=[p.parse_word("x")])).order == 2
    q = quotient_structure(enumerate_cosets(pres(["x"], "x^70")))
    assert q.order == 70 and q.invariants.torsion == (70,)


def test_abelian_flag_matches_the_multiplication_table_oracle():
    # quotient_structure decides commutativity from the generators'
    # commutators at coset 0; the oracle compares all n^2 products
    normal = nonabelian = refused = 0
    for p, subgens in _random_presentations():
        for words in ((), subgens) if subgens else ((),):
            try:
                table = enumerate_cosets(p, words, 1000)
            except EnumerationExhausted:
                continue
            try:
                q = quotient_structure(table)
            except VerificationError as exc:
                assert "not normal" in str(exc)
                refused += 1
                continue
            assert q.abelian == quotient_is_abelian(table), (str(p), words)
            normal += 1
            nonabelian += not q.abelian
    assert normal >= 350 and nonabelian >= 15 and refused >= 1


def test_closure_index_equals_quotient_order(sigma):
    p = presentation_from_complex(sigma)
    w = p.parse_word("a2*a1^-1*a3*a4^-1")
    table = normal_closure_table(p, w)
    assert quotient_structure(table).order == table.index == 4


def test_parity_kernel_table_matches_enumerated_closure(sigma):
    p = presentation_from_complex(sigma)
    w = p.parse_word("a2*a1^-1*a3*a4^-1")
    assert parity_kernel_table(p).table == normal_closure_table(p, w).table


def test_parity_kernel_subgroup_generators_are_its_schreier_generators(lam, delta, sigma):
    # the directly built table carries the Schreier generators of its own
    # spanning tree, without the trivial words of the tree edges
    for c in (lam, delta, sigma):
        p = presentation_from_complex(c)
        table = parity_kernel_table(p)
        assert table.subgens == tuple(schreier_generator_words(p, table))
        assert len(table.subgens) == 4 * len(p.generators) - 3


def test_parity_kernel_quotient_is_klein_four(lam, delta, sigma):
    # delta's abelianization is Z^3, so the invariants must come from the
    # kernel's generators, not from the parent presentation alone
    for c in (lam, delta, sigma):
        q = quotient_structure(parity_kernel_table(presentation_from_complex(c)))
        assert q.invariants.torsion == (2, 2)


def test_table_dump_formats(sigma):
    p = presentation_from_complex(sigma)
    summary = parity_kernel_table(p).summary()
    assert summary["index"] == 4
    assert set(summary) == {"index", "strategy", "max_live", "total_defined"}


def test_cap_must_be_positive(sigma):
    p = presentation_from_complex(sigma)
    with pytest.raises(ValueError):
        CosetTable(p, cap=0)


def test_unknown_strategy_and_open_table_are_refused():
    p = pres(["x"], "x^2")
    with pytest.raises(ValueError, match="^unknown strategy 'bfs'$"):
        CosetTable(p, strategy="bfs")
    with pytest.raises(ValueError, match="^quotient structure requires a closed table$"):
        quotient_structure(CosetTable(p))


def test_verification_survives_optimize_flag():
    # the closed-table, orbit-stabilizer, Reidemeister-Schreier, local
    # action, abelian-invariant and quotient checks are raises, not
    # asserts, so python -O keeps them
    import os
    import subprocess
    import sys
    from pathlib import Path

    import vhcert

    script = (
        "from vhcert import corpus\n"
        "from vhcert.fpgroups import presentation_from_complex\n"
        "from vhcert.todd_coxeter import parity_kernel_table\n"
        "table = parity_kernel_table(presentation_from_complex(corpus.load('sigma')))\n"
        "table.table[0][0] = 0\n"
        "try:\n"
        "    table.verify_closed()\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "import vhcert.permgroups as pg\n"
        "group = pg.PermGroup([pg.Permutation.parse('(1,2,3,4)'),\n"
        "                      pg.Permutation.parse('(1,2)', 4)])\n"
        "class Corrupt(pg.PermGroup):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        super().__init__(*args, **kwargs)\n"
        "        self.order += 1\n"
        "pg.PermGroup = Corrupt\n"
        "try:\n"
        "    pg.point_stabilizer(group, 0)\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "from vhcert.fpgroups import Presentation\n"
        "import vhcert.reidemeister_schreier as rs\n"
        "p = presentation_from_complex(corpus.load('sigma'))\n"
        "rs._transversal_words = lambda table: [(), (0, 2)]  # (0,) is missing\n"
        "try:\n"
        "    rs.schreier_transversal(parity_kernel_table(p))\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "odd = Presentation.build(p.generators, p.relators + ((0,),))\n"
        "try:\n"
        "    rs.subgroup_presentation(odd, parity_kernel_table(p))\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "from vhcert.local_actions import LocalPerm\n"
        "lam = corpus.load('lambda')  # a1 is letter 0, b1 and b2 are 6 and 8\n"
        "try:\n"
        "    LocalPerm(lam, 0, {6: 6, 8: 6}, {})\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "try:\n"
        "    LocalPerm(lam, 0, {6: 6}, {6: 6})\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "from vhcert.fpgroups import AbelianInvariants\n"
        "try:\n"
        "    AbelianInvariants(0, (4, 2))\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "import vhcert.todd_coxeter as tc\n"
        "dihedral = Presentation.build(('x', 'y'), ((0,) * 65, (2, 2), (0, 2, 0, 2)))\n"
        "try:  # <y> has index 65 and is not normal\n"
        "    tc.quotient_structure(tc.enumerate_cosets(dihedral, [(2,)]))\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "tc.abelianization = lambda p: AbelianInvariants(0, (2,))  # not Z/2 x Z/2\n"
        "try:\n"
        "    tc.quotient_structure(parity_kernel_table(p))\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    src = str(Path(vhcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    ).stdout
    assert out == (
        "VerificationError column is not a permutation\n"
        "VerificationError stabilizer order breaks the orbit-stabilizer identity\n"
        "VerificationError transversal is not prefix-closed\n"
        "VerificationError relator does not close up in the table\n"
        "VerificationError depth-1 map is not a bijection\n"
        "VerificationError a residual letter is not on the actor's side\n"
        "VerificationError torsion coefficients must form a divisor chain\n"
        "VerificationError the subgroup is not normal: a subgroup generator moves a coset\n"
        "VerificationError abelian invariants disagree with the quotient order\n"
    )


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # vanish; every check in the library must be a raise
    import ast
    from pathlib import Path

    import vhcert

    root = Path(vhcert.__file__).resolve().parent
    asserts = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
