import hashlib
import random

import pytest

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
        for g, e in rel:
            value = value * (perms[g] if e > 0 else perms[g].inverse())
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
        normal_closure_index(free2, ((0, 1),), cap=1000)


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
        {"index": 4, "strategy": "hlt", "max_live": 3041, "total_defined": 3079},
        {"index": 4, "strategy": "felsch", "max_live": 4940, "total_defined": 5008},
    ]
    p = presentation_from_complex(sigma)
    w = p.parse_word("a2*a1^-1*a3*a4^-1")
    # a cap between peak live and total defined: the cap path compresses
    # dead rows away and the table still closes
    for strategy, cap in (("hlt", 3060), ("felsch", 5000)):
        table = normal_closure_table(p, w, cap=cap, strategy=strategy)
        assert table.index == 4
        assert table.max_live < cap < table.total_defined
    # a cap below peak live: both strategies exhaust
    for strategy in ("hlt", "felsch"):
        with pytest.raises(EnumerationExhausted):
            normal_closure_table(p, w, cap=3000, strategy=strategy)


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
        {"index": 4, "strategy": "hlt", "max_live": 5206, "total_defined": 5289},
        {"index": 4, "strategy": "felsch", "max_live": 4940, "total_defined": 5008},
    ]
    for table in (*tables.values(), *witness_closures.values()):
        digest = hashlib.sha256(repr(table.table).encode()).hexdigest()
        assert digest == WITNESS_TABLE_DIGEST


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
        [(rng.randrange(ngens), rng.choice((1, -1))) for _ in range(rng.randint(lo, hi))]
    )


def test_strategies_agree_on_random_presentations():
    # Felsch scans only the relator rotations through each deduced entry;
    # wherever both strategies close, the standardized tables must agree
    rng = random.Random(2024)
    closed = nontrivial = 0
    for _ in range(300):
        ngens = rng.randint(2, 3)
        relators = [((g, 1),) * rng.randint(2, 5) for g in range(ngens)
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
            words = schreier_transversal(table).words
            assert [table.trace(0, w) for w in words] == list(range(table.index))
            closed += 1
            nontrivial += table.index > 1
    assert closed >= 200 and nontrivial >= 50


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
        for g, e in word:
            element *= letters[g] ** e
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


def test_verification_survives_optimize_flag():
    # the closed-table, orbit-stabilizer, Reidemeister-Schreier, local
    # action and abelian-invariant checks are raises, not asserts, so
    # python -O keeps them
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
        "from vhcert.reidemeister_schreier import Transversal, subgroup_presentation\n"
        "try:\n"
        "    Transversal(((), ((0, 1), (1, 1))))\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "p = presentation_from_complex(corpus.load('sigma'))\n"
        "odd = Presentation.build(p.generators, p.relators + (((0, 1),),))\n"
        "try:\n"
        "    subgroup_presentation(odd, parity_kernel_table(p))\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "from vhcert.complexes import Letter\n"
        "from vhcert.local_actions import LocalPerm\n"
        "try:\n"
        "    LocalPerm(Letter('h', 1), {Letter('v', 1): Letter('v', 1),\n"
        "                               Letter('v', 2): Letter('v', 1)}, {})\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "from vhcert.fpgroups import AbelianInvariants\n"
        "try:\n"
        "    AbelianInvariants(0, (4, 2))\n"
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
        "VerificationError torsion coefficients must form a divisor chain\n"
    )
