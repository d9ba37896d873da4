"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact; every comparison is equality.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from vhcert.certificates import amalgam_ranks, nst_check, simplicity_certificate
from vhcert.complexes import check_subcomplex, letters_from_names
from vhcert.fpgroups import (
    AbelianInvariants,
    abelianization,
    presentation_from_complex,
    smith_normal_form,
)
from vhcert.local_actions import local_group
from vhcert.permgroups import (
    Permutation,
    bsgs_build,
    is_k_transitive,
    is_whitelisted_nonabelian_simple,
    point_stabilizer,
    recognize,
)
from vhcert.reidemeister_schreier import (
    is_perfect,
    subgroup_presentation,
    tietze_simplify,
)
from vhcert.todd_coxeter import (
    enumerate_cosets,
    normal_closure_table,
    parity_kernel_table,
    quotient_structure,
)

from oracles import determinant

DATA = Path(__file__).parent / "data"
WORD = "a2*a1^-1*a3*a4^-1"


@contextmanager
def criterion(number: int, label: str, seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")
    assert elapsed < seconds, f"criterion {number} exceeded {seconds}s ({elapsed:.2f}s)"


def test_criterion_1_lambda_local_groups(lam):
    with criterion(1, "lambda local groups and sphere-2 order", 1.0):
        ph1 = local_group(lam, "h", 1)
        pv1 = local_group(lam, "v", 1)
        assert ph1.order == 360 and recognize(ph1) == "Alt(6)"
        assert pv1.order == 360 and recognize(pv1) == "Alt(6)"
        assert local_group(lam, "v", 2).order == 360 * 60**6


def test_criterion_2_lambda_nst(lam):
    with criterion(2, "lambda stabilizers and NST hypotheses", 1.0):
        for side in ("h", "v"):
            stab = point_stabilizer(local_group(lam, side, 1), 0)
            assert stab.order == 60
            assert is_whitelisted_nonabelian_simple(stab) is True
        assert nst_check(lam).verdict == "pass"


def test_criterion_3_sigma_local_groups(sigma):
    with criterion(3, "sigma local groups (M12 / A8, degree-56 sphere)", 5.0):
        ph1 = local_group(sigma, "h", 1)
        assert ph1.order == 95040 and recognize(ph1) == "M12"
        assert is_k_transitive(ph1, 5)
        stab = point_stabilizer(ph1, 0)
        assert stab.order == 7920 and recognize(stab) == "M11"
        pv1 = local_group(sigma, "v", 1)
        assert pv1.order == 20160 and recognize(pv1) == "Alt(8)"
        assert local_group(sigma, "v", 2).order == 20160 * 2520**8


def test_criterion_4_delta_embedding(sigma, delta):
    with criterion(4, "delta subcomplex embeds in sigma", 1.0):
        ok, sub = check_subcomplex(
            sigma,
            letters_from_names(sigma, ["a1", "a2", "a3", "a4"]),
            letters_from_names(sigma, ["b1", "b2", "b3"]),
        )
        assert ok
        assert len(sub.squares) == 12
        assert sub.squares == delta.squares


def test_criterion_5_closure_enumeration(sigma):
    with criterion(5, "normal closure index 4 with quotient (2,2)", 60.0):
        p = presentation_from_complex(sigma)
        table = normal_closure_table(p, p.parse_word(WORD))
        assert table.index == 4
        q = quotient_structure(table)
        assert q.abelian and q.invariants.torsion == (2, 2)


def test_criterion_6_abelianizations(delta, sigma):
    with criterion(6, "abelianizations of delta and sigma", 1.0):
        assert abelianization(
            presentation_from_complex(delta)
        ) == AbelianInvariants(free_rank=3, torsion=())
        assert abelianization(
            presentation_from_complex(sigma)
        ) == AbelianInvariants(free_rank=0, torsion=(2, 2))


def test_criterion_7_reidemeister_schreier(sigma):
    with criterion(7, "subgroup presentation 37/96, simplified r-g=59", 30.0):
        p = presentation_from_complex(sigma)
        sub = subgroup_presentation(p, parity_kernel_table(p))
        assert len(sub.generators) == 37
        assert len(sub.relators) == 96
        simplified = tietze_simplify(sub)
        g, r = len(simplified.generators), len(simplified.relators)
        assert r - g == 59
        assert g <= 10
        assert is_perfect(simplified)


def test_criterion_8_amalgam_ranks():
    with criterion(8, "amalgam splitting ranks and Euler identity", 1.0):
        cases = {
            (6, 4): {(7, 73, 7), (11, 81, 11)},
            (175, 109): {(349, 75865, 349), (217, 75601, 217)},
            (3960, 24): {(7919, 380065, 7919), (47, 364321, 47)},
        }
        for (m, n), expected in cases.items():
            assert {s.as_tuple() for s in amalgam_ranks(m, n)} == expected
        for m in range(1, 51):
            for n in range(1, 51):
                amalgam_ranks(m, n)  # raises on any Euler mismatch


def test_criterion_9_full_certificate(sigma):
    with criterion(9, "simplicity certificate matches the golden file", 90.0):
        cert = simplicity_certificate(sigma, WORD, assume_nrf=True)
        assert cert.simple and cert.index == 4
        assert len(cert.assumptions) == 1
        assert cert.assumptions[0]["acknowledged"] is True
        expected = json.loads((DATA / "sigma_certificate.json").read_text())
        assert cert.as_dict() == expected
        assert "simple group of index 4" in cert.conclusion


def test_criterion_10a_bsgs_vs_brute_enumeration():
    with criterion(10, "BSGS order = brute enumeration, 200 subgroups", 120.0):
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


def test_criterion_10b_coset_enumeration_vs_brute_order():
    from tests.test_todd_coxeter import GROUP_CORPUS, assert_realizes, brute_order, pres

    with criterion(10, "Todd-Coxeter index = brute order, 10+ presentations", 60.0):
        assert len(GROUP_CORPUS) >= 10
        for _, gens, rels, perms, degree in GROUP_CORPUS:
            p = pres(gens, *rels)
            assert_realizes(p, perms, degree)
            assert enumerate_cosets(p).index == brute_order(perms, degree) <= 24


def test_criterion_10c_snf_properties():
    with criterion(10, "SNF unimodularity/divisibility, 500 matrices", 60.0):
        rng = random.Random(77)
        for _ in range(500):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            matrix = [
                [rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)
            ]
            factors, u, v = smith_normal_form(matrix)  # verifies M = U*D*V
            assert determinant(u) in (1, -1)
            assert determinant(v) in (1, -1)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0


def test_criterion_10d_tietze_conservation(lam, sigma):
    with criterion(10, "r - g conserved across every Tietze move", 60.0):
        # tietze_simplify asserts conservation after each individual move
        for c in (lam, sigma):
            p = presentation_from_complex(c)
            sub = subgroup_presentation(p, parity_kernel_table(p))
            simplified = tietze_simplify(sub)
            assert (len(simplified.relators) - len(simplified.generators)
                    == len(sub.relators) - len(sub.generators))


def test_criterion_10e_orbit_stabilizer(lam, sigma):
    with criterion(10, "orbit-stabilizer identity on computed groups", 60.0):
        # point_stabilizer asserts |stab| * |orbit| == |G| on every call
        for c in (lam, sigma):
            for side in ("h", "v"):
                group = local_group(c, side, 1)
                for point in range(0, group.degree, 3):
                    point_stabilizer(group, point)
