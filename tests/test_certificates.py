import hashlib
import json
from pathlib import Path

import pytest

from vhcert.certificates import (
    FAIL,
    INAPPLICABLE,
    PASS,
    UNKNOWN,
    Analysis,
    Step,
    amalgam_ranks,
    irreducibility_check,
    nst_check,
    simplicity_certificate,
)
from vhcert.complexes import SquareComplex, parse_complex

DATA = Path(__file__).parent / "data"

COMMUTING_2x2 = (
    "complex torus\nhorizontal a1\nvertical b1\nsquare a1 b1 a1^-1 b1^-1\n"
)

WORD = "a2*a1^-1*a3*a4^-1"


def test_irreducibility_lambda(lam):
    step = irreducibility_check(lam)
    assert step.verdict == PASS
    assert step.values["depth2_order"] == 360 * 60**6
    assert step.values["target_order"] == 360 * 60**6


def test_irreducibility_sigma(sigma):
    step = irreducibility_check(sigma)
    assert step.verdict == PASS
    assert step.values["depth1_recognition"] == "Alt(8)"
    assert step.values["depth2_order"] == 20160 * 2520**8


def test_irreducibility_target_matches_independent_factorials():
    # target |Alt(2n)| * |Alt(2n-1)|^(2n) vs a BSGS-computed alternating order
    from vhcert import corpus
    from vhcert.permgroups import Permutation, bsgs_build

    sigma = corpus.load("sigma")
    step = irreducibility_check(sigma)

    def alt_order(d):
        threecycles = []
        for i in range(d - 2):
            threecycles.append(Permutation.from_cycles([(i + 1, i + 2, i + 3)], d))
        return bsgs_build(threecycles).order

    assert step.values["target_order"] == alt_order(8) * alt_order(7) ** 8


def test_irreducibility_inapplicable_below_n3():
    c = parse_complex(COMMUTING_2x2)
    step = irreducibility_check(c)
    assert step.verdict == INAPPLICABLE
    assert "n >= 3" in step.values["reason"]


def test_nst_passes_on_corpus(lam, sigma):
    for c, stab_order in ((lam, 60), (sigma, 7920)):
        step = nst_check(c)
        assert step.verdict == PASS
        assert step.values["horizontal_stabilizer_order"] == stab_order


def test_nst_fails_on_commuting_squares():
    step = nst_check(parse_complex(COMMUTING_2x2))
    assert step.verdict == FAIL
    assert "2-transitive" in step.values["reason"]


def test_nst_follows_a_failed_or_inapplicable_irreducibility_step(sigma):
    # every other hypothesis holds on sigma; the shared irreducibility step
    # alone decides these two verdicts
    for verdict, reason in (
        (FAIL, "irreducibility criterion fails"),
        (INAPPLICABLE, "irreducibility criterion inapplicable"),
    ):
        a = Analysis(sigma)
        a.irreducibility = Step("irreducibility", verdict, {}, "")
        step = nst_check(a)
        assert step.verdict == verdict
        assert step.values["irreducibility"] == verdict
        assert step.values["reason"] == reason


def test_nst_unknown_when_stabilizer_simplicity_is_undecided(sigma, monkeypatch):
    import vhcert.certificates as certificates

    monkeypatch.setattr(certificates, "recognized_simplicity", lambda *args: None)
    step = nst_check(sigma)
    assert step.verdict == UNKNOWN
    assert step.values["reason"] == (
        "horizontal stabilizer simplicity undecided; "
        "vertical stabilizer simplicity undecided"
    )


def test_amalgam_rank_instances():
    cases = {
        (6, 4): {(7, 73, 7), (11, 81, 11)},
        (175, 109): {(349, 75865, 349), (217, 75601, 217)},
        (3960, 24): {(7919, 380065, 7919), (47, 364321, 47)},
    }
    for (m, n), expected in cases.items():
        got = {s.as_tuple() for s in amalgam_ranks(m, n)}
        assert got == expected


def test_amalgam_edge_indices():
    s1, s2 = amalgam_ranks(6, 4)
    assert (s1.edge_index, s2.edge_index) == (12, 8)


def test_amalgam_euler_consistency_exhaustive():
    # the identity check inside amalgam_ranks must hold for all small m, n
    for m in range(1, 51):
        for n in range(1, 51):
            amalgam_ranks(m, n)


def test_full_certificate_sigma(sigma):
    cert = simplicity_certificate(sigma, WORD, assume_nrf=True)
    assert cert.simple
    assert cert.index == 4
    assert [s.verdict for s in cert.steps] == [PASS] * 6
    assert len(cert.assumptions) == 1
    assert cert.assumptions[0]["acknowledged"] is True
    assert "simple" in cert.conclusion and "index 4" in cert.conclusion


def test_certificate_index_agrees_with_quotient_and_kernel(sigma):
    # three independently computed numbers: the certificate's closure
    # index, the order of the enumerated quotient, and the index of the
    # directly built parity kernel table
    from vhcert.fpgroups import presentation_from_complex
    from vhcert.todd_coxeter import (
        normal_closure_table,
        parity_kernel_table,
        quotient_structure,
    )

    cert = simplicity_certificate(sigma, WORD, assume_nrf=True)
    p = presentation_from_complex(sigma)
    quotient = quotient_structure(normal_closure_table(p, p.parse_word(WORD)))
    assert cert.index == quotient.order == parity_kernel_table(p).index == 4


def test_certificate_golden_file(sigma):
    cert = simplicity_certificate(sigma, WORD, assume_nrf=True)
    expected = json.loads((DATA / "sigma_certificate.json").read_text())
    assert cert.as_dict() == expected


def test_certificate_without_acknowledgement_is_partial(sigma):
    cert = simplicity_certificate(sigma, WORD, assume_nrf=False)
    assert not cert.simple
    assert cert.assumptions[0]["acknowledged"] is False
    assert "not concluded" in cert.conclusion
    # the checks themselves still pass
    assert [s.verdict for s in cert.steps] == [PASS] * 6


def test_certificate_lambda_is_limited(lam):
    cert = simplicity_certificate(lam, "a1*b1", assume_nrf=True, cap=100_000)
    by_name = {s.name: s for s in cert.steps}
    assert by_name["subcomplex_embedding"].verdict == INAPPLICABLE
    assert by_name["normal_subgroup_theorem"].verdict == PASS
    assert not cert.simple
    assert "finite index" in cert.conclusion
    assert "simplicity is not established" in cert.conclusion


def test_certificate_fault_injection_link(sigma):
    broken = SquareComplex(sigma.name, sigma.hnames, sigma.vnames, sigma.squares[1:])
    cert = simplicity_certificate(broken, WORD, assume_nrf=True)
    assert not cert.simple
    assert cert.steps[0].verdict == FAIL
    assert all(s.verdict != PASS for s in cert.steps[1:])
    assert "no conclusion" in cert.conclusion


def test_skipped_steps_cite_what_passing_steps_cite(sigma):
    # a step has one citation, whether it ran or a failed link condition
    # skipped it; every step of the golden certificate ran and passed
    golden = json.loads((DATA / "sigma_certificate.json").read_text())
    assert {step["verdict"] for step in golden["steps"]} == {PASS}
    broken = SquareComplex(sigma.name, sigma.hnames, sigma.vnames, sigma.squares[1:])
    cert = simplicity_certificate(broken, WORD)
    assert [s.verdict for s in cert.steps[1:]] == ["skipped"] * 5
    assert [(s.name, s.citation) for s in cert.steps] == [
        (step["name"], step["citation"]) for step in golden["steps"]
    ]


def test_certificate_refutes_assumption_for_odd_parity_word(sigma):
    # the finite residual lies inside the parity kernel, so a word of odd
    # parity refutes the membership assumption instead of using it
    cert = simplicity_certificate(sigma, "a1", assume_nrf=True, cap=100_000)
    by_name = {s.name: s for s in cert.steps}
    assert by_name["normal_closure_index"].values["index"] == 2
    assert by_name["parity_kernel_identification"].verdict == INAPPLICABLE
    assert not cert.simple
    assert "refuted" in cert.conclusion


REFUTED = ": the acknowledged membership assumption is refuted and no simplicity conclusion is drawn"


@pytest.mark.parametrize("word, conclusion", [
    # a typo in the witness's last letter: even, and every step passes, but
    # adding it to delta's relators turns delta^ab = Z^3 into Z^2
    ("a2*a1^-1*a3*a2^-1",
     "the word a2*a1^-1*a3*a2^-1 is not trivial in the abelianization of the "
     "embedded subcomplex's group (Z^3, but Z^2 with the word as a relator), "
     "so it lies outside one of its finite-index subgroups" + REFUTED
     + "; the normal closure of a2*a1^-1*a3*a2^-1 has index 4"),
    ("a1",
     "the word a1 is not in the parity kernel, so it cannot lie in the finite "
     "residual of sigma" + REFUTED + "; the normal closure of a1 has index 2"),
    (WORD,
     "the normal closure of a2*a1^-1*a3*a4^-1 equals the finite residual and "
     "the parity kernel of sigma: a finitely presented, torsion-free, simple "
     "group of index 4"),
], ids=["abelianization", "parity", "witness"])
def test_certificate_refutes_a_word_nontrivial_in_the_subcomplex_abelianization(
    sigma, word, conclusion,
):
    cert = simplicity_certificate(sigma, word, assume_nrf=True, cap=100_000)
    assert [s.verdict for s in cert.steps[:-1]] == [PASS] * 5
    assert cert.conclusion == conclusion
    assert cert.simple == (word == WORD)


def test_amalgam_ranks_refuse_nonpositive_ranks():
    for m, n in ((0, 1), (1, 0), (-2, 3)):
        with pytest.raises(ValueError, match="^m and n must be positive$"):
            amalgam_ranks(m, n)


def test_certificate_fault_injection_word_outside_subcomplex(sigma):
    cert = simplicity_certificate(sigma, "a5*a6^-1*a5^-1*a6", assume_nrf=True)
    by_name = {s.name: s for s in cert.steps}
    assert by_name["subcomplex_embedding"].verdict == FAIL
    assert "outside the subcomplex" in by_name["subcomplex_embedding"].values["reason"]
    assert not cert.simple


def test_certificate_exhaustion_is_reported(sigma):
    cert = simplicity_certificate(sigma, WORD, assume_nrf=True, cap=50)
    by_name = {s.name: s for s in cert.steps}
    assert by_name["normal_closure_index"].verdict == "unknown"
    assert by_name["parity_kernel_identification"].verdict == "skipped"
    assert not cert.simple


def test_certificate_concludes_simplicity_at_an_index_other_than_four(sigma, monkeypatch):
    # Every step of the chain passes but the parity identification: the
    # closure has index 8, so it is not the parity kernel.  Sigma cannot
    # get here (each of its nontrivial normal subgroups contains the simple
    # parity kernel, so has index 1, 2 or 4), so the closure step is
    # replaced by one that reports index 8 with a cyclic quotient of order 8.
    import vhcert.certificates as certificates
    from vhcert.fpgroups import Presentation
    from vhcert.todd_coxeter import enumerate_cosets, quotient_structure

    def closure_of_index_8(a, word, cap, strategy):
        order_8 = quotient_structure(enumerate_cosets(Presentation(("x",), ((0,) * 8,))))
        values = {"index": 8, "coset_cap": cap, "strategy": strategy}
        return (certificates.Step("normal_closure_index", PASS, values,
                                  certificates.CLOSURE_CITATION), order_8)

    monkeypatch.setattr(certificates, "closure_check", closure_of_index_8)
    cert = simplicity_certificate(sigma, WORD, assume_nrf=True)
    by_name = {s.name: s for s in cert.steps}
    identification = by_name["parity_kernel_identification"]
    assert identification.verdict == INAPPLICABLE
    assert identification.values["index"] == 8
    assert [s.verdict for s in cert.steps[:-1]] == [PASS] * 5
    assert cert.simple and cert.index == 8
    assert cert.conclusion == (
        "the normal closure of a2*a1^-1*a3*a4^-1 equals the finite residual of "
        "sigma: a finitely presented, torsion-free, simple group of index 8"
    )


def test_certificate_computes_each_fact_once(sigma, monkeypatch):
    # one link check, one build per local group, one recognition per group,
    # and no permutation group built twice
    import vhcert.certificates as certificates
    import vhcert.permgroups as permgroups

    links = []
    groups = []
    recognized = []
    builds = []
    check_link = certificates.check_link
    local_group = certificates.local_group
    recognize = permgroups.recognize
    perm_group_init = permgroups.PermGroup.__init__

    def counting_check_link(c):
        links.append(c)
        return check_link(c)

    def counting_local_group(c, side, depth, *args, **kwargs):
        groups.append((side, depth))
        return local_group(c, side, depth, *args, **kwargs)

    def counting_recognize(group):
        recognized.append(group)
        return recognize(group)

    def counting_perm_group_init(self, *args, **kwargs):
        builds.append(self)
        perm_group_init(self, *args, **kwargs)

    monkeypatch.setattr(certificates, "check_link", counting_check_link)
    monkeypatch.setattr(permgroups.PermGroup, "__init__", counting_perm_group_init)
    monkeypatch.setattr(certificates, "local_group", counting_local_group)
    monkeypatch.setattr(certificates, "recognize", counting_recognize)
    monkeypatch.setattr(permgroups, "recognize", counting_recognize)
    cert = simplicity_certificate(sigma, WORD, assume_nrf=True)
    assert cert.simple
    assert links == [sigma]
    assert sorted(groups) == [("h", 1), ("v", 1), ("v", 2)]
    assert len({id(g) for g in recognized}) == len(recognized) == 4
    # 3 local groups and the 2 depth-1 point stabilizers of NST; recognition
    # and 2-transitivity read the groups' own chains, so there are no
    # restrictions to moved points and no transitivity stabilizers
    assert len(builds) == 5


# sha256 over json.dumps(cert.as_dict()) of the eight certificates below,
# in order; together they reach every verdict and every conclusion branch
# but one (simple with a closure of index other than 4).
CERTIFICATE_BRANCHES_DIGEST = (
    "28ed63d6084d520be2fb50fb89c9c4c580def121c6caf2f0ea9f543eb74e001e"
)


def test_certificate_branches_digest(lam, delta, sigma):
    broken = SquareComplex(sigma.name, sigma.hnames, sigma.vnames, sigma.squares[1:])
    cases = (
        (sigma, WORD, {"assume_nrf": True, "cap": 10**6, "strategy": "hlt"}),
        (sigma, WORD, {"assume_nrf": False, "strategy": "felsch"}),
        (sigma, "a1", {"assume_nrf": True, "cap": 100_000}),
        (sigma, "a5*a6^-1*a5^-1*a6", {"assume_nrf": True}),
        (sigma, WORD, {"assume_nrf": True, "cap": 50}),
        (lam, "a1*b1", {"assume_nrf": True, "cap": 100_000}),
        (broken, WORD, {"assume_nrf": True}),
        (delta, "a1", {"assume_nrf": True, "cap": 2_000}),
    )
    digest = hashlib.sha256()
    verdicts = set()
    for c, word, kwargs in cases:
        cert = simplicity_certificate(c, word, **kwargs)
        verdicts.update(s.verdict for s in cert.steps)
        digest.update(json.dumps(cert.as_dict()).encode())
    assert verdicts == {PASS, FAIL, INAPPLICABLE, "unknown", "skipped"}
    assert digest.hexdigest() == CERTIFICATE_BRANCHES_DIGEST
