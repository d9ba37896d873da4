"""Machine-checked certificate chain for VH complexes.

The chain follows the standard simplicity argument for lattices in
products of trees: link condition, embedding of a non-residually-finite
subcomplex, the Burger-Mozes irreducibility criterion on sphere orders,
the normal subgroup theorem hypotheses (2-transitive depth-1 local
groups with nonabelian simple point stabilizers), a coset enumeration
bounding the index of the normal closure of the witness word, and the
identification of that closure with the index-4 parity kernel.

One link of the argument is not machine-checkable here: that the witness
word lies in every finite-index subgroup of the embedded subcomplex's
group (Wise's theorem).  It is carried as an explicit named assumption
that the caller must acknowledge before the certificate will state a
simplicity conclusion.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import NamedTuple

from vhcert import corpus
from vhcert.checks import check
from vhcert.complexes import (
    SquareComplex,
    check_link,
    check_subcomplex,
    euler_characteristic,
    letters_from_names,
)
from vhcert.fpgroups import index4_hom, presentation_from_complex
from vhcert.local_actions import SphereIndex, depth_order_bound, local_group
from vhcert.permgroups import (
    SIMPLICITY_BOUND,
    PermGroup,
    is_k_transitive,
    point_stabilizer,
    recognize,
    recognized_simplicity,
)
from vhcert.todd_coxeter import (
    EnumerationExhausted,
    normal_closure_table,
    quotient_structure,
)

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"
UNKNOWN = "unknown"
SKIPPED = "skipped"


class Step(NamedTuple):
    name: str
    verdict: str
    values: dict
    citation: str

    def as_dict(self) -> dict:
        return self._asdict()


class Certificate(NamedTuple):
    complex_name: str
    word: str
    steps: list
    assumptions: list
    conclusion: str
    simple: bool = False
    index: int | None = None

    def as_dict(self) -> dict:
        return {
            "complex": self.complex_name,
            "word": self.word,
            "steps": [s.as_dict() for s in self.steps],
            "assumptions": self.assumptions,
            "conclusion": self.conclusion,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


class Analysis:
    """The facts about one complex that the certificate steps share.

    Each fact is computed at most once, on first use: the link report,
    the presentation, the parity homomorphism, the local groups keyed by
    (side, depth), the recognition of each group, and the irreducibility
    step that the normal subgroup theorem step builds on.
    """

    def __init__(self, c: SquareComplex):
        self.complex = c
        self._groups = {}
        self._names = {}

    @classmethod
    def of(cls, c) -> "Analysis":
        """``c`` itself if it is an Analysis, else a new one of complex ``c``."""
        return c if isinstance(c, cls) else cls(c)

    @cached_property
    def link(self):
        return check_link(self.complex)

    @cached_property
    def presentation(self):
        return presentation_from_complex(self.complex)

    @cached_property
    def parity(self):
        return index4_hom(self.presentation)

    @cached_property
    def irreducibility(self) -> Step:
        return irreducibility_check(self)

    def local_group(self, side: str, depth: int) -> PermGroup:
        """P^(depth) of one side; from depth 2 on, built against the proven
        ``depth_order_bound`` of the groups one and depth - 1 deep."""
        if (side, depth) not in self._groups:
            # the sphere refuses a depth above the cap before any group is built
            sphere = SphereIndex(self.complex, side, depth)
            bound = None
            if depth >= 2:
                bound = depth_order_bound(
                    self.local_group(side, 1), self.local_group(side, depth - 1)
                )
            self._groups[side, depth] = local_group(
                self.complex, side, depth, sphere, order_bound=bound
            )
        return self._groups[side, depth]

    def recognize(self, group: PermGroup) -> str:
        if group not in self._names:
            self._names[group] = recognize(group)
        return self._names[group]


def _alt_order(d: int) -> int:
    return math.factorial(d) // 2


def irreducibility_check(c: Analysis | SquareComplex) -> Step:
    """Order criterion: with P_v^(1) the full alternating group Alt(2n),
    n >= 3, the lattice is irreducible iff
    |P_v^(2)| = |Alt(2n)| * |Alt(2n-1)|^(2n)."""
    a = Analysis.of(c)
    c = a.complex
    citation = (
        "Burger-Mozes irreducibility criterion via the order of the "
        "depth-2 vertical local group"
    )
    if not a.link.ok:
        return Step(
            "irreducibility", INAPPLICABLE,
            {"reason": "link condition fails"}, citation,
        )
    valence = 2 * c.n
    if c.n < 3:
        return Step(
            "irreducibility", INAPPLICABLE,
            {"reason": f"criterion requires n >= 3, complex has n = {c.n}"},
            citation,
        )
    depth1 = a.local_group("v", 1)
    name = a.recognize(depth1)
    values = {
        "vertical_valence": valence,
        "depth1_order": depth1.order,
        "depth1_recognition": name,
    }
    if name != f"Alt({valence})":
        values["reason"] = f"criterion requires P_v^(1) = Alt({valence})"
        return Step("irreducibility", INAPPLICABLE, values, citation)
    target = _alt_order(valence) * _alt_order(valence - 1) ** valence
    depth2 = a.local_group("v", 2)
    values["depth2_order"] = depth2.order
    values["target_order"] = target
    verdict = PASS if depth2.order == target else FAIL
    return Step("irreducibility", verdict, values, citation)


def nst_check(c: Analysis | SquareComplex) -> Step:
    """Hypotheses of the normal subgroup theorem: irreducible, both
    depth-1 local groups 2-transitive, both point stabilizers nonabelian
    finite simple.  On pass, every nontrivial normal subgroup of the
    complex's group has finite index."""
    a = Analysis.of(c)
    citation = "Burger-Mozes normal subgroup theorem"
    if not a.link.ok:
        return Step(
            "normal_subgroup_theorem", INAPPLICABLE,
            {"reason": "link condition fails"}, citation,
        )
    irreducibility = a.irreducibility
    values = {"irreducibility": irreducibility.verdict}
    failures = []
    unknowns = []
    for side, label in (("h", "horizontal"), ("v", "vertical")):
        group = a.local_group(side, 1)
        stab = point_stabilizer(group, 0)
        stab_name = recognize(stab)
        simple = recognized_simplicity(stab, stab_name, SIMPLICITY_BOUND)
        transitive = is_k_transitive(group, 2)
        values[f"{label}_order"] = group.order
        values[f"{label}_recognition"] = a.recognize(group)
        values[f"{label}_2transitive"] = transitive
        values[f"{label}_stabilizer_order"] = stab.order
        values[f"{label}_stabilizer_recognition"] = stab_name
        values[f"{label}_stabilizer_nonabelian_simple"] = simple
        if not transitive:
            failures.append(f"{label} depth-1 group is not 2-transitive")
        if simple is False:
            failures.append(f"{label} stabilizer is not nonabelian simple")
        elif simple is None:
            unknowns.append(f"{label} stabilizer simplicity undecided")
    if failures:
        values["reason"] = "; ".join(failures)
        return Step("normal_subgroup_theorem", FAIL, values, citation)
    if irreducibility.verdict == FAIL:
        values["reason"] = "irreducibility criterion fails"
        return Step("normal_subgroup_theorem", FAIL, values, citation)
    if irreducibility.verdict != PASS:
        values["reason"] = "irreducibility criterion inapplicable"
        return Step("normal_subgroup_theorem", INAPPLICABLE, values, citation)
    if unknowns:
        values["reason"] = "; ".join(unknowns)
        return Step("normal_subgroup_theorem", UNKNOWN, values, citation)
    values["conclusion"] = (
        "every nontrivial normal subgroup of the complex's group has finite index"
    )
    return Step("normal_subgroup_theorem", PASS, values, citation)


class AmalgamSplitting(NamedTuple):
    vertex_rank: int
    edge_rank: int
    edge_index: int

    def as_tuple(self):
        return (self.vertex_rank, self.edge_rank, self.vertex_rank)


def amalgam_ranks(m: int, n: int):
    """The two free-amalgam splittings F_p *_(F_q) F_p of the parity
    kernel, one per tree factor.

    Splitting over the 2m-valent factor has vertex rank 2n - 1 and edge
    rank (2n - 2) * 2m + 1 with the edge group of index 2m in each vertex
    group; the other splitting swaps m and n.  Both are checked against
    the Euler characteristic identity
    2 * (1 - vertex_rank) - (1 - edge_rank) = 4 * chi(complex).
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    splittings = (
        AmalgamSplitting(2 * n - 1, (2 * n - 2) * 2 * m + 1, 2 * m),
        AmalgamSplitting(2 * m - 1, (2 * m - 2) * 2 * n + 1, 2 * n),
    )
    chi4 = 4 * (1 - (m + n) + m * n)
    for s in splittings:
        check(2 * (1 - s.vertex_rank) - (1 - s.edge_rank) == chi4,
              f"amalgam ranks {s} violate the Euler identity for (m, n) = ({m}, {n})")
    return splittings


WITNESS_SOURCE = (
    "Wise (1996): the group of this subcomplex is not residually finite, "
    "with the given word in every finite-index subgroup"
)


def simplicity_certificate(
    c: Analysis | SquareComplex,
    word,
    assume_nrf: bool = False,
    cap: int = 10**6,
    strategy: str = "hlt",
) -> Certificate:
    """Run the full chain and assemble a certificate.

    ``word`` is a word over the complex's generators (a Word or a string
    in the a2*a1^-1 syntax).  The embedded subcomplex is the bundled
    delta complex on generators a1..a4, b1..b3; the certificate
    concludes simplicity only when every prerequisite step passed and
    ``assume_nrf`` acknowledges the external non-residual-finiteness
    theorem for that subcomplex.
    """
    a = Analysis.of(c)
    c = a.complex
    p = a.presentation
    if isinstance(word, str):
        word = p.parse_word(word)
    word_text = p.word_to_string(word)
    reference = corpus.load("delta")
    sub_h_names, sub_v_names = reference.hnames, reference.vnames

    steps = []

    link = a.link
    steps.append(Step(
        "link_condition",
        PASS if link.ok else FAIL,
        {
            "m": c.m,
            "n": c.n,
            "squares": len(c.squares),
            "corners_covered": link.corners_covered,
            "corners_expected": link.total_corners,
            "euler_characteristic": euler_characteristic(c),
        },
        "vertex link must be the complete bipartite graph on the 2m + 2n directions",
    ))

    embed_citation = (
        "a locally isometric subcomplex embeds pi_1-injectively "
        "(Bridson-Haefliger II.4.14)"
    )
    missing = [
        name for name in (*sub_h_names, *sub_v_names)
        if name not in c.hnames and name not in c.vnames
    ]
    if not link.ok:
        steps.append(Step(
            "subcomplex_embedding", SKIPPED,
            {"reason": "link condition fails"}, embed_citation,
        ))
        embedding_ok = False
    elif missing:
        steps.append(Step(
            "subcomplex_embedding", INAPPLICABLE,
            {"reason": f"complex has no generators named {', '.join(missing)}"},
            embed_citation,
        ))
        embedding_ok = False
    else:
        hsub = letters_from_names(c, sub_h_names)
        vsub = letters_from_names(c, sub_v_names)
        ok, sub = check_subcomplex(c, hsub, vsub)
        matches = (
            sub.m == reference.m
            and sub.n == reference.n
            and sub.squares == reference.squares
        )
        sub_names = set(sub_h_names) | set(sub_v_names)
        word_inside = all(p.generators[g] in sub_names for g, _ in word)
        values = {
            "horizontal": list(sub_h_names),
            "vertical": list(sub_v_names),
            "squares": len(sub.squares),
            "link_valid": ok,
            "matches_reference": matches,
            "reference": reference.name,
            "word_in_subcomplex": word_inside,
        }
        embedding_ok = ok and matches and word_inside
        if not embedding_ok:
            reasons = []
            if not ok:
                reasons.append("subcomplex violates the link condition")
            if not matches:
                reasons.append("subcomplex squares differ from the reference")
            if not word_inside:
                reasons.append("word uses generators outside the subcomplex")
            values["reason"] = "; ".join(reasons)
        steps.append(Step(
            "subcomplex_embedding", PASS if embedding_ok else FAIL, values, embed_citation,
        ))

    if link.ok:
        irr = a.irreducibility
        nst = nst_check(a)
    else:
        irr = Step("irreducibility", SKIPPED, {"reason": "link condition fails"},
                   "Burger-Mozes irreducibility criterion")
        nst = Step("normal_subgroup_theorem", SKIPPED,
                   {"reason": "link condition fails"},
                   "Burger-Mozes normal subgroup theorem")
    steps.append(irr)
    steps.append(nst)

    closure_citation = "coset enumeration of the quotient by the normal closure"
    index = None
    quotient = None
    if not link.ok:
        steps.append(Step("normal_closure_index", SKIPPED,
                          {"reason": "link condition fails"}, closure_citation))
    else:
        try:
            table = normal_closure_table(p, word, cap=cap, strategy=strategy)
            index = table.index
            quotient = quotient_structure(table)
            steps.append(Step(
                "normal_closure_index", PASS,
                {"index": index, "coset_cap": cap, "strategy": strategy},
                closure_citation,
            ))
        except EnumerationExhausted:
            steps.append(Step(
                "normal_closure_index", UNKNOWN,
                {"coset_cap": cap, "strategy": strategy,
                 "reason": "enumeration exhausted the coset cap"},
                closure_citation,
            ))

    ident_citation = (
        "an index-4 normal subgroup containing a normal closure of index 4 equals it"
    )
    identified = False
    in_kernel = a.parity.in_kernel(word)
    if index is None:
        steps.append(Step("parity_kernel_identification", SKIPPED,
                          {"reason": "normal closure index unavailable"},
                          ident_citation))
    else:
        invariants = (
            list(quotient.invariants.torsion) if quotient.abelian else None
        )
        values = {
            "word_in_parity_kernel": in_kernel,
            "index": index,
            "quotient_abelian": quotient.abelian,
            "quotient_invariants": invariants,
        }
        identified = in_kernel and index == 4 and invariants == [2, 2]
        steps.append(Step(
            "parity_kernel_identification",
            PASS if identified else INAPPLICABLE,
            values,
            ident_citation,
        ))

    assumptions = [{
        "name": "finite_residual_membership",
        "statement": (
            f"the word {word_text} lies in every finite-index subgroup of "
            "the embedded subcomplex's group"
        ),
        "source": WITNESS_SOURCE,
        "acknowledged": bool(assume_nrf),
    }]

    by_name = {s.name: s for s in steps}
    core_pass = all(
        by_name[name].verdict == PASS
        for name in ("link_condition", "subcomplex_embedding",
                     "normal_subgroup_theorem", "normal_closure_index")
    )
    # The finite residual lies inside every finite-index subgroup, in
    # particular inside the parity kernel; a word of odd parity therefore
    # refutes the membership assumption outright.
    refuted = not in_kernel
    simple = core_pass and assume_nrf and not refuted

    if core_pass and assume_nrf and refuted:
        conclusion = (
            f"the word {word_text} is not in the parity kernel, so it cannot "
            f"lie in the finite residual of {c.name}: the acknowledged "
            "membership assumption is refuted and no simplicity conclusion "
            "is drawn"
            + (f"; the normal closure of {word_text} has index {index}"
               if index is not None else "")
        )
    elif simple and identified:
        conclusion = (
            f"the normal closure of {word_text} equals the finite residual and "
            f"the parity kernel of {c.name}: a finitely presented, torsion-free, "
            f"simple group of index 4"
        )
    elif simple:
        conclusion = (
            f"the normal closure of {word_text} equals the finite residual of "
            f"{c.name}: a finitely presented, torsion-free, simple group of "
            f"index {index}"
        )
    elif core_pass:
        conclusion = (
            f"all checks passed; the normal closure of {word_text} has index "
            f"{index}, and every nontrivial normal subgroup of {c.name} has "
            "finite index; simplicity is not concluded because the "
            "finite-residual assumption was not acknowledged"
        )
    elif by_name["normal_subgroup_theorem"].verdict == PASS:
        conclusion = (
            f"every nontrivial normal subgroup of {c.name} has finite index "
            "(normal subgroup theorem); simplicity is not established"
            + (f"; the normal closure of {word_text} has index {index}"
               if index is not None else "")
        )
    else:
        failing = next(
            (s.name for s in steps if s.verdict in (FAIL, UNKNOWN)), "link_condition"
        )
        conclusion = f"no conclusion: step {failing} did not pass"

    return Certificate(
        complex_name=c.name,
        word=word_text,
        steps=steps,
        assumptions=assumptions,
        conclusion=conclusion,
        simple=simple,
        index=index,
    )
