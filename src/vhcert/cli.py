"""Command-line interface.

Every subcommand computes a JSON-ready report; text output is rendered
from that report, so ``--json`` and the default text view never drift.
Exit codes: 0 success, 1 mathematical failure (e.g. a link violation),
2 an "unknown" verdict, never an "infinite" (the coset cap or memory ran
out, or a step such as the normal subgroup theorem could not be decided),
64 usage error.  Runs are deterministic: identical arguments on
identical input files produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from vhcert.certificates import (
    FAIL,
    PASS,
    UNKNOWN,
    Analysis,
    amalgam_ranks,
    nst_check,
    simplicity_certificate,
)
from vhcert.complexes import ComplexError, euler_characteristic, parse_complex
from vhcert.fpgroups import WordError, abelianization
from vhcert.local_actions import DEFAULT_MAX_DEPTH
from vhcert.permgroups import Permutation
from vhcert.reidemeister_schreier import (
    is_perfect,
    subgroup_presentation,
    tietze_simplify,
)
from vhcert.todd_coxeter import (
    EnumerationExhausted,
    normal_closure_table,
    parity_kernel_table,
    quotient_structure,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_EXHAUSTED = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load(path: str) -> Analysis:
    with open(path, "r", encoding="utf-8") as handle:
        return Analysis(parse_complex(handle.read()))


def _emit(report: dict, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            print(line)


def _exhausted(args, analysis, what: str, **report) -> int:
    """A run that ran out of a resource: its verdict is unknown.  The
    complex is null when that happened while reading it."""
    name = None if analysis is None else analysis.complex.name
    _emit({"complex": name, "verdict": UNKNOWN, **report}, args.as_json,
          [f"exhausted: {what} (result unknown)"])
    return EXIT_EXHAUSTED


def _link_failure(args, a: Analysis) -> int:
    _emit({"complex": a.complex.name, "error": "link condition fails"},
          args.as_json, ["link condition fails"])
    return EXIT_FAIL


def cmd_check_link(args, a: Analysis) -> int:
    c, link = a.complex, a.link
    report = {
        "complex": c.name,
        "m": c.m,
        "n": c.n,
        "squares": len(c.squares),
        "ok": link.ok,
        "corners_covered": link.corners_covered,
        "corners_expected": link.total_corners,
        "missing_corners": [
            [c.letter_name(x), c.letter_name(y)] for x, y in link.missing_corners
        ],
        "duplicate_corners": [
            [c.letter_name(x), c.letter_name(y)]
            for (x, y), _ in link.duplicate_corners
        ],
    }
    lines = [
        f"{report['corners_covered']}/{report['corners_expected']} corners",
        "link condition holds" if link.ok else "link condition FAILS",
    ]
    for x, y in report["missing_corners"]:
        lines.append(f"missing corner ({x}, {y})")
    for x, y in report["duplicate_corners"]:
        lines.append(f"duplicated corner ({x}, {y})")
    _emit(report, args.as_json, lines)
    return EXIT_OK if link.ok else EXIT_FAIL


def cmd_euler(args, a: Analysis) -> int:
    if not a.link.ok:
        return _link_failure(args, a)
    chi = euler_characteristic(a.complex)
    _emit({"complex": a.complex.name, "euler_characteristic": chi}, args.as_json,
          [f"euler characteristic: {chi}"])
    return EXIT_OK


def cmd_local(args, a: Analysis) -> int:
    if not a.link.ok:
        return _link_failure(args, a)
    c = a.complex
    sides = [args.side] if args.side else ["h", "v"]
    report = {"complex": c.name, "depth": args.depth, "groups": []}
    lines = []
    for side in sides:
        group = a.local_group(side, args.depth)
        actors = c.vnames if side == "h" else c.hnames
        gens = [
            {"actor": actor, "cycles": Permutation(images).cycle_string()}
            for actor, images in zip(actors, group.generators)
        ]
        entry = {
            "side": side,
            "degree": group.degree,
            "order": group.order,
            "recognition": a.recognize(group),
            "generators": gens,
        }
        report["groups"].append(entry)
        lines.append(
            f"P_{side}^({args.depth}): degree {group.degree}, order {group.order}, "
            f"{entry['recognition']}"
        )
        lines += [f"  {g['actor']}: {g['cycles']}" for g in gens]
    _emit(report, args.as_json, lines)
    return EXIT_OK


def _emit_step(args, a: Analysis, step, title: str) -> int:
    report = {"complex": a.complex.name, **step.as_dict()}
    _emit(report, args.as_json, [f"{title}: {step.verdict}"] + [
        f"  {k}: {v}" for k, v in step.values.items()
    ])
    if step.verdict == PASS:
        return EXIT_OK
    return EXIT_EXHAUSTED if step.verdict == UNKNOWN else EXIT_FAIL


def cmd_irreducible(args, a: Analysis) -> int:
    return _emit_step(args, a, a.irreducibility, "irreducibility")


def cmd_nst(args, a: Analysis) -> int:
    return _emit_step(args, a, nst_check(a), "normal subgroup theorem hypotheses")


def _closure(args, p):
    """Parse --word and enumerate its normal closure under --cap and
    --strategy; returns (the word as text, coset table)."""
    word = p.parse_word(args.word)
    table = normal_closure_table(p, word, cap=args.cap, strategy=args.strategy)
    return p.word_to_string(word), table


def cmd_closure_index(args, a: Analysis) -> int:
    word, table = _closure(args, a.presentation)
    report = {"complex": a.complex.name, "word": word,
              "index": table.index, **table.summary()}
    _emit(report, args.as_json,
          [f"normal closure index: {table.index}",
           f"strategy {table.strategy}: max live {table.max_live}, "
           f"defined {table.total_defined}"])
    return EXIT_OK


def cmd_quotient(args, a: Analysis) -> int:
    word, table = _closure(args, a.presentation)
    q = quotient_structure(table)
    report = {
        "complex": a.complex.name,
        "word": word,
        "order": q.order,
        "abelian": q.abelian,
        "invariants": list(q.invariants.torsion) if q.abelian else None,
    }
    lines = [f"quotient order: {q.order}",
             f"abelian: {q.abelian}"
             + (f", invariants {report['invariants']}" if q.abelian else "")]
    _emit(report, args.as_json, lines)
    return EXIT_OK


def cmd_abelianize(args, a: Analysis) -> int:
    inv = abelianization(a.presentation)
    report = {"complex": a.complex.name, "free_rank": inv.free_rank,
              "torsion": list(inv.torsion)}
    _emit(report, args.as_json,
          [f"abelianization: {inv} (free rank {inv.free_rank}, "
           f"torsion {list(inv.torsion)})"])
    return EXIT_OK


def _subgroup(args, p):
    """The subgroup rs/simplify present: the parity kernel by default, or
    the normal closure of --word; returns (coset table, label, its
    Reidemeister-Schreier presentation)."""
    if args.word is None:
        table, label = parity_kernel_table(p), "parity kernel"
    else:
        word, table = _closure(args, p)
        label = f"normal closure of {word}"
    return table, label, subgroup_presentation(p, table)


def cmd_rs(args, a: Analysis) -> int:
    table, label, sub = _subgroup(args, a.presentation)
    report = {
        "complex": a.complex.name,
        "subgroup": label,
        "index": table.index,
        "generators": len(sub.generators),
        "relators": len(sub.relators),
        "total_length": sub.total_length(),
        "perfect": is_perfect(sub),
        "presentation": str(sub),
    }
    _emit(report, args.as_json, [
        f"subgroup: {label} (index {table.index})",
        f"presentation: {report['generators']} generators, "
        f"{report['relators']} relators, total length {report['total_length']}",
        f"perfect: {report['perfect']}",
    ])
    return EXIT_OK


def cmd_simplify(args, a: Analysis) -> int:
    table, label, sub = _subgroup(args, a.presentation)
    simplified = tietze_simplify(sub, total_length_budget=args.budget)
    report = {
        "complex": a.complex.name,
        "subgroup": label,
        "raw": {"generators": len(sub.generators), "relators": len(sub.relators),
                "total_length": sub.total_length()},
        "simplified": {"generators": len(simplified.generators),
                       "relators": len(simplified.relators),
                       "total_length": simplified.total_length()},
        "relator_generator_difference": len(simplified.relators) - len(simplified.generators),
        "perfect": is_perfect(simplified),
        "presentation": str(simplified),
    }
    _emit(report, args.as_json, [
        f"subgroup: {label} (index {table.index})",
        f"raw: {report['raw']['generators']} generators, "
        f"{report['raw']['relators']} relators",
        f"simplified: {report['simplified']['generators']} generators, "
        f"{report['simplified']['relators']} relators, "
        f"total length {report['simplified']['total_length']}",
        f"r - g = {report['relator_generator_difference']}, perfect: {report['perfect']}",
    ])
    return EXIT_OK


def cmd_amalgam(args, _) -> int:
    s1, s2 = amalgam_ranks(args.m, args.n)
    report = {
        "m": args.m,
        "n": args.n,
        "splittings": [
            {"vertex_rank": s.vertex_rank, "edge_rank": s.edge_rank,
             "edge_index": s.edge_index}
            for s in (s1, s2)
        ],
    }
    lines = [
        f"F_{s.vertex_rank} *_(F_{s.edge_rank}) F_{s.vertex_rank}"
        f"  (edge group of index {s.edge_index})"
        for s in (s1, s2)
    ]
    _emit(report, args.as_json, lines)
    return EXIT_OK


def cmd_simple_cert(args, a: Analysis) -> int:
    cert = simplicity_certificate(
        a, args.word, assume_nrf=args.assume_nrf, cap=args.cap, strategy=args.strategy
    )
    report = cert.as_dict()
    lines = [f"certificate for {cert.complex_name}, word {cert.word}"]
    for step in cert.steps:
        lines.append(f"  {step.name}: {step.verdict}")
    lines.append(f"assumption acknowledged: {cert.assumptions[0]['acknowledged']}")
    lines.append(f"conclusion: {cert.conclusion}")
    _emit(report, args.as_json, lines)
    verdicts = [s.verdict for s in cert.steps]
    if FAIL in verdicts:
        return EXIT_FAIL
    if UNKNOWN in verdicts:
        return EXIT_EXHAUSTED
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="vhcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_text, needs_path=True, word=None, cap=False):
        # word: None for no --word option, else whether --word is required
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if needs_path:
            p.add_argument("path", help="complex file (.vh)")
        if word is not None:
            p.add_argument("--word", required=word,
                           help="word over the complex generators, "
                                "e.g. a2*a1^-1*a3*a4^-1")
        if cap:
            p.add_argument("--cap", type=int, default=10**6,
                           help="coset cap (default 1000000)")
            p.add_argument("--strategy", choices=("hlt", "felsch"), default="hlt")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the JSON report instead of text")
        return p

    add("check-link", cmd_check_link, "verify the link condition")
    add("euler", cmd_euler, "Euler characteristic of a link-valid complex")
    p = add("local", cmd_local, "local groups on tree spheres")
    p.add_argument("--side", choices=("h", "v"))
    p.add_argument("--depth", type=int, default=1,
                   choices=range(1, DEFAULT_MAX_DEPTH + 1))
    add("irreducible", cmd_irreducible, "irreducibility via the depth-2 order criterion")
    add("nst", cmd_nst, "normal subgroup theorem hypotheses")
    add("closure-index", cmd_closure_index, "index of the normal closure of a word",
        word=True, cap=True)
    add("quotient", cmd_quotient, "structure of the quotient by a normal closure",
        word=True, cap=True)
    add("abelianize", cmd_abelianize, "abelian invariants of the complex's group")
    add("rs", cmd_rs, "subgroup presentation (parity kernel, or --word closure)",
        word=False, cap=True)
    p = add("simplify", cmd_simplify, "rs followed by Tietze simplification",
            word=False, cap=True)
    p.add_argument("--budget", type=int, default=10_000,
                   help="total relator length budget (default 10000)")
    p = add("amalgam", cmd_amalgam, "free-amalgam splitting ranks for given m, n",
            needs_path=False)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p = add("simple-cert", cmd_simple_cert, "full simplicity certificate", word=True, cap=True)
    p.add_argument("--assume-nrf", action="store_true", dest="assume_nrf",
                   help="acknowledge the external non-residual-finiteness "
                        "theorem for the embedded subcomplex")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cap", 1) < 1 or getattr(args, "budget", 1) < 1:
        parser.error("caps and budgets must be positive")
    if getattr(args, "m", 1) < 1 or getattr(args, "n", 1) < 1:
        parser.error("--m and --n must be positive")
    analysis = None
    try:
        if "path" in args:
            analysis = _load(args.path)
        return args.run(args, analysis)
    except EnumerationExhausted as exc:
        return _exhausted(args, analysis, f"no closure within {exc.cap} cosets",
                          coset_cap=exc.cap)
    except MemoryError:
        pass  # reported below, once the traceback has freed what it held
    except (ComplexError, WordError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _exhausted(args, analysis, "out of memory", out_of_memory=True)


if __name__ == "__main__":
    sys.exit(main())
