"""Outside-in tracing of vhcert's public calls.

``Tracer.install()`` replaces each public function listed in ``PUBLIC``
by a wrapper, in the module that defines it and in every vhcert module
that imported it, and wraps a few methods on their classes.  Each call
records a span (id, parent id, layer, name, call site, start, end, time
covered by child spans) in memory; ``write`` dumps them at the end and
``metrics`` turns them into per-layer self times and work counts.

Word helpers such as ``free_reduce`` are deliberately not wrapped: they
are called millions of times, and their time stays with their caller.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

PUBLIC = {
    "complexes": (
        "parse_complex", "check_link", "check_subcomplex", "euler_characteristic",
        "letters_from_names", "render_complex", "SquareComplex.corner_partner",
    ),
    "local_actions": (
        "local_group", "sphere_action", "local_perm", "vertical_local_perm",
        "horizontal_local_perm",
    ),
    "permgroups": (
        "PermGroup.__init__", "bsgs_build", "point_stabilizer", "is_k_transitive",
        "recognize", "is_whitelisted_nonabelian_simple", "brute_simplicity",
        "normal_closure", "conjugacy_class_reps",
    ),
    "fpgroups": (
        "presentation_from_complex", "index4_hom", "relator_matrix",
        "smith_normal_form", "abelianization", "Presentation.parse_word",
    ),
    "todd_coxeter": (
        "CosetTable.run", "enumerate_cosets", "normal_closure_table",
        "normal_closure_index", "parity_kernel_table", "quotient_structure",
    ),
    "reidemeister_schreier": (
        "schreier_transversal", "subgroup_presentation", "schreier_generator_words",
        "tietze_simplify", "is_perfect",
    ),
    "certificates": (
        "simplicity_certificate", "irreducibility_check", "nst_check", "amalgam_ranks",
    ),
    "cli": ("main",),
}

# name -> unit and direction; every traced run reports all of them.
METRICS = {
    "complexes.self_s": ("s", "lower"),
    "complexes.check_link_calls": ("count", "lower"),
    "local_actions.self_s": ("s", "lower"),
    "local_actions.sphere_action_calls": ("count", "lower"),
    "local_actions.sphere_points": ("count", "lower"),
    "permgroups.self_s": ("s", "lower"),
    "permgroups.builds": ("count", "lower"),
    "permgroups.points": ("count", "lower"),
    "fpgroups.self_s": ("s", "lower"),
    "fpgroups.snf_calls": ("count", "lower"),
    "todd_coxeter.hlt.self_s": ("s", "lower"),
    "todd_coxeter.felsch.self_s": ("s", "lower"),
    "todd_coxeter.other.self_s": ("s", "lower"),
    "todd_coxeter.hlt.cosets_defined": ("count", "lower"),
    "todd_coxeter.felsch.cosets_defined": ("count", "lower"),
    "todd_coxeter.hlt.peak_live": ("count", "lower"),
    "todd_coxeter.felsch.peak_live": ("count", "lower"),
    "todd_coxeter.useful_ratio": ("ratio", "higher"),
    "reidemeister_schreier.self_s": ("s", "lower"),
    "reidemeister_schreier.tietze_moves": ("count", "higher"),
    "reidemeister_schreier.out_length": ("count", "lower"),
    "certificates.self_s": ("s", "lower"),
    "certificates.irreducibility_s": ("s", "lower"),
    "certificates.nst_s": ("s", "lower"),
    "certificates.closure_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Span fields, in the order a span list stores them.
ID, PARENT, LAYER, NAME, SITE, START, END, CHILD = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)
        self.closed_index = 0

    def install(self):
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "vhcert" or name.startswith("vhcert."))
        ]
        for layer, names in PUBLIC.items():
            home = importlib.import_module(f"vhcert.{layer}")
            for name in names:
                owner, _, attr = name.rpartition(".")
                if owner:
                    cls = getattr(home, owner)
                    setattr(cls, attr, self._wrap(layer, name, layer, getattr(cls, attr)))
                    continue
                original = getattr(home, attr)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            site = module.__name__.rpartition(".")[2]
                            setattr(module, key, self._wrap(layer, name, site, original))

    def _wrap(self, layer, name, site, fn):
        note = _NOTES.get(name)
        strategy_of = None
        if layer == "todd_coxeter" and name != "CosetTable.run":
            signature = inspect.signature(fn)
            if "strategy" in signature.parameters:
                default = signature.parameters["strategy"].default

                def strategy_of(args, kwargs):
                    bound = signature.bind(*args, **kwargs).arguments
                    return bound.get("strategy", default)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = layer
            if layer == "todd_coxeter":
                if name == "CosetTable.run":
                    strategy = args[0].strategy
                elif strategy_of is not None:
                    strategy = strategy_of(args, kwargs)
                else:
                    strategy = "other"
                label = f"todd_coxeter.{strategy}"
            span = [len(spans), stack[-1] if stack else None, label, name, site, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(span[ID])
            result = None
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if span[PARENT] is not None:
                    spans[span[PARENT]][CHILD] += span[END] - span[START]
                if note is not None:
                    note(self, site, args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self):
        """Per-layer self times and counts of everything traced so far."""
        out = {name: 0 for name in METRICS if name not in ("cli.import_s", "trace.overhead_s")}
        for span in self.spans:
            key = f"{span[LAYER]}.self_s"
            if key in out:
                out[key] += span[END] - span[START] - span[CHILD]
            inclusive = span[END] - span[START]
            if span[NAME] == "irreducibility_check":
                out["certificates.irreducibility_s"] += inclusive
            elif span[NAME] == "nst_check":
                out["certificates.nst_s"] += inclusive
            elif span[SITE] == "certificates" and span[NAME] in (
                "normal_closure_table", "quotient_structure"
            ):
                out["certificates.closure_s"] += inclusive
        out.update(self.counts)
        out.update(self.peaks)
        defined = out["todd_coxeter.hlt.cosets_defined"] + out["todd_coxeter.felsch.cosets_defined"]
        out["todd_coxeter.useful_ratio"] = self.closed_index / defined if defined else 0.0
        return out


def _note_check_link(tracer, site, args, result):
    # Only calls into the layer count; check_subcomplex's own call on the
    # subcomplex stays inside complexes.
    if site != "complexes":
        tracer.counts["complexes.check_link_calls"] += 1


def _note_sphere_action(tracer, site, args, result):
    tracer.counts["local_actions.sphere_action_calls"] += 1
    if result is not None:
        tracer.counts["local_actions.sphere_points"] += result.degree


def _note_permgroup(tracer, site, args, result):
    tracer.counts["permgroups.builds"] += 1
    tracer.counts["permgroups.points"] += getattr(args[0], "degree", 0)


def _note_snf(tracer, site, args, result):
    tracer.counts["fpgroups.snf_calls"] += 1


def _note_run(tracer, site, args, result):
    table = args[0]
    prefix = f"todd_coxeter.{table.strategy}"
    tracer.counts[f"{prefix}.cosets_defined"] += table.total_defined
    key = f"{prefix}.peak_live"
    tracer.peaks[key] = max(tracer.peaks[key], table.max_live)
    if table.closed:
        tracer.closed_index += table.index


def _note_tietze(tracer, site, args, result):
    if result is not None:
        tracer.counts["reidemeister_schreier.tietze_moves"] += (
            len(args[0].generators) - len(result.generators)
        )
        tracer.counts["reidemeister_schreier.out_length"] += result.total_length()


_NOTES = {
    "check_link": _note_check_link,
    "sphere_action": _note_sphere_action,
    "PermGroup.__init__": _note_permgroup,
    "smith_normal_form": _note_snf,
    "CosetTable.run": _note_run,
    "tietze_simplify": _note_tietze,
}
