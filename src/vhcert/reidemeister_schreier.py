"""Presentations of finite-index subgroups from closed coset tables.

Reidemeister-Schreier: read a prefix-closed (Schreier) transversal off
the breadth-first spanning tree that standardization recorded in the
closed table, take one generator per non-tree table entry, and rewrite
every parent relator from every coset.
For index k over g generators and r relators this yields exactly
k*g - (k-1) generators and k*r relators before any simplification.

The Tietze simplifier applies only moves that remove one generator
together with one relator (eliminating a generator that occurs exactly
once in some relator), plus free/cyclic reduction, so the difference
(#relators - #generators) is conserved move by move.
"""

from __future__ import annotations

from dataclasses import dataclass

from vhcert.checks import check
from vhcert.fpgroups import (
    Presentation,
    abelianization,
    concat,
    cyclic_reduce,
    free_reduce,
    invert_word,
)
# schreier_generator_words lives beside the tree it reads and is public here too
from vhcert.todd_coxeter import (
    CosetTable,
    _schreier_entries,
    _transversal_words,
    schreier_generator_words,
)


@dataclass(frozen=True)
class Transversal:
    """Schreier coset representatives; rep of coset 0 is the empty word and
    the set of representatives is prefix-closed."""

    words: tuple

    def __post_init__(self):
        check(self.words[0] == (), "transversal does not start with the empty word")
        prefixes = set(self.words)
        for w in self.words:
            check(w[:-1] in prefixes, "transversal is not prefix-closed")

    def __len__(self):
        return len(self.words)


def schreier_transversal(table: CosetTable) -> Transversal:
    """Breadth-first representatives of a closed table."""
    if not table.closed:
        raise ValueError("transversal requires a closed table")
    return Transversal(tuple(_transversal_words(table)))


def subgroup_presentation(p: Presentation, table: CosetTable) -> Presentation:
    """Reidemeister-Schreier presentation of the subgroup of ``table``.

    ``p`` must be the parent presentation the table's relators came from
    (pass the original presentation, not one with extra relators, when the
    table was produced by a normal-closure enumeration).
    """
    if not table.closed:
        raise ValueError("subgroup presentation requires a closed table")
    if len(p.generators) * 2 != table.ncols:
        raise ValueError("presentation does not match the table")
    k = len(table.table)
    entries = _schreier_entries(table)
    gen_ids = {entry: i for i, entry in enumerate(entries)}
    names = [f"{p.generators[g]}_{coset}" for coset, g in entries]
    check(len(names) == k * len(p.generators) - (k - 1),
          "Schreier generator count is not k*g - (k-1)")

    def rewrite(coset, word):
        """Trace ``word`` from ``coset``, emitting one subgroup letter per
        non-tree edge crossed."""
        out = []
        for g, e in word:
            if e > 0:
                edge = (coset, g)
                coset = table.table[coset][2 * g]
                if edge in gen_ids:
                    out.append((gen_ids[edge], 1))
            else:
                coset = table.table[coset][2 * g + 1]
                edge = (coset, g)
                if edge in gen_ids:
                    out.append((gen_ids[edge], -1))
        return coset, tuple(out)

    relators = []
    for rel in p.relators:
        for coset in range(k):
            end, rewritten = rewrite(coset, rel)
            check(end == coset, "relator does not close up in the table")
            relators.append(cyclic_reduce(rewritten))
    check(len(relators) == k * len(p.relators), "Schreier relator count is not k*r")
    return Presentation.build(names, relators)


def _occurrences(rel, gen):
    return sum(1 for g, _ in rel if g == gen)


def tietze_simplify(p: Presentation, total_length_budget: int = 10_000) -> Presentation:
    """Eliminate generators occurring exactly once in some relator.

    Policy: among all (generator, defining relator) candidates take the
    shortest defining relator, ties broken by lowest generator id; skip a
    candidate if substituting it would push the total relator length past
    the budget.  Every applied move removes one generator and one relator,
    so #relators - #generators never changes; relators are kept freely and
    cyclically reduced throughout.  Deterministic for fixed limits.
    """
    names = list(p.generators)
    relators = [cyclic_reduce(r) for r in p.relators]

    while True:
        balance = len(relators) - len(names)
        candidates = sorted(
            (len(rel), gen, idx)
            for idx, rel in enumerate(relators)
            for gen in {g for g, _ in rel}
            if _occurrences(rel, gen) == 1
        )
        applied = False
        for length, gen, idx in candidates:
            rel = relators[idx]
            pos = next(i for i, (g, _) in enumerate(rel) if g == gen)
            # rel = u * gen^e * v  =>  gen^e = u^-1 * v^-1
            u, (_, e), v = rel[:pos], rel[pos], rel[pos + 1:]
            replacement = concat(invert_word(u), invert_word(v))
            if e < 0:
                replacement = invert_word(replacement)
            grown = sum(
                len(r) + _occurrences(r, gen) * (len(replacement) - 1)
                for j, r in enumerate(relators)
                if j != idx
            )
            if grown > total_length_budget:
                continue

            def substitute(word):
                out = []
                for g, s in word:
                    if g == gen:
                        out.extend(replacement if s > 0 else invert_word(replacement))
                    else:
                        out.append((g, s))
                return free_reduce(out)

            relators = [
                cyclic_reduce(substitute(r)) for j, r in enumerate(relators) if j != idx
            ]
            del names[gen]
            remap = lambda g: g if g < gen else g - 1
            relators = [tuple((remap(g), s) for g, s in r) for r in relators]
            check(len(relators) - len(names) == balance,
                  "Tietze move changed #relators - #generators")
            applied = True
            break
        if not applied:
            return Presentation.build(tuple(names), tuple(relators))


def is_perfect(p: Presentation) -> bool:
    """A presentation is perfect iff its abelianization is trivial."""
    return abelianization(p).is_trivial()
