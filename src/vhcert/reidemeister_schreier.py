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
(#relators - #generators) is conserved move by move.  It works on the
input's generator ids and relator positions throughout, keeps one count
of generator occurrences per relator, rewrites only the relators in which
an eliminated generator occurs, and renumbers the survivors once, in
order, at the end.
"""

from __future__ import annotations

from collections import Counter

from vhcert.checks import check
from vhcert.fpgroups import (
    Presentation,
    abelianization,
    concat,
    cyclic_reduce,
    invert_word,
)
# schreier_generator_words lives beside the tree it reads and is public here too
from vhcert.todd_coxeter import (
    CosetTable,
    _schreier_entries,
    _transversal_words,
    schreier_generator_words,
)


class Transversal:
    """Schreier coset representatives; rep of coset 0 is the empty word and
    the set of representatives is prefix-closed."""

    def __init__(self, words: tuple):
        check(words[0] == (), "transversal does not start with the empty word")
        prefixes = set(words)
        for w in words:
            check(w[:-1] in prefixes, "transversal is not prefix-closed")
        self.words = words

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


def tietze_simplify(p: Presentation, total_length_budget: int = 10_000) -> Presentation:
    """Eliminate generators occurring exactly once in some relator.

    Policy, in input ids: among all (generator, defining relator)
    candidates take the shortest defining relator, ties broken by lowest
    generator id, then by relator position; skip a candidate if
    substituting it would push the total relator length past the budget.
    Every applied move removes one generator and one relator, so
    #relators - #generators never changes.  Deterministic for fixed limits.
    """
    names = dict(enumerate(p.generators))
    relators = dict(enumerate(p.relators))
    counts = {idx: Counter(g for g, _ in rel) for idx, rel in relators.items()}

    while True:
        balance = len(relators) - len(names)
        candidates = sorted(
            (len(relators[idx]), gen, idx)
            for idx, count in counts.items()
            for gen, n in count.items()
            if n == 1
        )
        for length, gen, idx in candidates:
            rel = relators[idx]
            pos = next(i for i, (g, _) in enumerate(rel) if g == gen)
            # rel = u * gen^e * v  =>  gen^e = u^-1 * v^-1
            u, (_, e), v = rel[:pos], rel[pos], rel[pos + 1:]
            replacement = concat(invert_word(u), invert_word(v))
            if e < 0:
                replacement = invert_word(replacement)
            grown = sum(
                len(relators[j]) + count[gen] * (len(replacement) - 1)
                for j, count in counts.items()
                if j != idx
            )
            if grown > total_length_budget:
                continue
            del names[gen], relators[idx], counts[idx]
            images = {1: replacement, -1: invert_word(replacement)}
            for j, count in counts.items():
                if gen in count:
                    relators[j] = cyclic_reduce(
                        letter
                        for g, s in relators[j]
                        for letter in (images[s] if g == gen else ((g, s),))
                    )
                    counts[j] = Counter(g for g, _ in relators[j])
            check(len(relators) - len(names) == balance,
                  "Tietze move changed #relators - #generators")
            break
        else:
            new_id = {gen: i for i, gen in enumerate(names)}
            return Presentation.build(
                names.values(),
                [tuple((new_id[g], s) for g, s in rel) for rel in relators.values()],
            )


def is_perfect(p: Presentation) -> bool:
    """A presentation is perfect iff its abelianization is trivial."""
    return abelianization(p).is_trivial()
