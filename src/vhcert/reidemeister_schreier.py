"""Presentations of finite-index subgroups from closed coset tables.

Reidemeister-Schreier: read a prefix-closed (Schreier) transversal off
the breadth-first spanning tree that standardization recorded in the
closed table (``schreier_transversal`` returns it, checked, as a tuple
of words), take one generator per non-tree table entry, and rewrite every
parent relator from every coset.
For index k over g generators and r relators this yields exactly
k*g - (k-1) generators and k*r relators before any simplification.

The Tietze simplifier applies only moves that remove one generator
together with one relator (eliminating a generator that occurs exactly
once in some relator), plus free/cyclic reduction, so the difference
(#relators - #generators) is conserved move by move.  It works on the
input's generator ids and relator positions throughout, rewrites only the
relators in which an eliminated generator occurs, and renumbers the
survivors once, in order, at the end.  A rewrite joins slices of the old
relator with the replacement or its inverse; every piece is freely
reduced, so letters cancel only at the junctions and at the two ends.
A relator's candidates are listed again only after it is rewritten, and
only once the scan in candidate order reaches it.
"""

from __future__ import annotations

from bisect import insort

from vhcert.checks import check
from vhcert.fpgroups import Presentation, abelianization, cyclic_reduce, invert_word
# schreier_generator_words lives beside the tree it reads and is public here too
from vhcert.todd_coxeter import (
    CosetTable,
    _schreier_entries,
    _transversal_words,
    schreier_generator_words,
)


def schreier_transversal(table: CosetTable) -> tuple:
    """Breadth-first representatives of a closed table, read off its
    spanning tree: coset 0's is the empty word, and the set of
    representatives is prefix-closed (both checked)."""
    if not table.closed:
        raise ValueError("transversal requires a closed table")
    words = tuple(_transversal_words(table))
    check(words[0] == (), "transversal does not start with the empty word")
    prefixes = set(words)
    for w in words:
        check(w[:-1] in prefixes, "transversal is not prefix-closed")
    return words


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
    # the subgroup letter of each non-tree entry's generator
    gen_letters = {entry: 2 * i for i, entry in enumerate(entries)}
    names = tuple(f"{p.generators[g]}_{coset}" for coset, g in entries)
    check(len(names) == k * len(p.generators) - (k - 1),
          "Schreier generator count is not k*g - (k-1)")

    def rewrite(coset, word):
        """Trace ``word`` from ``coset``, emitting one subgroup letter per
        non-tree edge crossed."""
        out = []
        for x in word:
            # the entry (coset, g) that x crosses, forwards or backwards
            end = table.table[coset][x]
            edge = (end, x >> 1) if x & 1 else (coset, x >> 1)
            if edge in gen_letters:
                out.append(gen_letters[edge] | (x & 1))
            coset = end
        return coset, tuple(out)

    relators = []
    for rel in p.relators:
        for coset in range(k):
            end, rewritten = rewrite(coset, rel)
            check(end == coset, "relator does not close up in the table")
            relators.append(cyclic_reduce(rewritten))
    check(len(relators) == k * len(p.relators), "Schreier relator count is not k*r")
    return Presentation(names, tuple(relators))


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
    # generator -> the relators that may hold it, either way round: every
    # relator that holds it, and maybe some that no longer do, which a
    # move skips when it counts no occurrence of the generator there
    holding = {gen: set() for gen in names}
    for idx, rel in relators.items():
        for x in rel:
            holding[x >> 1].add(idx)
    # Sorted (length, generator, relator) candidates.  (length, -1, relator)
    # stands for a new or rewritten relator whose candidates are listed
    # only when the scan reaches it; they sort after it.
    queue = sorted((len(rel), -1, idx) for idx, rel in relators.items())
    total = sum(map(len, relators.values()))
    while True:
        balance = len(relators) - len(names)
        i = 0
        while i < len(queue):
            length, gen, idx = queue[i]
            if gen < 0:
                del queue[i]
                rel = relators[idx]
                letters = set(rel)
                for x in letters:
                    if x ^ 1 not in letters and rel.count(x) == 1:
                        insort(queue, (length, x >> 1, idx))
                continue
            i += 1
            rel = relators[idx]
            x = 2 * gen if 2 * gen in rel else 2 * gen + 1
            pos = rel.index(x)
            # rel = u * x * v  =>  x = (v * u)^-1; both are freely reduced
            # because rel is cyclically reduced
            vu = rel[pos + 1:] + rel[:pos]
            images = {x: invert_word(vu), x ^ 1: vu}
            holders = []
            for j in holding[gen]:
                if j != idx and j in relators:
                    plus, minus = relators[j].count(2 * gen), relators[j].count(2 * gen + 1)
                    if plus or minus:
                        holders.append((j, plus, minus))
            occurrences = sum(plus + minus for _, plus, minus in holders)
            if total - length + occurrences * (length - 2) > total_length_budget:
                continue
            del names[gen], relators[idx], holding[gen]
            total -= length
            for j, plus, minus in holders:
                old = relators[j]
                positions = []
                for y, n in ((2 * gen, plus), (2 * gen + 1, minus)):
                    at = -1
                    for _ in range(n):
                        at = old.index(y, at + 1)
                        positions.append(at)
                pieces, start = [], 0
                for at in sorted(positions):
                    pieces += (old[start:at], images[old[at]])
                    start = at + 1
                pieces.append(old[start:])
                # Every piece is freely reduced, so only the junctions cancel.
                out = []
                for piece in pieces:
                    if out and piece and out[-1] == piece[0] ^ 1:
                        k, limit = 1, min(len(out), len(piece))
                        while k < limit and out[-1 - k] == piece[k] ^ 1:
                            k += 1
                        del out[-k:]
                        piece = piece[k:]
                    out += piece
                k, n = 0, len(out)
                while n - 2 * k >= 2 and out[k] == out[n - 1 - k] ^ 1:
                    k += 1
                relators[j] = rel = tuple(out[k:n - k])
                total += len(rel) - len(old)
            # a rewritten relator holds no letter that it did not hold
            # before or that the image of gen does not hold
            rewritten = [j for j, _, _ in holders]
            for held in {y >> 1 for y in vu}:
                holding[held].update(rewritten)
            check(len(relators) - len(names) == balance,
                  "Tietze move changed #relators - #generators")
            touched = {idx, *rewritten}
            queue = [c for c in queue if c[2] not in touched]
            queue += [(len(relators[j]), -1, j) for j in rewritten]
            queue.sort()
            break
        else:
            # the survivors keep their order: generator gen becomes new_id
            renumbered = {}
            for new_id, gen in enumerate(names):
                renumbered[2 * gen], renumbered[2 * gen + 1] = 2 * new_id, 2 * new_id + 1
            return Presentation(
                tuple(names.values()),
                tuple(tuple(map(renumbered.__getitem__, rel)) for rel in relators.values()),
            )


def is_perfect(p: Presentation) -> bool:
    """A presentation is perfect iff its abelianization is trivial."""
    return abelianization(p).is_trivial()
