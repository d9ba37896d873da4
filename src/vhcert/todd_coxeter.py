"""Coset enumeration over finite presentations.

Column 2g of a table holds the action of generator g and column 2g + 1
that of its inverse, so a word's letters (see ``fpgroups``) are the
columns it is traced along, and a relator is scanned as it is stored.

Both strategies run one loop over the live cosets, in order, with one
deduction queue.  Every new entry (alpha, c), whether a definition, a
scan's single-gap deduction or an entry made by a coincidence, is queued
and followed by scans, without definitions, of the relator rotations
through it: the cyclic rotations of the relators and of their inverses
that begin with column c, read from alpha (precomputed when the
enumeration starts, with their inverse columns and last position).  The
deduction loop runs these scans inline, and skips, after two lookups, a
scan of a rotation of length 3 or more that can act neither way: when the
entry after the first step and the entry before the last are both
undefined, the gap is at least 2 wide, so there is neither a deduction
nor a coincidence to find.
``_scan``, the only other scan, always defines cosets to close a relator.
Coset 0 scans every relator, in order, with definitions, in both
strategies: each relator is trivial in the group, so it closes a cycle at
coset 0 in every table.  The strategies differ only in the cosets after
it: HLT (the default) scans every relator from each of them in the same
way, Felsch does not.  Then each coset fills its remaining empty entries.
The queue is drained after each scan and after each definition.

Coincidences are handled by a union-find, with the smaller coset
surviving each merge, and an immediately processed queue of dead cosets;
a coset that stays live keeps every entry it had, and its entries point
to live cosets.  A generator that is a relator of length 1 is the
identity on every coset: its entries are set, and queued, when the coset
is created, since no deduction through another entry would reach them.

Both strategies also keep a preferred definition list (Havas and
Ramsay's, from ACE): a deduction scan that stops at a gap exactly 2 wide
records the gap's first entry, and after each relator scan with
definitions and each fill definition the newest recorded entry that is
still open (its coset live, the entry undefined) is defined, followed by
a drain.  The next scan through that entry then closes the gap by a
deduction.  One preferred definition per step keeps the coset order
fair: unbounded preferring ran Felsch out to its cap.  The list holds
the newest ``PREFERRED_LIMIT`` entries.  The order changes which cosets
are defined, never the closed table: sigma's witness closure defines 561
cosets with HLT and 1,516 with Felsch.

A normal closure puts its added relator first, so coset 0 scans it, and
starts collapsing the table with its coincidences, before the relators
of the group it is added to grow the table.

When the coset cap is reached, the queue is drained; if no coset has died
the enumeration stops with the resource verdict ``EnumerationExhausted``
(never "infinite"), otherwise the preferred list is cleared, the dead
rows are compressed away and the loop restarts from coset 0.

Every closed table, enumerated or built directly, is finished the same
way: standardized (the live cosets renumbered breadth-first from coset 0,
which makes the table canonical for the subgroup, recording the spanning
tree of that search) and verified: every column must permute the cosets,
every relator must trace to its starting coset, and every subgroup
generator, as given, must fix coset 0 (the enumeration scans its free
reduction from coset 0, which closes it there; a cyclic reduction would
close a conjugate).  The recorded tree gives the Schreier
transversal and the Schreier generators of the subgroup.
"""

from __future__ import annotations

import math
from collections import deque

from vhcert.checks import check
from vhcert.fpgroups import (
    Presentation,
    abelianization,
    concat,
    cyclic_reduce,
    free_reduce,
    index4_hom,
    invert_word,
)


# Capacity of the preferred definition list; the oldest entries fall off.
PREFERRED_LIMIT = 256


class EnumerationExhausted(Exception):
    """Coset cap reached without closing the table (resource verdict)."""

    def __init__(self, cap):
        super().__init__(f"coset enumeration exhausted its cap of {cap} rows")
        self.cap = cap


class _CapHit(Exception):
    pass


def _column_rotations(relators, ncols):
    """For each column c, the distinct cyclic rotations of the relators and
    of their inverses that begin with c (proper powers repeat rotations),
    each as (cols, inverse_cols, last, second, back) for the deduction
    loop's scans: ``second`` is the rotation's second column and ``back``
    the inverse of its last, the two entries the loop reads to skip a scan
    (None for a rotation shorter than 3, which is always scanned)."""
    rotations = [{} for _ in range(ncols)]
    for cols in relators:
        for word in (cols, invert_word(cols)):
            for i in range(len(word)):
                rot = word[i:] + word[:i]
                rotations[rot[0]][rot] = None
    return [
        tuple(
            (rot, tuple(c ^ 1 for c in rot), len(rot) - 1)
            + ((rot[1], rot[-1] ^ 1) if len(rot) >= 3 else (None, None))
            for rot in by_col
        )
        for by_col in rotations
    ]


class CosetTable:
    """Mutable enumeration state; closed tables become effectively immutable.

    Columns come in (generator, inverse) pairs, so column c is inverted by
    c ^ 1.  Cosets are 0-based internally; dumps are 1-based.
    """

    def __init__(self, presentation: Presentation, subgens=(), cap: int = 10**6,
                 strategy: str = "hlt"):
        if cap < 1:
            raise ValueError("coset cap must be >= 1")
        if strategy not in ("hlt", "felsch"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.presentation = presentation
        self.subgens = tuple(subgens)
        # what the enumeration scans from coset 0
        self.subgen_cols = tuple(map(free_reduce, self.subgens))
        self.cap = cap
        self.strategy = strategy
        self.ncols = 2 * len(presentation.generators)
        # Generator columns whose generator is a relator of length 1: each
        # new coset maps itself there in both directions, queued as a
        # deduction, since no deduction through another entry reaches them.
        self.identity_cols = tuple(sorted(
            {r[0] & ~1 for r in presentation.relators if len(r) == 1}
        ))
        self.table = [[None] * self.ncols]
        self.p = [0]
        self.live = 1
        self.total_defined = 1
        self.max_live = 1
        self.closed = False
        self.tree = None
        self._deductions = deque()
        self._preferred = deque(maxlen=PREFERRED_LIMIT)
        for col in self.identity_cols:
            self.table[0][col] = self.table[0][col ^ 1] = 0
            self._deductions.append((0, col))

    # -- union-find ---------------------------------------------------------

    def rep(self, k: int) -> int:
        p = self.p
        lam = k
        while p[lam] != lam:
            lam = p[lam]
        while p[k] != lam:
            p[k], k = lam, p[k]
        return lam

    def live_cosets(self):
        return [k for k in range(len(self.table)) if self.p[k] == k]

    # -- core moves ---------------------------------------------------------

    def _define(self, alpha: int, col: int) -> int:
        table = self.table
        beta = len(table)
        if beta >= self.cap:
            raise _CapHit
        row = [None] * self.ncols
        # as for coset 0 in __init__, inline here on the hot path
        for c in self.identity_cols:
            row[c] = row[c ^ 1] = beta
            self._deductions.append((beta, c))
        row[col ^ 1] = alpha
        table.append(row)
        self.p.append(beta)
        table[alpha][col] = beta
        self.live += 1
        self.total_defined += 1
        if self.live > self.max_live:
            self.max_live = self.live
        self._deductions.append((alpha, col))
        return beta

    def _coincidence(self, a: int, b: int) -> None:
        """Merge the live cosets a and b and every pair that this forces.
        Of two merged representatives the smaller survives.  The dead
        cosets are queued, and each dead row's entries are moved, in
        order, to its representative; a conflicting entry is one more
        merge.  The union-find is inline (find with path compression,
        then merge), as this loop runs once per entry of every dead row."""
        table = self.table
        p = self.p
        deductions = self._deductions
        if a > b:
            a, b = b, a
        p[b] = a
        live = self.live - 1
        queue = deque((b,))
        while queue:
            dead = queue.popleft()
            # enumerate reads each entry when it is reached, as the loop
            # below may clear later entries of the dead row
            for col, delta in enumerate(table[dead]):
                if delta is None:
                    continue
                inv = col ^ 1
                table[delta][inv] = None
                mu = p[dead]
                while p[mu] != mu:
                    mu = p[mu]
                k = dead
                while p[k] != mu:
                    p[k], k = mu, p[k]
                nu = delta
                while p[nu] != nu:
                    nu = p[nu]
                k = delta
                while p[k] != nu:
                    p[k], k = nu, p[k]
                mu_row = table[mu]
                nu_row = table[nu]
                other = mu_row[col]
                if other is not None:
                    keep = nu
                else:
                    other = nu_row[inv]
                    if other is None:
                        mu_row[col] = nu
                        nu_row[inv] = mu
                        deductions.append((mu, col))
                        continue
                    keep = mu
                # merge keep, a representative, with other's representative
                lam = other
                while p[lam] != lam:
                    lam = p[lam]
                while p[other] != lam:
                    p[other], other = lam, p[other]
                if lam != keep:
                    if lam < keep:
                        keep, lam = lam, keep
                    p[lam] = keep
                    live -= 1
                    queue.append(lam)
        self.live = live

    def _scan(self, alpha: int, cols) -> None:
        """Scan a relator from alpha, defining cosets to close its gaps."""
        table = self.table
        last = len(cols) - 1
        while True:
            f, i = alpha, 0
            b, j = alpha, last
            while i <= j:
                nxt = table[f][cols[i]]
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i:
                nxt = table[b][cols[j] ^ 1]
                if nxt is None:
                    break
                b = nxt
                j -= 1
            if j < i:
                if f != b:
                    self._coincidence(f, b)
                return
            col = cols[i]
            if j == i:
                table[f][col] = b
                table[b][col ^ 1] = f
                self._deductions.append((f, col))
                return
            self._define(f, col)

    # -- enumeration --------------------------------------------------------

    def _keep_rows(self, order) -> None:
        """Keep only the rows of the live cosets ``order``, renumbered by
        their position in it, with entries resolved through rep."""
        new = {old: i for i, old in enumerate(order)}
        rep = self.rep
        self.table = [
            [None if entry is None else new[rep(entry)] for entry in self.table[old]]
            for old in order
        ]
        self.p = list(range(len(order)))

    def _process_deductions(self) -> None:
        # A deduced entry (alpha, col) can only complete a relator cycle
        # that passes through it; read from alpha, those cycles (in either
        # direction) are the rotations of the relators and their inverses
        # that start with col.  Each is scanned inline, as _scan would but
        # with no definitions: a full trace is a coincidence check, a
        # single gap a deduction, a longer gap nothing.  A coset that died
        # meanwhile is skipped: the coincidence that killed it queued a
        # deduction for each entry it gave its representative.
        #
        # A scan's first step reads row[col], which is defined: a live
        # coset keeps its entries through coincidences.  For a rotation of
        # length >= 3, when the entry after that step (column ``second``)
        # and alpha's entry for ``back`` are both undefined, the gap runs
        # from position 1 to the last, at least 2 wide: that scan can act
        # neither way and is skipped.
        #
        # A scan that stops at a gap exactly 2 wide records the gap's first
        # entry as a preferred definition: defining it lets the next scan
        # of this rotation deduce the second and close the cycle.
        deductions = self._deductions
        preferred = self._preferred
        table = self.table
        p = self.p
        coincidence = self._coincidence
        rotations = self.column_rotations
        while deductions:
            alpha, col = deductions.popleft()
            if p[alpha] != alpha:
                continue
            row = table[alpha]
            for cols, inverse_cols, last, second, back in rotations[col]:
                f = row[col]
                if second is not None and table[f][second] is None and row[back] is None:
                    continue
                i = 1
                while i <= last:
                    nxt = table[f][cols[i]]
                    if nxt is None:
                        break
                    f = nxt
                    i += 1
                else:
                    if f != alpha:
                        coincidence(f, alpha)
                        if p[alpha] != alpha:
                            break
                    continue
                b, j = alpha, last
                while j >= i:
                    nxt = table[b][inverse_cols[j]]
                    if nxt is None:
                        break
                    b = nxt
                    j -= 1
                else:
                    if f != b:
                        coincidence(f, b)
                        if p[alpha] != alpha:
                            break
                    continue
                if j == i:
                    c = cols[i]
                    table[f][c] = b
                    table[b][inverse_cols[i]] = f
                    deductions.append((f, c))
                elif j == i + 1:
                    preferred.append((f, cols[i]))

    def _define_preferred(self) -> None:
        """Define the newest recorded gap entry that is still open, if any,
        and drain; entries of dead cosets and defined entries are dropped."""
        preferred = self._preferred
        p = self.p
        table = self.table
        while preferred:
            alpha, col = preferred.pop()
            if p[alpha] == alpha and table[alpha][col] is None:
                self._define(alpha, col)
                self._process_deductions()
                return

    def _enumerate(self, scans) -> None:
        """One pass from coset 0: the subgroup generators are scanned from
        coset 0, then coset 0 scans every relator and each later live
        coset the relators in ``scans``, with definitions, and each fills
        its remaining empty entries.  The deduction queue is drained after
        each scan and after each definition; each relator scan and each
        fill definition is followed by at most one preferred definition,
        so the coset order stays fair."""
        table = self.table
        p = self.p
        scan = self._scan
        drain = self._process_deductions
        prefer = self._define_preferred
        for cols in self.subgen_cols:
            scan(0, cols)
            drain()
        alpha = 0
        while alpha < len(table):
            for cols in scans if alpha else self.presentation.relators:
                if p[alpha] != alpha:
                    break
                scan(alpha, cols)
                drain()
                prefer()
            row = table[alpha]
            for col in range(self.ncols):
                if p[alpha] != alpha:
                    break
                if row[col] is None:
                    self._define(alpha, col)
                    drain()
                    prefer()
            alpha += 1

    # -- closure ------------------------------------------------------------

    def run(self) -> "CosetTable":
        # The only difference between the strategies: HLT scans the
        # relators with definitions from each coset after coset 0 as
        # well, Felsch does not.
        relators = self.presentation.relators
        scans = relators if self.strategy == "hlt" else ()
        # here, not in __init__: a directly built table never scans
        self.column_rotations = _column_rotations(relators, self.ncols)
        while True:
            try:
                self._enumerate(scans)
                break
            except _CapHit:
                # Drain first: queued entries hold row numbers that
                # compression would make stale.
                self._process_deductions()
                if self.live == len(self.table):
                    raise EnumerationExhausted(self.cap) from None
                # the preferred entries hold row numbers too
                self._preferred.clear()
                self._keep_rows(self.live_cosets())
        self._close()
        return self

    def _close(self) -> None:
        """The one way a table becomes closed: standardize, then verify."""
        self._standardize()
        self.closed = True
        self.verify_closed()

    @property
    def index(self) -> int:
        return len(self.table) if self.closed else self.live

    def _standardize(self) -> None:
        """Renumber the live cosets in breadth-first order over the column
        order, and record the spanning tree of that search: ``tree[beta]``
        is the entry (coset, column) that first reached coset beta."""
        rep = self.rep
        order = [0]
        seen = {0}
        tree = {}
        for alpha, old in enumerate(order):
            for col, entry in enumerate(self.table[old]):
                if entry is None:
                    continue
                beta = rep(entry)
                if beta not in seen:
                    seen.add(beta)
                    tree[len(order)] = (alpha, col)
                    order.append(beta)
        check(len(order) == self.live, "closed table is disconnected")
        self._keep_rows(order)
        self.tree = tree

    def trace(self, coset: int, word) -> int:
        for col in word:
            coset = self.table[coset][col]
        return coset

    def verify_closed(self) -> None:
        n = len(self.table)
        for row in self.table:
            check(None not in row, "closed table has an undefined entry")
        for col in range(self.ncols):
            column = [self.table[alpha][col] for alpha in range(n)]
            check(sorted(column) == list(range(n)), "column is not a permutation")
        for cols in self.presentation.relators:
            for alpha in range(n):
                coset = alpha
                for col in cols:
                    coset = self.table[coset][col]
                check(coset == alpha, "relator does not trace to identity")
        # the words as given, not the free reductions that were scanned
        for word in self.subgens:
            check(self.trace(0, word) == 0, "subgroup generator moves coset 0")

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "index": self.index,
            "strategy": self.strategy,
            "max_live": self.max_live,
            "total_defined": self.total_defined,
        }


def enumerate_cosets(p: Presentation, subgens=(), cap: int = 10**6,
                     strategy: str = "hlt") -> CosetTable:
    """Closed, standardized coset table of the subgroup the words generate.

    Deterministic for a fixed strategy; raises EnumerationExhausted when
    the cap is hit without closing.
    """
    return CosetTable(p, subgens, cap, strategy).run()


def normal_closure_table(p: Presentation, word, cap: int = 10**6,
                         strategy: str = "hlt") -> CosetTable:
    """Coset table of the normal closure of ``word``: enumerate the trivial
    subgroup of the quotient with the word added as a relator.

    The word is the first relator.  Coset 0 scans the relators in order,
    and the word is what makes the quotient smaller than ``p``'s group, so
    its coincidences start collapsing the table before the other relators
    grow it (sigma: HLT defines 561 cosets instead of 1,173 with it last,
    Felsch 1,516 instead of 2,165).
    """
    quotient = Presentation(p.generators, (cyclic_reduce(word),) + p.relators, p.sides)
    return enumerate_cosets(quotient, (), cap, strategy)


def normal_closure_index(p: Presentation, word, cap: int = 10**6,
                         strategy: str = "hlt") -> int:
    return normal_closure_table(p, word, cap, strategy).index


def parity_kernel_table(p: Presentation) -> CosetTable:
    """Directly built coset table of the parity (index-4) kernel.

    Cosets are the elements of Z/2 x Z/2, defined in breadth-first order;
    every generator acts as an involution.  The subgroup generators are the
    Schreier generators of the closed table, so, like an enumerated
    table's, they generate the subgroup.
    """
    hom = index4_hom(p)
    t = CosetTable(p)
    elements = [(0, 0)]
    for alpha, (x, y) in enumerate(elements):
        for g, (dx, dy) in enumerate(hom.images):
            image = ((x + dx) % 2, (y + dy) % 2)
            if image not in elements:
                elements.append(image)
                t._define(alpha, 2 * g)
            t.table[alpha][2 * g] = t.table[alpha][2 * g + 1] = elements.index(image)
    t._close()
    t.subgens = tuple(schreier_generator_words(p, t))
    t.verify_closed()  # again, now that there are subgroup generators
    return t


class FiniteQuotient:
    """Multiplication table of a finite quotient read off a closed table.

    The table's subgroup H, the stabilizer of coset 0, is generated by its
    subgroup generators.  The constructor checks that H is normal, exactly:
    H is normal iff every subgroup generator fixes every coset.  Then the
    cosets multiply as the group G/H, so associativity holds by
    construction; identity and inverses are still checked on the table.
    """

    def __init__(self, table: CosetTable):
        if not table.closed:
            raise ValueError("quotient structure requires a closed table")
        n = len(table.table)
        check(all(table.trace(alpha, w) == alpha
                  for w in table.subgens for alpha in range(n)),
              "the subgroup is not normal: a subgroup generator moves a coset")
        reps = _transversal_words(table)
        mult = [
            [table.trace(0, reps[i] + reps[j]) for j in range(n)]
            for i in range(n)
        ]
        self.order = n
        self.table = tuple(tuple(row) for row in mult)
        self._verify()
        self.abelian = all(
            self.table[i][j] == self.table[j][i]
            for i in range(n) for j in range(i + 1, n)
        )
        self.invariants = None
        if self.abelian:
            # The quotient is presented by the table's relators plus its
            # subgroup generators; abelian, it equals its abelianization.
            p = table.presentation
            inv = abelianization(
                Presentation.build(p.generators, p.relators + table.subgens)
            )
            check(inv.free_rank == 0 and math.prod(inv.torsion) == n,
                  "abelian invariants disagree with the quotient order")
            self.invariants = inv

    def _verify(self) -> None:
        n = self.order
        t = self.table
        check(t[0] == tuple(range(n)), "coset 0 is not an identity")
        check(all(t[i][0] == i for i in range(n)), "coset 0 is not an identity")
        for i in range(n):
            check(t[i].count(0) == 1, "an element has no unique inverse")


def _transversal_words(table: CosetTable):
    """Schreier representatives read off the recorded spanning tree
    (prefix-closed); coset 0 is the empty word."""
    reps = [()]
    for beta in range(1, len(table.table)):
        alpha, col = table.tree[beta]
        reps.append(reps[alpha] + (col,))
    return reps


def _schreier_entries(table: CosetTable):
    """The table entries (coset, g) of the generator columns that are not
    edges of the spanning tree, in table order: one Schreier generator
    each.  A tree entry through g^-1 from alpha to beta is the entry
    (beta, g)."""
    tree = {
        (beta, col >> 1) if col & 1 else (alpha, col >> 1)
        for beta, (alpha, col) in table.tree.items()
    }
    return [
        (coset, g)
        for coset in range(len(table.table))
        for g in range(table.ncols // 2)
        if (coset, g) not in tree
    ]


def schreier_generator_words(p: Presentation, table: CosetTable):
    """The subgroup generators as words in the parent generators:
    rep(i) * x * rep(i^x)^-1 for each non-tree entry (i, x)."""
    reps = _transversal_words(table)
    return [
        concat(reps[coset], (2 * g,), invert_word(reps[table.table[coset][2 * g]]))
        for coset, g in _schreier_entries(table)
    ]


def quotient_structure(table: CosetTable) -> FiniteQuotient:
    """Group structure on the cosets of a closed table."""
    return FiniteQuotient(table)
