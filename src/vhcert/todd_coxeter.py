"""Coset enumeration over finite presentations.

Both strategies run one loop over the live cosets, in order, with one
deduction queue.  Every new entry (alpha, c), whether a definition, a
scan's single-gap deduction or an entry made by a coincidence, is queued
and followed by scans, without definitions, of the relator rotations
through it: the cyclic rotations of the relators and of their inverses
that begin with column c, read from alpha (precomputed once per table,
with their inverse columns and last position).  The deduction loop runs
these scans inline; ``_scan``, the only other scan, always defines cosets
to close a relator.  The strategies differ only in how they choose
definitions: HLT (the default) first scans every relator, in order, from
the coset with definitions, then both fill the coset's remaining empty
entries.  The queue is drained after each scan and after each
definition.  Coincidences are handled by a union-find with an
immediately processed queue.  A generator that is a relator of length 1
is the identity on every coset: its entries are set, and queued, when
the coset is created, since no deduction through another entry would
reach them.

A normal closure puts its added relator first, so HLT scans it, and
starts collapsing the table with its coincidences, before the relators
of the group it is added to grow the table.

When the coset cap is reached, the queue is drained; if no coset has died
the enumeration stops with the resource verdict ``EnumerationExhausted``
(never "infinite"), otherwise the dead rows are compressed away and the
loop restarts from coset 0.

Every closed table, enumerated or built directly, is finished the same
way: standardized (the live cosets renumbered breadth-first from coset 0,
which makes the table canonical for the subgroup, recording the spanning
tree of that search) and verified: every column must permute the cosets,
every relator must trace to its starting coset, and every subgroup
generator must fix coset 0.  The recorded tree gives the Schreier
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
    index4_hom,
    invert_word,
)


class EnumerationExhausted(Exception):
    """Coset cap reached without closing the table (resource verdict)."""

    def __init__(self, cap):
        super().__init__(f"coset enumeration exhausted its cap of {cap} rows")
        self.cap = cap


class _CapHit(Exception):
    pass


def _word_to_cols(word):
    """Word letters (g, e) to column indices: 2g for g, 2g+1 for g^-1."""
    return tuple(2 * g + (1 if e < 0 else 0) for g, e in word)


def _column_rotations(relator_cols, ncols):
    """For each column c, the distinct cyclic rotations of the relators and
    of their inverses that begin with c (proper powers repeat rotations),
    each as (cols, inverse_cols, last) for the deduction loop's scans."""
    rotations = [{} for _ in range(ncols)]
    for cols in relator_cols:
        for word in (cols, tuple(c ^ 1 for c in reversed(cols))):
            for i in range(len(word)):
                rot = word[i:] + word[:i]
                rotations[rot[0]][rot] = None
    return [
        tuple((rot, tuple(c ^ 1 for c in rot), len(rot) - 1) for rot in by_col)
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
        self.cap = cap
        self.strategy = strategy
        self.ncols = 2 * len(presentation.generators)
        self.relator_cols = [ _word_to_cols(r) for r in presentation.relators ]
        self.column_rotations = _column_rotations(self.relator_cols, self.ncols)
        # Generator columns whose generator is a relator of length 1: each
        # new coset maps itself there in both directions, queued as a
        # deduction, since no deduction through another entry reaches them.
        self.identity_cols = tuple(sorted(
            {2 * g for r in presentation.relators if len(r) == 1 for g, _ in r}
        ))
        self.table = [[None] * self.ncols]
        self.p = [0]
        self.live = 1
        self.total_defined = 1
        self.max_live = 1
        self.closed = False
        self.tree = None
        self._deductions = deque()
        for col in self.identity_cols:
            self.table[0][col] = self.table[0][col ^ 1] = 0
            self._deductions.append((0, col))

    @property
    def subgen_cols(self):
        return [_word_to_cols(cyclic_reduce(w)) for w in self.subgens]

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

    def _merge(self, a: int, b: int, queue) -> None:
        p = self.p
        # rep(k) is k itself, with nothing to compress, when k is live
        if p[a] != a:
            a = self.rep(a)
        if p[b] != b:
            b = self.rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            p[b] = a
            self.live -= 1
            queue.append(b)

    def _coincidence(self, a: int, b: int) -> None:
        table = self.table
        p = self.p
        rep = self.rep
        merge = self._merge
        deductions = self._deductions
        queue = deque()
        merge(a, b, queue)
        while queue:
            dead = queue.popleft()
            # enumerate reads each entry when it is reached, as the loop
            # below may clear later entries of the dead row
            for col, delta in enumerate(table[dead]):
                if delta is None:
                    continue
                inv = col ^ 1
                table[delta][inv] = None
                mu = rep(dead)
                nu = delta if p[delta] == delta else rep(delta)
                mu_row = table[mu]
                nu_row = table[nu]
                if mu_row[col] is not None:
                    merge(nu, mu_row[col], queue)
                elif nu_row[inv] is not None:
                    merge(mu, nu_row[inv], queue)
                else:
                    mu_row[col] = nu
                    nu_row[inv] = mu
                    deductions.append((mu, col))

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
        deductions = self._deductions
        table = self.table
        p = self.p
        coincidence = self._coincidence
        rotations = self.column_rotations
        while deductions:
            alpha, col = deductions.popleft()
            if p[alpha] != alpha:
                continue
            for cols, inverse_cols, last in rotations[col]:
                f, i = alpha, 0
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

    def _enumerate(self, scans) -> None:
        """One pass from coset 0: the subgroup generators are scanned from
        coset 0, then each live coset scans the relators in ``scans`` with
        definitions and fills its remaining empty entries.  The deduction
        queue is drained after each scan and after each definition."""
        table = self.table
        p = self.p
        scan = self._scan
        drain = self._process_deductions
        for cols in self.subgen_cols:
            scan(0, cols)
            drain()
        alpha = 0
        while alpha < len(table):
            for cols in scans:
                if p[alpha] != alpha:
                    break
                scan(alpha, cols)
                drain()
            row = table[alpha]
            for col in range(self.ncols):
                if p[alpha] != alpha:
                    break
                if row[col] is None:
                    self._define(alpha, col)
                    drain()
            alpha += 1

    # -- closure ------------------------------------------------------------

    def run(self) -> "CosetTable":
        # The only difference between the strategies: HLT scans the
        # relators from each coset with definitions, Felsch does not.
        scans = self.relator_cols if self.strategy == "hlt" else ()
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
        for col in _word_to_cols(word):
            coset = self.table[coset][col]
        return coset

    def verify_closed(self) -> None:
        n = len(self.table)
        for row in self.table:
            check(None not in row, "closed table has an undefined entry")
        for col in range(self.ncols):
            column = [self.table[alpha][col] for alpha in range(n)]
            check(sorted(column) == list(range(n)), "column is not a permutation")
        for cols in self.relator_cols:
            for alpha in range(n):
                coset = alpha
                for col in cols:
                    coset = self.table[coset][col]
                check(coset == alpha, "relator does not trace to identity")
        for cols in self.subgen_cols:
            coset = 0
            for col in cols:
                coset = self.table[coset][col]
            check(coset == 0, "subgroup generator moves coset 0")

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

    The word is the first relator.  HLT scans relators in order, and the
    word is what makes the quotient smaller than ``p``'s group, so its
    coincidences start collapsing the table before the other relators
    grow it (sigma: 3,079 cosets defined instead of 5,289 with it last).
    """
    quotient = Presentation.build(
        p.generators, (cyclic_reduce(word),) + p.relators, p.sides
    )
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
        reps.append(reps[alpha] + ((col >> 1, -1 if col & 1 else 1),))
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
        concat(reps[coset], ((g, 1),), invert_word(reps[table.table[coset][2 * g]]))
        for coset, g in _schreier_entries(table)
    ]


def quotient_structure(table: CosetTable) -> FiniteQuotient:
    """Group structure on the cosets of a closed table."""
    return FiniteQuotient(table)
