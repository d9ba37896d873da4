"""Independent oracles that the tests check library results against."""


def determinant(matrix) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def quotient_is_abelian(table) -> bool:
    """Whether the cosets of a closed table of a normal subgroup H multiply
    commutatively in G/H, from the full n x n multiplication table: coset
    i times coset j is coset i traced along a word that leads from coset 0
    to coset j (one per coset, found breadth-first)."""
    rows = table.table
    reps = {0: ()}
    order = [0]
    for alpha in order:
        for col, beta in enumerate(rows[alpha]):
            if beta not in reps:
                reps[beta] = reps[alpha] + (col,)
                order.append(beta)

    def times(i, j):
        for col in reps[j]:
            i = rows[i][col]
        return i

    n = len(rows)
    return all(times(i, j) == times(j, i) for i in range(n) for j in range(i + 1, n))


def depth1_moves(c) -> dict:
    """Map (x, y) -> the list of (y'^-1, x'^-1) over every reading x y x' y'
    of a square of c: the four rotations of its relator and of the
    relator's inverse.  Each reading says x y = y'^-1 x'^-1, so x moves
    the letter y to y'^-1 and continues as x'^-1."""
    moves = {}
    for sq in c.squares:
        inverse = tuple(x ^ 1 for x in reversed(sq))
        for word in (tuple(sq), inverse):
            for i in range(4):
                x, y, x2, y2 = word[i:] + word[:i]
                moves.setdefault((x, y), []).append((y2 ^ 1, x2 ^ 1))
    return moves
