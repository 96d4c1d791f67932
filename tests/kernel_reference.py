"""Plain reference versions of the F_p kernel and of group arithmetic.

Each routine loops in Python, one row or one element at a time, exactly
as textbook Gaussian elimination and permutation composition do, and
serves as the reference for the table-driven and whole-array versions in
eiquiver.linalg and eiquiver.permgrp.
"""

import numpy as np

from eiquiver.permgrp import PermGroup, pinv, pmul


def rref(a, p):
    """Reduced row echelon form of a list of rows: (rows, pivot columns),
    pivoting on the topmost nonzero entry of the first usable column."""
    r = [[int(v) % p for v in row] for row in a]
    m = len(r)
    n = len(r[0]) if m else 0
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        sel = next((i for i in range(row, m) if r[i][col]), None)
        if sel is None:
            continue
        r[row], r[sel] = r[sel], r[row]
        s = pow(r[row][col], p - 2, p)
        r[row] = [v * s % p for v in r[row]]
        for i in range(m):
            f = r[i][col]
            if i != row and f:
                r[i] = [(v - f * w) % p for v, w in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
    return r, pivots


def nullspace(a, p, n):
    """Basis of {x : a x = 0} (a has n columns), one vector per free
    column j: 1 at j, minus the rref entries at the pivot columns."""
    r, pivots = rref(a, p)
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        v = [0] * n
        v[j] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][j] % p
        basis.append(v)
    return basis


def solve(a, b, p, n, k):
    """The solution of a x = b that rref picks (free variables 0), or
    None if the system is inconsistent; a is m x n, b is m x k, both
    lists of rows."""
    r, pivots = rref([list(ra) + list(rb) for ra, rb in zip(a, b)], p)
    if any(pc >= n for pc in pivots):
        return None
    x = [[0] * k for _ in range(n)]
    for i, pc in enumerate(pivots):
        x[pc] = r[i][n:]
    return x


def sylvester_system(dims1, dims2, edges, p):
    """The rows of {(T_v) : T_t M1 = M2 T_s for every edge (s, t, M1, M2)}
    with Kronecker products, vec(T M1) = (M1^T (x) I) vec(T) and
    vec(M2 T) = (I (x) M2) vec(T): one full-width block of rows per edge,
    T_v (dims2[v] x dims1[v]) column-major at its vertex's offset."""
    off = [0]
    for a, b in zip(dims1, dims2):
        off.append(off[-1] + a * b)
    rows = []
    for s, t, m1, m2 in edges:
        a, b = dims1[s], dims2[t]
        row = np.zeros((a * b, off[-1]), dtype=np.int64)
        row[:, off[t]:off[t + 1]] = \
            np.kron(m1.T, np.eye(b, dtype=np.int64)) % p
        row[:, off[s]:off[s + 1]] = \
            (row[:, off[s]:off[s + 1]] -
             np.kron(np.eye(a, dtype=np.int64), m2)) % p
        rows.append(row)
    if not rows:
        return np.zeros((0, off[-1]), dtype=np.int64)
    return np.vstack(rows) % p


def det(a, p):
    """Determinant by elimination to upper-triangular form."""
    r = [[int(v) % p for v in row] for row in a]
    n = len(r)
    d = 1
    for col in range(n):
        sel = next((i for i in range(col, n) if r[i][col]), None)
        if sel is None:
            return 0
        if sel != col:
            r[col], r[sel] = r[sel], r[col]
            d = -d
        d = d * r[col][col] % p
        s = pow(r[col][col], p - 2, p)
        for i in range(col + 1, n):
            f = r[i][col] * s % p
            r[i] = [(v - f * w) % p for v, w in zip(r[i], r[col])]
    return d % p


def mul(g: PermGroup, i: int, j: int) -> int:
    return g.index_of[pmul(g.elements[i], g.elements[j])]


def inv(g: PermGroup, i: int) -> int:
    return g.index_of[pinv(g.elements[i])]


def conjugacy_classes(g: PermGroup) -> list[tuple[int, ...]]:
    """Classes as sorted member tuples, in order of first member, by
    conjugating each element by every element of the group."""
    seen = set()
    out = []
    for i in range(len(g)):
        if i in seen:
            continue
        orbit = {mul(g, mul(g, t, i), inv(g, t)) for t in range(len(g))}
        seen |= orbit
        out.append(tuple(sorted(orbit)))
    return out
