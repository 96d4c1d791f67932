"""Exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced to {0..p-1}.  All
routines use deterministic pivoting (first nonzero column, topmost row)
so that downstream artifacts are reproducible byte-for-byte.  Each
elimination step is one whole-array update of the rows it touches, so
no routine loops over rows in Python, and rref takes one step per
pivot, not one per column; the characteristic polynomial
comes from a Hessenberg reduction, O(n^3).  Eigenspaces of simple roots
come from one Krylov basis per matrix, O(n^2) each after its O(n^3)
build, rather than one elimination each.  No routine solves a linear
system: a caller reads its solution off rref's pivot rows, where an
echelon basis B with B[pivots] = I gives B x = y as x = y[pivots].
Products stay below n * p^2, which fits int64 for p up to ~10^6.
"""

from __future__ import annotations

from itertools import dropwhile, groupby

import numpy as np


def asmod(a, p: int) -> np.ndarray:
    return np.asarray(a, dtype=np.int64) % p


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def zeros(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # entries bounded by n * p^2 which fits in int64 for p up to ~10^6
    return (a.astype(np.int64, copy=False)
            @ b.astype(np.int64, copy=False)) % p


def inv_scalar(x: int, p: int) -> int:
    return pow(int(x) % p, p - 2, p)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot_columns).

    One step per pivot: a column with no nonzero entry at or below the
    current row is passed over with every such column after it, by one
    search of the trailing block for the next column that has one.  Per
    pivot, the rows with a nonzero entry in its column are cleared in
    one array operation.
    """
    r = asmod(a, p)
    m, n = r.shape
    pivots: list[int] = []
    row = col = 0
    while row < m and col < n:
        nz = r[:, col].nonzero()[0]
        k = nz.searchsorted(row)
        if k == nz.size:
            live = r[row:, col + 1:].any(axis=0).nonzero()[0]
            if live.size == 0:
                break
            col += 1 + int(live[0])
            continue
        sel = nz[k]
        if sel != row:
            # row held a zero here, so nz minus sel are the rows to clear
            r[[row, sel]] = r[[sel, row]]
        piv = r[row]
        piv *= inv_scalar(piv[col], p)
        piv %= p
        if nz.size > 1:
            others = nz[nz != sel]
            r[others] = (r[others] - r[others, col, None] * piv) % p
        pivots.append(col)
        row += 1
        col += 1
    return r, pivots


def row_space(a: np.ndarray, p: int) -> np.ndarray:
    """Deterministic echelon basis of the row space (nonzero rows of rref)."""
    r, pivots = rref(a, p)
    return r[: len(pivots)]


def column_echelon(c: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """(basis, pivots) of the span of c's columns, from one rref of c's
    transpose: basis[pivots] is the identity."""
    r, pivots = rref(c.T, p)
    return r[:len(pivots)].T, pivots


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of {x : a x = 0} as rows, in echelon-determined order: one
    row per free column j, with 1 at j and -R[i, j] at pivot column i."""
    n = a.shape[1]
    r, pivots = rref(a, p)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    basis = zeros(free.size, n)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -r[:len(pivots), free].T % p
    return basis


def char_poly(a: np.ndarray, p: int) -> list[int]:
    """Coefficients of det(xI - a), highest degree first.

    Elimination similarities bring a to upper Hessenberg form H; the
    characteristic polynomials P_k of H's leading k x k blocks then obey
    P_k = (x - H[k-1,k-1]) P_{k-1}
          - sum_{i<k} H[k-i-1,k-1] H[k-1,k-2]...H[k-i,k-i-1] P_{k-i-1}
    (Cohen, A Course in Computational Algebraic Number Theory, Alg.
    2.2.9).  O(n^3) in all, and valid for every p.
    """
    h = asmod(a, p)
    n = h.shape[0]
    for m in range(1, n - 1):
        nz = np.flatnonzero(h[m:, m - 1])
        if nz.size == 0:
            continue
        i = m + int(nz[0])
        if i != m:
            h[[m, i]] = h[[i, m]]
            h[:, [m, i]] = h[:, [i, m]]
        # rows below m lose u * row m; column m gains u * those columns
        u = h[m + 1:, m - 1] * inv_scalar(h[m, m - 1], p) % p
        h[m + 1:] = (h[m + 1:] - u[:, None] * h[m]) % p
        h[:, m] = (h[:, m] + h[:, m + 1:] @ u) % p
    hl = h.tolist()
    polys = zeros(n + 1, n + 1)   # row k: P_k, lowest degree first
    polys[0, 0] = 1
    for k in range(1, n + 1):
        prev = polys[k - 1]
        cur = polys[k]
        cur[1:] = prev[:-1]
        cur -= hl[k - 1][k - 1] * prev
        t, c = 1, []
        for i in range(1, k):
            t = t * hl[k - i][k - i - 1] % p
            c.append(hl[k - i - 1][k - 1] * t % p)
        if c:
            cur -= np.array(c, dtype=np.int64) @ polys[k - 2::-1]
        cur %= p
    return [int(v) for v in polys[n, ::-1]]


def eigenspaces(a: np.ndarray, p: int):
    """The nullspace of a - lam*I, rows as nullspace gives them, for each
    distinct root lam of f = det(xI - a), in ascending order of lam.
    Yielded one at a time, so a caller that stops at the first builds
    only that one.

    A simple root's eigenspace is the line through q(a) e_0, q = f/(x -
    lam): q(a) kills every other primary component and maps onto the
    eigenline.  That vector is K times q's coefficients, K = [e_0, a e_0,
    ..., a^(m-1) e_0] built once at the first simple root, and is scaled
    so that its last nonzero entry is 1, which is the one row nullspace
    gives.  A repeated root, or a simple one whose q(a) e_0 is 0, goes
    through nullspace.
    """
    m = a.shape[0]
    f = char_poly(a, p)
    krylov = None
    for lam, run in groupby(poly_roots(f, p)):
        if len(list(run)) == 1:
            if krylov is None:
                krylov = zeros(m, m)   # row i: a^i e_0
                krylov[0, 0] = 1
                for i in range(1, m):
                    krylov[i] = a @ krylov[i - 1] % p
            q = _divmod(f, [1, -lam], p)[0]
            v = np.array(q[::-1], dtype=np.int64) @ krylov % p
            nz = np.flatnonzero(v)
            if nz.size:
                yield (v * inv_scalar(v[nz[-1]], p) % p)[None]
                continue
        yield nullspace((a - lam * eye(m)) % p, p)


def poly_eval(coeffs: list[int], x: int, p: int) -> int:
    acc = 0
    for c in coeffs:
        acc = (acc * x + c) % p
    return acc


def _monic(a: list[int], p: int) -> list[int]:
    a = list(dropwhile(lambda c: not c, (c % p for c in a)))
    s = inv_scalar(a[0], p) if a else 0
    return [c * s % p for c in a]


def _divmod(a: list[int], f: list[int], p: int):
    """Quotient and remainder of a by monic f, reduced mod p."""
    a, n = list(a), len(f) - 1
    k = max(len(a) - n, 0)
    for i in range(k):
        c = a[i] = a[i] % p
        if c:
            for j, y in enumerate(f[1:], i + 1):
                a[j] -= c * y
    return a[:k], [c % p for c in a[k:]]


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b := _monic(b, p):
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _powmod(a: int, e: int, f: list[int], p: int) -> list[int]:
    """(x + a)^e mod monic f, by repeated squaring."""
    r = [1]
    for bit in bin(e)[2:]:
        sq = [0] * (2 * len(r) - 1)
        for i, x in enumerate(r):
            for j, y in enumerate(r, i):
                sq[j] += x * y
        r = _divmod(sq, f, p)[1]
        if bit == "1":
            r = _divmod([c + a * d for c, d in zip(r + [0], [0] + r)], f, p)[1]
    return r


def _split(g: list[int], p: int, a: int = 0) -> list[int]:
    """The roots of g, a product of distinct monic linear factors, split by
    the first proper gcd((x+a')^(p//2) - 1, g), a' >= a (a' < a + p).

    The recursion ends at quadratics g = x^2 + bx + c, where the same
    test is taken in F_p[x]/(g) on pairs u + vx of ints: the gcd is
    proper exactly when t = (u - 1) + vx, the power less 1, has v != 0
    and its root r = -(u - 1)/v is a root of g, and then the other root
    is -b - r.
    """
    if len(g) <= 2:
        return [-g[1] % p] if len(g) == 2 else []
    if len(g) == 3:
        _, b, c = g
        while True:
            u, v, s = 1, 0, a % p
            for bit in bin(p // 2)[2:]:
                u, v = (u * u - c * v * v) % p, (2 * u * v - b * v * v) % p
                if bit == "1":
                    u, v = (s * u - c * v) % p, (u + (s - b) * v) % p
            a += 1
            if v:
                r = (1 - u) * inv_scalar(v, p) % p
                if (r * r + b * r + c) % p == 0:
                    return [r, (-b - r) % p]
    while True:
        t = _powmod(a % p, p // 2, g, p)
        t[-1] -= 1
        h = _gcd(g, t, p)
        a += 1
        if 1 < len(h) < len(g):
            return _split(h, p, a) + _split(_divmod(g, h, p)[0], p, a)


def poly_roots(coeffs: list[int], p: int) -> list[int]:
    """All roots in F_p of a nonzero f with multiplicity, ascending: those
    of gcd(f, x^p - x) by _split, each divided out as often as it divides f."""
    f, roots = _monic(coeffs, p), []
    xp = [0, 0] + _powmod(0, p, f, p)   # x^p mod f, with room for - x
    xp[-2] -= 1
    for lam in sorted(_split(_gcd(f, xp, p), p)):
        while poly_eval(f, lam, p) == 0:
            f = _divmod(f, [1, -lam], p)[0]
            roots.append(lam)
    return roots
