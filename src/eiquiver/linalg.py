"""Exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced to {0..p-1}.  All
routines use deterministic pivoting (first nonzero column, topmost row)
so that downstream artifacts are reproducible byte-for-byte.  Each
elimination step is one whole-array update of the rows it touches, so
no routine loops over rows in Python; the characteristic polynomial
comes from a Hessenberg reduction, O(n^3).  Products stay below
n * p^2, which fits int64 for p up to ~10^6.
"""

from __future__ import annotations

import numpy as np


def asmod(a, p: int) -> np.ndarray:
    return np.asarray(a, dtype=np.int64) % p


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def zeros(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # entries bounded by n * p^2 which fits in int64 for p up to ~10^6
    return (a.astype(np.int64) @ b.astype(np.int64)) % p


def inv_scalar(x: int, p: int) -> int:
    return pow(int(x) % p, p - 2, p)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot_columns).

    Per pivot, the rows with a nonzero entry in its column are cleared
    in one array operation.
    """
    r = asmod(a, p)
    m, n = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = r[:, col].nonzero()[0]
        k = nz.searchsorted(row)
        if k == nz.size:
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
    return r, pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def row_space(a: np.ndarray, p: int) -> np.ndarray:
    """Deterministic echelon basis of the row space (nonzero rows of rref)."""
    r, pivots = rref(a, p)
    return r[: len(pivots)]


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


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of a x = b (columns of b), or None if inconsistent."""
    n = a.shape[1]
    b = asmod(b, p)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    r, pivots = rref(np.hstack([asmod(a, p), b]), p)
    # a pivot in the right-hand block is a row 0 = nonzero
    if pivots and pivots[-1] >= n:
        return None
    x = zeros(n, b.shape[1])
    x[pivots] = r[:len(pivots), n:]
    return x


def inv(a: np.ndarray, p: int) -> np.ndarray:
    n = a.shape[0]
    r, pivots = rref(np.hstack([asmod(a, p), eye(n)]), p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible mod %d" % p)
    return r[:, n:]


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


def poly_eval(coeffs: list[int], x: int, p: int) -> int:
    acc = 0
    for c in coeffs:
        acc = (acc * x + c) % p
    return acc


def poly_roots(coeffs: list[int], p: int) -> list[int]:
    """All roots in F_p with multiplicity, ascending. Assumes the polynomial
    splits (true for class-sum matrices over a splitting prime)."""
    coeffs = [c % p for c in coeffs]
    roots: list[int] = []
    deg = len(coeffs) - 1
    for lam in range(p):
        if deg == 0:
            break
        while deg > 0 and poly_eval(coeffs, lam, p) == 0:
            # synthetic division by (x - lam)
            out = []
            acc = 0
            for c in coeffs:
                acc = (acc * lam + c) % p
                out.append(acc)
            coeffs = out[:-1]
            deg -= 1
            roots.append(lam)
    return roots
