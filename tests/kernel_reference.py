"""Plain reference versions of the F_p kernel, of group arithmetic and
of category representation assembly.

Each kernel routine loops in Python, one row or one element at a time,
exactly as textbook Gaussian elimination and permutation composition do,
and serves as the reference for the table-driven and whole-array
versions in eiquiver.linalg and eiquiver.permgrp; poly_roots is the
scan over all of F_p that Cantor-Zassenhaus root finding replaced in
eiquiver.linalg.poly_roots.  split_common_eigenvectors is the
Burnside/Dixon split with one nullspace per eigenvalue of every class
matrix, that of the identity class included, that the Krylov
eigenvectors of eiquiver.linalg.eigenspaces replaced.  build_catrep is
the two-phase assembly
that eiquiver.morita.build_catrep replaced: it fills every morphism by
repeated sweeps, then checks functoriality against every group
element's matrix and every composable pair.  compose, build_algebra,
radical_report and ext_quiver_oracle are the category algebra one
product at a time, through MorphId and compose, that the index arrays of
eiquiver.oracle replaced.  character, inner_product, restrict, inflate
and restriction_multiplicity are character arithmetic one element at a
time, each character read from a table's class rows, that the table
arrays of eiquiver.chartab replaced.
"""

import numpy as np

from eiquiver import linalg
from eiquiver.eicat import EICategory, MorphId, orbit_representatives
from eiquiver.errors import InvariantError, SchemaError, ValidationError
from eiquiver.morita import check_group_rep
from eiquiver.permgrp import PermGroup, pmul
from groups import pinv


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


def character(table, i: int) -> list[int]:
    """The i-th irreducible of a table at each element, from its class
    row."""
    return [table.rows[i][table.class_of[e]] for e in range(len(table.group))]


def inner_product(g: PermGroup, f, h, p: int) -> int:
    """<f, h> = |G|^-1 sum_x f(x) h(x^-1) in F_p, for class functions on g
    listed by element."""
    acc = 0
    for i in range(len(g)):
        acc = (acc + f[i] * h[inv(g, i)]) % p
    return acc * pow(len(g), p - 2, p) % p


def restrict(values, sub) -> list[int]:
    """A function on sub's parent read at sub's members."""
    return [values[i] for i in sub.member_positions]


def inflate(values, quot) -> list[int]:
    """A function on the quotient read at each member of its base."""
    return [values[quot.projection[i]] for i in quot.base.member_positions]


def restriction_multiplicity(table, sub, mu, p: int) -> list[list[int]]:
    """[i][j] = <chi_i restricted to sub, mu_j>, one inner product per
    pair."""
    g = sub.as_group()
    return [[inner_product(g, restrict(character(table, i), sub), m, p)
             for m in mu] for i in range(len(table))]


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


def build_catrep(cat: EICategory, p: int, gen_mats: dict,
                 alpha_mats, dims_hint: dict | None = None) -> dict:
    """Assemble and validate a full representation from generator and
    representative matrices.  Objects whose group has no generators carry
    no matrices, so their dimension must come from dims_hint.  Every
    shape is checked before any element matrix is built."""
    dims = {}
    for x in cat.objects:
        mats = gen_mats.get(x, ())
        if len(mats) != len(cat.groups[x].generators):
            raise SchemaError(f"object {x}: need one matrix per generator")
        if mats:
            dim = mats[0].shape[0]
            if any(mm.shape != (dim, dim) for mm in mats):
                raise SchemaError(f"object {x}: matrices must be square and "
                                  "equally sized")
            if dims_hint is not None and dims_hint.get(x, dim) != dim:
                raise SchemaError(f"object {x}: declared dim disagrees with "
                                  "the matrices")
        elif dims_hint is not None and x in dims_hint:
            dim = dims_hint[x]
        else:
            raise SchemaError(f"object {x}: dimension cannot be inferred "
                              "without generator matrices")
        dims[x] = dim

    reps = orbit_representatives(cat)
    if len(alpha_mats) != len(reps):
        raise SchemaError("need one matrix per representative unfactorizable")
    checked = []
    for (rep, _), amat in zip(reps, alpha_mats):
        shape = (dims[rep.target], dims[rep.source])
        amat = np.asarray(amat, dtype=np.int64) % p
        # JSON writes every matrix with no rows as []
        if amat.shape != shape and not amat.size == 0 == shape[0]:
            raise SchemaError(f"representative {rep.source}->{rep.target}: "
                              f"matrix must be {shape[0]}x{shape[1]}")
        checked.append(amat.reshape(shape))
    alpha_mats = tuple(checked)
    elem_mats = {x: tuple(check_group_rep(cat.groups[x], gen_mats.get(x, ()),
                                          dims[x], p))
                 for x in cat.objects}
    assigned: dict[tuple[str, str], list] = {
        key: [None] * hs.size for key, hs in cat.homs.items()}

    def put(key, idx, mat):
        cur = assigned[key][idx]
        if cur is None:
            assigned[key][idx] = mat % p
        elif not np.array_equal(cur, mat % p):
            raise ValidationError(
                "not-functorial",
                f"morphism {key}[{idx}] receives two different matrices")

    for (rep, _), amat in zip(reps, alpha_mats):
        put((rep.source, rep.target), rep.index, amat)

    # saturate: spread by the group actions and composition tables until
    # every morphism has a matrix, checking consistency at every meeting
    changed = True
    while changed:
        changed = False
        for (x, y), hs in cat.homs.items():
            gx, gy = cat.groups[x], cat.groups[y]
            for idx in range(hs.size):
                mat = assigned[(x, y)][idx]
                if mat is None:
                    continue
                for k in range(len(gy.generators)):
                    tgt = hs.left_gen[k][idx]
                    if assigned[(x, y)][tgt] is None:
                        gpos = gy.index_of[gy.generators[k]]
                        put((x, y), tgt,
                            linalg.matmul(elem_mats[y][gpos], mat, p))
                        changed = True
                for k in range(len(gx.generators)):
                    tgt = hs.right_gen[k][idx]
                    if assigned[(x, y)][tgt] is None:
                        gpos = gx.index_of[gx.generators[k]]
                        put((x, y), tgt,
                            linalg.matmul(mat, elem_mats[x][gpos], p))
                        changed = True
        for (x, z, y), table in cat.comp.items():
            for b in range(cat.homs[(z, y)].size):
                mb = assigned[(z, y)][b]
                if mb is None:
                    continue
                for a in range(cat.homs[(x, z)].size):
                    ma = assigned[(x, z)][a]
                    if ma is not None and assigned[(x, y)][table[b][a]] is None:
                        put((x, y), table[b][a], linalg.matmul(mb, ma, p))
                        changed = True
    for key, mats in assigned.items():
        if any(m is None for m in mats):
            raise InvariantError(f"hom {key} has unreachable morphisms")

    # full functoriality check: actions and every composition table
    for (x, y), hs in cat.homs.items():
        gx, gy = cat.groups[x], cat.groups[y]
        for idx in range(hs.size):
            mat = assigned[(x, y)][idx]
            for h in range(len(gy)):
                expect = linalg.matmul(elem_mats[y][h], mat, p)
                if not np.array_equal(assigned[(x, y)][hs.left_elem[h][idx]],
                                      expect):
                    raise ValidationError("not-functorial",
                                          f"left action fails on hom {x}->{y}")
            for g in range(len(gx)):
                expect = linalg.matmul(mat, elem_mats[x][g], p)
                if not np.array_equal(assigned[(x, y)][hs.right_elem[g][idx]],
                                      expect):
                    raise ValidationError("not-functorial",
                                          f"right action fails on hom {x}->{y}")
    for (x, z, y), table in cat.comp.items():
        for b in range(cat.homs[(z, y)].size):
            for a in range(cat.homs[(x, z)].size):
                expect = linalg.matmul(assigned[(z, y)][b],
                                       assigned[(x, z)][a], p)
                if not np.array_equal(assigned[(x, y)][table[b][a]], expect):
                    raise ValidationError(
                        "not-functorial",
                        f"composition {x}->{z}->{y} is not respected")

    # the morphism matrices, on which the two assemblies are compared
    return {key: tuple(mats) for key, mats in assigned.items()}


def poly_roots(coeffs, p):
    """The roots in F_p with multiplicity, ascending, by evaluating the
    polynomial (highest degree first) at every element of F_p and
    dividing out each root found."""
    coeffs = [c % p for c in coeffs]
    roots = []
    deg = len(coeffs) - 1
    for lam in range(p):
        if deg == 0:
            break
        while deg > 0 and linalg.poly_eval(coeffs, lam, p) == 0:
            out = []
            acc = 0
            for c in coeffs:
                acc = (acc * lam + c) % p
                out.append(acc)
            coeffs = out[:-1]
            deg -= 1
            roots.append(lam)
    return roots


def split_common_eigenvectors(mats, r, p):
    """The common eigenvectors of the class matrices mats (r x r), one
    column per irreducible: each subspace, as columns, is cut by the
    nullspace of s - lam*I for every root lam of the matrix s by which
    the next class matrix acts on it, until every subspace is a line."""
    spaces = [linalg.eye(r)]
    for m in mats:
        nxt = []
        for c in spaces:
            if c.shape[1] == 1:
                nxt.append(c)
                continue
            s = linalg.solve(c, linalg.matmul(m, c, p), p)
            for lam in sorted(set(linalg.poly_roots(linalg.char_poly(s, p),
                                                    p))):
                ns = linalg.nullspace((s - lam * linalg.eye(len(s))) % p, p)
                sub = linalg.matmul(c, ns.T % p, p)
                nxt.append(linalg.row_space(sub.T, p).T)
        spaces = nxt
    assert all(c.shape[1] == 1 for c in spaces)
    return [c[:, 0] for c in spaces]


def compose(cat: EICategory, f: MorphId, g: MorphId) -> MorphId:
    """The composite f∘g (g first); raises on a non-composable pair."""
    if f.source != g.target:
        raise ValidationError("non-composable",
                              f"cannot compose {f} after {g}")
    if f.is_endo and g.is_endo:
        return MorphId(f.source, f.target,
                       cat.groups[f.source].mul(f.index, g.index))
    if f.is_endo:
        hs = cat.homs[(g.source, g.target)]
        return MorphId(g.source, g.target, hs.left_elem[f.index][g.index])
    if g.is_endo:
        hs = cat.homs[(f.source, f.target)]
        return MorphId(f.source, f.target, hs.right_elem[g.index][f.index])
    table = cat.comp.get((g.source, g.target, f.target))
    if table is None:
        raise ValidationError("missing-composition",
                              f"no composition table for "
                              f"{g.source}->{g.target}->{f.target}")
    return MorphId(g.source, f.target, table[f.index][g.index])


def build_algebra(cat: EICategory):
    """(basis, index, prod): prod[i][j] is the basis index of
    basis[i]∘basis[j], or -1 when undefined, one compose call each."""
    basis = tuple(cat.morphisms())
    index = {m: i for i, m in enumerate(basis)}
    prod = []
    for f in basis:
        row = []
        for g in basis:
            if f.source == g.target:
                row.append(index[compose(cat, f, g)])
            else:
                row.append(-1)
        prod.append(tuple(row))
    return basis, index, tuple(prod)


def radical_report(cat: EICategory, basis, index, prod):
    """(rad, rad², rad/rad², nilpotency degree) positions, from the
    table as sets of basis elements."""
    noniso = tuple(i for i, m in enumerate(basis) if not m.is_endo)
    noniso_set = set(noniso)
    for i in range(len(basis)):
        for j in noniso:
            for k in (prod[i][j], prod[j][i]):
                if k >= 0 and k not in noniso_set:
                    raise InvariantError("non-isomorphisms do not span an "
                                         "ideal")
    layers = [noniso_set]
    while layers[-1]:
        nxt = {prod[i][j] for i in noniso for j in layers[-1]
               if prod[i][j] >= 0}
        if nxt == layers[-1]:
            raise InvariantError("span of non-isomorphisms is not nilpotent")
        layers.append(nxt)
    rad_sq = layers[1] if len(layers) > 1 else set()
    expected = {index[MorphId(x, y, i)]
                for (x, y), idxs in cat.unfactorizables.items() for i in idxs}
    got = noniso_set - rad_sq
    if got != expected:
        raise InvariantError("rad/rad² basis disagrees with the "
                             "unfactorizable morphisms")
    return noniso, tuple(sorted(rad_sq)), tuple(sorted(got)), len(layers)


def ext_quiver_oracle(cat: EICategory, prime, tables) -> dict:
    """Arrow multiplicities mod p, counting each fixed point and summing
    each character product one element pair at a time."""
    p = prime.p
    out: dict = {}
    for (x, y), idxs in cat.unfactorizables.items():
        if not idxs:
            continue
        G, H = cat.groups[x], cat.groups[y]
        hs = cat.homs[(x, y)]
        fix = [[0] * len(G) for _ in range(len(H))]
        for h in range(len(H)):
            for g in range(len(G)):
                ginv = G.inv(g)
                fix[h][g] = sum(
                    1 for b in idxs
                    if hs.left_elem[h][hs.right_elem[ginv][b]] == b)
        scale = linalg.inv_scalar(len(G) * len(H) % p, p)
        tG, tH = tables[x], tables[y]
        for v in range(len(tG)):
            row_v = tG.rows[v]
            for w in range(len(tH)):
                row_w = tH.rows[w]
                acc = 0
                for h in range(len(H)):
                    cwh = row_w[tH.class_of[H.inv(h)]]
                    for g in range(len(G)):
                        acc = (acc + fix[h][g] * cwh *
                               row_v[tG.class_of[g]]) % p
                m = acc * scale % p
                if m:
                    out[((x, v), (y, w))] = m
    return out
