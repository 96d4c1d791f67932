"""Plain reference versions of the F_p kernel, of group arithmetic and
of category representation assembly.

Each kernel routine loops in Python, one row or one element at a time,
exactly as textbook Gaussian elimination and permutation composition do,
and serves as the reference for the table-driven and whole-array
versions in eiquiver.linalg and eiquiver.permgrp; poly_roots is the
scan over all of F_p that Cantor-Zassenhaus root finding replaced in
eiquiver.linalg.poly_roots.  intertwiner_basis is the nullspace of a
one-vertex Sylvester system that the projections of
eiquiver.morita.projection_bases replaced in the functor's Hom bases.
minimal_polynomial is the least dependency among I, a, a^2, ... by
rank, the reference for the certified Krylov minimal polynomial of
eiquiver.linalg.eigenspaces.  split_common_eigenvectors is the
Burnside/Dixon split with one nullspace per root of every class
matrix's characteristic polynomial, that of the identity class
included, that the minimal polynomials and Krylov eigenvectors of
eiquiver.linalg.eigenspaces replaced, and character_table is that
split on the whole class space, from the identity and through every
class matrix, that eiquiver.chartab replaced by writing the linear
characters down from G/G' and splitting only their complement.
linear_model is a degree-1 model read off the regular module's
isotypic projection and its echelon basis, that eiquiver.morita
replaced by writing the character down as its own model.
build_catrep is the two-phase
assembly that eiquiver.morita.build_catrep replaced: it fills every
morphism by repeated sweeps, then checks functoriality against every
group element's matrix and every composable pair, one morphism at a
time.  Its element matrices come from element_matrices and
check_group_rep, one product per element and one relation per element
and generator, that the batched products of eiquiver.morita replaced.
compose, build_algebra, radical_report and ext_quiver_oracle are the
category algebra one product at a time, through MorphId and compose and
a whole |Mor|×|Mor| product table over the basis that morphisms lists,
that the per-morphism layer numbers and index arrays of
eiquiver.oracle replaced.  character,
inner_product, restrict, inflate and restriction_multiplicity are
character arithmetic one element at a time, each character read from a
table's class rows, that the table arrays of eiquiver.chartab
replaced.  hom_dim_cat is the natural transformation count from one
Sylvester system with a loop edge per object generator beside the
representative edges, eliminated whole, that the fixed-point bases of
eiquiver.morita.hom_dim_cat replaced.
validate_category checks the category axioms one table entry at a time,
as the whole-table comparisons of eiquiver.eicat.validate_category
replaced, and raises the same first finding and message.
is_free_by_cover compares hom-set sizes with the free cover, the
freeness decision that the unique-factorization test
eiquiver.freecover.is_free replaced.  cartan_matrix and path_counts
state the source paper's theorem as a check: the Cartan matrix of the
category algebra is bounded by the quiver's path counts, with equality
exactly when the category is free (p never divides a group order here).
inverse_functor is the inverse functor by one solve per orbit,
alpha [S | comp] = [T C | 0], from the blocks of the functor (the
units of the block-diagonal module, C holding the arrow matrices) and
comp spanning the kernel of the module's G0 average, that the cached
L_V and the placed blocks of eiquiver.morita.inverse_functor replaced.
screen_two_object is the two-object screening of
eiquiver.reptype.screen_two_object by each side's own character table:
the table of K1 (G1 or H1) as a group of its own, each irreducible's
sum over K0 (G0 or H0), and one restriction product from the object's
table to K1.  The program reads the same rows off its orbit data's e
and f instead.
"""

from math import isqrt

import numpy as np

from eiquiver import chartab, linalg, morita, permgrp
from eiquiver.chartab import CharTable
from eiquiver.eicat import (DEFAULT_PATH_BOUND, MAX_ELEMENT_ENTRIES,
                            EICategory, MorphId, _check_connected,
                            homset_orbits, orbit_representatives,
                            stabilizer_data)
from eiquiver.errors import InvariantError, SchemaError, ValidationError
from eiquiver.freecover import free_cover
from eiquiver.permgrp import PermGroup, pmul, word_products
from groups import as_group, hom_size, identity_pos, pinv


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


def inverse(a, p):
    """The inverse of an invertible square array a, as an int64 array:
    solve against the identity."""
    n = len(a)
    x = solve(a.tolist(), np.eye(n, dtype=int).tolist(), p, n, n)
    return np.array(x, dtype=np.int64).reshape(n, n)


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


def intertwiner_basis(As, Bs, p, a, b):
    """Echelon basis of {T (b x a) : T A_i = B_i T for all i}: the
    nullspace of the Sylvester system with one vertex and a loop edge per
    pair, each vector read back column-major."""
    system = sylvester_system(
        [a], [b], [(0, 0, A, B) for A, B in zip(As, Bs)], p)
    ns = linalg.nullspace(system, p)
    return [ns[k].reshape((b, a), order="F") % p for k in range(ns.shape[0])]


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
    row, as Python ints."""
    row = np.asarray(table.rows[i]).tolist()
    return [row[table.class_of[e]] for e in range(len(table.group))]


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
    g = as_group(sub)
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


def element_matrices(group: PermGroup, gen_mats, dim: int, p: int) -> tuple:
    """Matrix of every group element, one product per element along its
    BFS word."""
    return word_products(group, gen_mats, linalg.eye(dim),
                         lambda acc, m: linalg.matmul(acc, m, p))


def check_group_rep(group: PermGroup, gen_mats, dim: int, p: int) -> tuple:
    """The element matrices once the generator matrices are checked
    against the group relations one element and generator at a time,
    with the findings of eiquiver.morita.check_group_rep and, ahead of
    them, the element-matrix size check of its build_catrep."""
    if len(group) * dim * dim > MAX_ELEMENT_ENTRIES:
        raise ValidationError("too-large", f"{len(group) * dim * dim} "
                              "matrix entries")
    mats = element_matrices(group, gen_mats, dim, p)
    for s, m in zip(group.generators, gen_mats):
        for e, es in enumerate(group.right_products(s).tolist()):
            if not np.array_equal(mats[es], linalg.matmul(mats[e], m, p)):
                raise ValidationError(
                    "not-a-representation",
                    "generator matrices violate the group relations")
    return mats


def linear_model(group: PermGroup, table: CharTable, i: int) -> tuple:
    """The model of the linear character i found inside the regular
    module: the leading columns of the isotypic projection, (a, j) entry
    chi(j a^-1) / |G|, twice as many each time until one pivot shows;
    their reduced echelon basis w, w[piv] = 1; and each matrix gathered
    from w at s^-1 piv, as int64 arrays."""
    p, n = table.p, len(group)
    chi, scale = character(table, i), pow(n, p - 2, p)
    take = 2
    while True:
        cols = [[chi[mul(group, j, inv(group, a))] * scale % p
                 for a in range(n)] for j in range(min(take, n))]
        r, piv = rref(cols, p)
        if piv or take >= n:
            break
        take *= 2
    assert len(piv) == 1
    w = r[0]

    def at(k):
        return np.array([[w[mul(group, inv(group, k), piv[0])]]],
                        dtype=np.int64)
    gens = tuple(at(group.index_of[s]) for s in group.generators)
    return gens, np.array([at(k) for k in range(n)]).reshape(n, 1, 1)


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


def hom_dim_cat(r1, r2) -> int:
    """dim of the space of natural transformations R1 -> R2 of two
    eiquiver.morita.CatRep: the nullspace of one Sylvester system with a
    loop edge per object generator and an edge per orbit representative,
    valid in every characteristic."""
    cat = r1.cat
    at = {x: i for i, x in enumerate(cat.objects)}
    edges = [(at[x], at[x], a, b) for x in cat.objects
             for a, b in zip(r1.gen_mats[x], r2.gen_mats[x])]
    edges += [(at[rep.source], at[rep.target], a1, a2) for (rep, _), a1, a2
              in zip(orbit_representatives(cat), r1.alpha_mats, r2.alpha_mats)]
    system = sylvester_system([r1.dims[x] for x in cat.objects],
                              [r2.dims[x] for x in cat.objects], edges, r1.p)
    return int(linalg.nullspace(system, r1.p).shape[0])


def inverse_functor(ctx, qrep):
    """eiquiver.morita.CatRep with F(R) = qrep, by one elimination per
    orbit: the arrow matrices fill each block's C, and alpha solves
    alpha [S | comp] = [T C | 0], where comp spans the complement of the
    fixed points of G0, which alpha kills."""
    p, built = ctx.p, ctx.built
    # canonical module per object: the copies of each irreducible in turn
    obj_dims, elems, embeddings, gen_mats = {}, {}, {}, {}
    for x in built.cat.objects:
        counts = [qrep.dims[built.vertex_index[(x, v)]]
                  for v in range(len(built.tables[x]))]
        total = obj_dims[x] = sum(
            n * d for n, d in zip(counts, built.tables[x].dims))
        ident = linalg.eye(total)
        mats = [linalg.zeros(total, total)
                for _ in built.cat.groups[x].generators]
        pos = 0
        for v, (n, dv) in enumerate(zip(counts, built.tables[x].dims)):
            embeddings[(x, v)] = ident[:, pos:pos + n * dv].reshape(
                total, n, dv).transpose(1, 0, 2)
            if n:
                gm, elems[(x, v)] = ctx.model(x, v)
                for q in range(pos, pos + n * dv, dv):
                    for m, g in zip(mats, gm):
                        m[q:q + dv, q:q + dv] = g
            pos += n * dv
        gen_mats[x] = tuple(mats)

    alpha_mats = []
    for r, od in enumerate(built.orbits):
        x, y = od.rep.source, od.rep.target
        src_cols, img_cols = [], []
        for src, tgt, arrows in ctx.blocks(r, embeddings):
            coef = linalg.zeros(len(tgt), len(src))
            for k, rows, cols in arrows:
                coef[rows, cols] = qrep.arrow_mats[k]
            src_cols.extend(src)
            img_cols.extend(np.tensordot(coef, tgt, (0, 0)) % p)
        g0 = list(od.stab.G0.member_positions)
        proj = sum(e @ (el[g0].sum(0) % p) @ e.T
                   for (z, v), el in elems.items() if z == x
                   for e in embeddings[(z, v)])
        proj = proj * linalg.inv_scalar(len(g0), p) % p
        comp = linalg.row_space((linalg.eye(obj_dims[x]) - proj).T % p, p).T
        cmat = np.hstack(src_cols + [comp]) % p
        dmat = np.hstack(img_cols +
                         [linalg.zeros(obj_dims[y], comp.shape[1])]) % p
        # alpha C = D: C is invertible exactly when the rref of
        # [C^T | D^T] has its first n pivots at 0..n-1, and is then
        # [I | alpha^T]
        n = obj_dims[x]
        red, piv = linalg.rref(np.hstack([cmat.T, dmat.T]), p)
        if cmat.shape[1] != n or piv[:n] != list(range(n)):
            raise InvariantError("isotypic embeddings do not fill the module")
        alpha_mats.append(red[:, n:].T)
    return morita.build_catrep(built.cat, p, gen_mats, alpha_mats, obj_dims)


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


def minimal_polynomial(a, p):
    """The minimal polynomial of a square array a, highest degree first:
    for the least k at which I, a, ..., a^k, flattened, are dependent
    (their rank is below k + 1), the one dependency among them, scaled
    so that a^k's coefficient is 1."""
    m = len(a)
    powers = [np.eye(m, dtype=np.int64)]
    while len(rref([q.ravel().tolist() for q in powers], p)[1]) == \
            len(powers):
        powers.append(powers[-1] @ a % p)
    k = len(powers) - 1
    cols = np.array([q.ravel() for q in powers]).reshape(k + 1, m * m).T
    (dep,) = nullspace(cols.tolist(), p, k + 1)
    return dep[::-1]


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
            k = c.shape[1]
            s = np.array(solve(c.tolist(), linalg.matmul(m, c, p).tolist(),
                               p, k, k), dtype=np.int64)
            for lam in sorted(set(linalg.poly_roots(linalg.char_poly(s, p),
                                                    p))):
                ns = linalg.nullspace((s - lam * linalg.eye(len(s))) % p, p)
                sub = linalg.matmul(c, ns.T % p, p)
                nxt.append(linalg.row_space(sub.T, p).T)
        spaces = nxt
    assert all(c.shape[1] == 1 for c in spaces)
    return [c[:, 0] for c in spaces]


def character_table(g: PermGroup, p: int) -> CharTable:
    """The table by the Burnside/Dixon split of the whole class space:
    the common eigenvectors of every class matrix, counted one product
    at a time, from eye(r), each scaled to its character.  Rows sorted
    as eiquiver.chartab sorts them."""
    classes = permgrp.conjugacy_classes(g)
    class_of = permgrp.class_index_of(g, classes)
    r, n = len(classes), len(g)
    inv_size = [pow(len(c), p - 2, p) for c in classes]
    inv_class = [class_of[inv(g, c.rep)] for c in classes]
    mats = []
    for c in classes:
        # [j, k] = #{(u, v) in C_i x C_j : uv = w_k}
        m = np.zeros((r, r), dtype=np.int64)
        for u in c.members:
            for k, w in enumerate(classes):
                m[class_of[mul(g, inv(g, u), w.rep)], k] += 1
        mats.append(m % p)
    rows = []
    for om in split_common_eigenvectors(mats, r, p):
        # ω_k = |C_k| χ(g_k) / d, and sum_k ω_k ω_k' / |C_k| = |G| / d²
        om = [int(x) * pow(int(om[0]), p - 2, p) % p for x in om]
        norm = sum(om[k] * om[inv_class[k]] * inv_size[k] for k in range(r))
        d2 = n * pow(norm % p, p - 2, p) % p
        d = isqrt(d2)
        assert d * d == d2
        rows.append(tuple(d * om[k] * inv_size[k] % p for k in range(r)))
    rows.sort(key=lambda row: (row[0], row))
    return CharTable(g, p, tuple(classes), tuple(class_of), tuple(rows),
                     tuple(row[0] for row in rows))


def is_free_by_cover(cat: EICategory,
                     max_paths: int = DEFAULT_PATH_BOUND) -> bool:
    """Whether the canonical functor from the free cover is bijective.

    The functor is always surjective, so equality of hom-set sizes over
    every object pair decides it.
    """
    cover = free_cover(cat, max_paths=max_paths)
    pairs = set(cat.homs) | set(cover.homs)
    return all(hom_size(cat, *pr) == hom_size(cover, *pr) for pr in pairs)


def screen_two_object(cat: EICategory, prime):
    """((x, y), rule, witness) findings over every connected two-object
    full subcategory.  An irreducible S of K1 is a summand of the
    induction of k from K0 iff its restriction to K0 contains the
    trivial module, iff S summed over K0 is nonzero; its row over the
    irreducibles T of the object's group is <T restricted to K1, S>.
    The witness's X{s} numbers S in K1's table."""
    p = prime.p
    findings = []
    pos = {x: i for i, x in enumerate(cat.objects)}
    for (x, y) in sorted(cat.homs, key=lambda k: (pos[k[0]], pos[k[1]])):
        hs = cat.homs[(x, y)]
        orbits = homset_orbits(hs, range(hs.size))
        if len(orbits) > 1:
            findings.append(((x, y), "multiple-orbits",
                             f"{len(orbits)} biset orbits"))
            continue
        sd = stabilizer_data(cat, MorphId(x, y, orbits[0][0]))
        g_transitive = len(sd.H1) == len(cat.groups[y])
        h_transitive = len(sd.G1) == len(cat.groups[x])
        if not g_transitive and not h_transitive:
            findings.append(((x, y), "both-intransitive",
                             "neither endomorphism group acts transitively"))
            continue
        sides = []
        if h_transitive:
            sides.append(("target", sd.H0, sd.H1, cat.groups[y]))
        if g_transitive:
            sides.append(("source", sd.G0, sd.G1, cat.groups[x]))
        for side, k0, k1, big in sides:
            sub_table = chartab.character_table(as_group(k1), prime)
            in_k0 = set(k0.member_positions)
            on_k0 = sub_table.values[:, [i in in_k0 for i in
                                         k1.member_positions]].sum(1) % p
            mults = chartab.restriction_multiplicity(
                chartab.character_table(big, prime), k1,
                sub_table.values).T
            for s in range(len(sub_table)):
                if on_k0[s] == 0:
                    continue
                repeated = any(m >= 2 for m in mults[s])
                distinct = sum(1 for m in mults[s] if m)
                if repeated or distinct > 3:
                    why = ("not multiplicity free" if repeated
                           else f"{distinct} distinct summands")
                    findings.append(
                        ((x, y), "induction-decomposition",
                         f"{side} side, summand X{s} of the double-coset "
                         f"induction: {why}"))
                    break
    return findings


def cartan_matrix(q) -> list[list[int]]:
    """c[i][j] = dim e_W kC e_V for the quiver's vertices i = x:V and
    j = y:W, from the category's actions and the quiver's character
    tables alone.

    On one object it is δ_VW, as kG_x is split semisimple.  For x ≠ y,
    k hom(x, y) is a permutation module of G_y × G_x, and e_W k[O] e_V
    is the multiplicity of W ⊗ V* in it on each two-sided orbit O:
    (|G_x||G_y|)⁻¹ Σ_{h,g} fix_O(h, g)·χ_W(h⁻¹)·χ_V(g), with
    fix_O(h, g) = #{α ∈ O : h∘α = α∘g}.  That term is at most
    dim V·dim W < p, so its residue is exact, and the orbits' terms are
    added as integers.
    """
    cat, p = q.cat, q.prime.p
    n = len(q.vertices)
    c = [[int(i == j) for j in range(n)] for i in range(n)]
    for (x, y), hs in cat.homs.items():
        gx, gy = cat.groups[x], cat.groups[y]
        chi_v = q.tables[x].values
        chi_w_inv = q.tables[y].values[:, gy.inverse]
        scale = pow(len(gx) * len(gy), -1, p)
        left, right = np.array(hs.left_elem), np.array(hs.right_elem)
        for orbit in homset_orbits(hs, range(hs.size)):
            o = list(orbit)
            fix = (left[:, None, o] == right[None, :, o]).sum(axis=2)
            term = (chi_w_inv @ fix % p) @ chi_v.T % p * scale % p
            for w in range(len(chi_w_inv)):
                for v in range(len(chi_v)):
                    c[q.vertex_index[(x, v)]][q.vertex_index[(y, w)]] += \
                        int(term[w, v])
    return c


def path_counts(q) -> list[list[int]]:
    """P = Σ_k N^k over the integers: P[i][j] counts the paths from
    vertex i to vertex j, N being the arrow-multiplicity matrix.  The
    quiver is acyclic, so N is nilpotent and the sum ends."""
    n = len(q.vertices)
    arrows = [[0] * n for _ in range(n)]
    for a in q.arrows:
        arrows[a.source][a.target] += a.mult
    total = [[int(i == j) for j in range(n)] for i in range(n)]
    power = total
    while any(map(any, power)):
        power = [[sum(power[i][k] * arrows[k][j] for k in range(n))
                  for j in range(n)] for i in range(n)]
        total = [[t + s for t, s in zip(rt, rs)]
                 for rt, rs in zip(total, power)]
    return total


def morphisms(cat: EICategory) -> list[MorphId]:
    """Every morphism in the oracle's basis order: each object's group
    elements, then each hom-set by source and target in object order."""
    out = []
    for x in cat.objects:
        out.extend(MorphId(x, x, i) for i in range(len(cat.groups[x])))
    for x in cat.objects:
        for y in cat.objects:
            if (x, y) in cat.homs:
                out.extend(MorphId(x, y, i)
                           for i in range(cat.homs[(x, y)].size))
    return out


def is_endo(m: MorphId) -> bool:
    return m.source == m.target


def identity(cat: EICategory, x: str) -> MorphId:
    return MorphId(x, x, identity_pos(cat.groups[x]))


def compose(cat: EICategory, f: MorphId, g: MorphId) -> MorphId:
    """The composite f∘g (g first); raises on a non-composable pair."""
    if f.source != g.target:
        raise ValidationError("non-composable",
                              f"cannot compose {f} after {g}")
    if is_endo(f) and is_endo(g):
        return MorphId(f.source, f.target,
                       mul(cat.groups[f.source], f.index, g.index))
    if is_endo(f):
        hs = cat.homs[(g.source, g.target)]
        return MorphId(g.source, g.target, hs.left_elem[f.index][g.index])
    if is_endo(g):
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
    basis = tuple(morphisms(cat))
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
    """The radical filtration from the table as sets of basis
    elements: layers[k - 1] is rad^k, for every k up to the first zero
    power."""
    noniso = tuple(i for i, m in enumerate(basis) if not is_endo(m))
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
    return layers


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
            row_v = np.asarray(tG.rows[v]).tolist()
            for w in range(len(tH)):
                row_w = np.asarray(tH.rows[w]).tolist()
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


def validate_category(cat: EICategory) -> None:
    """All axioms but skeletality, one table entry at a time."""
    _check_connected(cat.objects, cat.homs)

    # every composable pair of homs must have a target hom-set and a table
    for (x, y) in cat.homs:
        for (y2, z) in cat.homs:
            if y2 != y or z == x:
                continue
            if (x, z) not in cat.homs:
                raise ValidationError("composition-not-closed",
                                      f"composable homs {x}->{y}->{z} but "
                                      f"hom {x}->{z} is empty")
            table = cat.comp.get((x, y, z))
            if table is None:
                raise ValidationError("missing-composition",
                                      f"no table for {x}->{y}->{z}")
            outer, inner = cat.homs[(y, z)], cat.homs[(x, y)]
            tgt = cat.homs[(x, z)]
            if len(table) != outer.size or \
                    any(len(row) != inner.size for row in table):
                raise SchemaError(f"table {x}->{y}->{z} has wrong shape")
            for row in table:
                for v in row:
                    if not 0 <= v < tgt.size:
                        raise SchemaError(
                            f"table {x}->{y}->{z} entry out of range")

    # tables must commute with the generator actions
    for (x, y, z), table in cat.comp.items():
        inner, outer, tgt = cat.homs[(x, y)], cat.homs[(y, z)], cat.homs[(x, z)]
        for b in range(outer.size):
            for a in range(inner.size):
                c = table[b][a]
                for act, tact in zip(outer.left_gen, tgt.left_gen):
                    if table[act[b]][a] != tact[c]:
                        raise ValidationError(
                            "associativity",
                            f"(h∘β)∘α ≠ h∘(β∘α) for hom chain {x}->{y}->{z}")
                for act, tact in zip(inner.right_gen, tgt.right_gen):
                    if table[b][act[a]] != tact[c]:
                        raise ValidationError(
                            "associativity",
                            f"(β∘α)∘g ≠ β∘(α∘g) for hom chain {x}->{y}->{z}")
                for ract, lact in zip(outer.right_gen, inner.left_gen):
                    if table[ract[b]][a] != table[b][lact[a]]:
                        raise ValidationError(
                            "associativity",
                            f"(β∘h)∘α ≠ β∘(h∘α) for hom chain {x}->{y}->{z}")

    # associativity over triples of non-endomorphisms
    for (x, y) in cat.homs:
        for (yy, z) in cat.homs:
            if yy != y:
                continue
            for (zz, w) in cat.homs:
                if zz != z:
                    continue
                t_xy_z = cat.comp[(x, y, z)]
                t_yz_w = cat.comp[(y, z, w)]
                t_xz_w = cat.comp[(x, z, w)]
                t_xy_w = cat.comp[(x, y, w)]
                for c in range(cat.homs[(z, w)].size):
                    for b in range(cat.homs[(y, z)].size):
                        cb = t_yz_w[c][b]
                        for a in range(cat.homs[(x, y)].size):
                            if t_xz_w[c][t_xy_z[b][a]] != t_xy_w[cb][a]:
                                raise ValidationError(
                                    "associativity",
                                    f"γ∘(β∘α) ≠ (γ∘β)∘α on chain "
                                    f"{x}->{y}->{z}->{w} at ({c},{b},{a})")
