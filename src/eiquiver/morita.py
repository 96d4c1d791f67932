"""The equivalence between category representations and quiver
representations for free categories with invertible group orders.

A category representation assigns a module to each object and a matrix
to each representative unfactorizable morphism; everything else is
derived by functoriality.  The functor F sends it to a representation of
the ordinary quiver: vertex (x, V) gets k^a where a is the multiplicity
of V in R(x), and each arrow gets the scalar block read off from the
induced map between aligned isotypic copies.  The inverse assembles
block-diagonal canonical models and solves for the morphism matrices.

All canonical bases are deterministic: irreducible models come from a
fixed reduction of the regular module, and all hom-space bases are
echelon bases of explicit intertwiner systems.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import linalg
from .chartab import CharTable
from .eicat import EICategory, MorphId, orbit_representatives
from .errors import InvariantError, SchemaError, ValidationError
from .permgrp import PermGroup, word_products
from .quiveralg import BuiltQuiver


# ---------------------------------------------------------------------------
# group representations from generator matrices

def element_matrices(group: PermGroup, gen_mats, dim: int, p: int):
    """Matrix of every group element, by word products over generators."""
    return word_products(group, gen_mats, linalg.eye(dim),
                         lambda acc, m: linalg.matmul(acc, m, p))


def check_group_rep(group: PermGroup, gen_mats, dim: int, p: int):
    """Verify the generator matrices define a representation; return the
    per-element matrices."""
    mats = element_matrices(group, gen_mats, dim, p)
    for k, s in enumerate(group.generators):
        for e, prod in enumerate(group.right_products(s).tolist()):
            if not np.array_equal(mats[prod],
                                  linalg.matmul(mats[e], gen_mats[k], p)):
                raise ValidationError(
                    "not-a-representation",
                    "generator matrices violate the group relations")
    return mats


def intertwiner_basis(As, Bs, p: int, a: int, b: int):
    """Echelon basis of {T (b x a) : T A_i = B_i T for all i}."""
    if not As:
        system = linalg.zeros(0, a * b)
    else:
        rows = [(np.kron(A.T, linalg.eye(b)) -
                 np.kron(linalg.eye(a), B)) % p for A, B in zip(As, Bs)]
        system = np.vstack(rows) % p
    ns = linalg.nullspace(system, p)
    return [ns[k].reshape((b, a), order="F") % p for k in range(ns.shape[0])]


# ---------------------------------------------------------------------------
# canonical irreducible models

_MODEL_CACHE: dict = {}


def irreducible_model(group: PermGroup, table: CharTable, i: int):
    """Deterministic matrices (one per generator) of the i-th irreducible.

    Found inside the regular module: project onto the isotypic component,
    then cut down to a single copy with eigenspaces of commutant elements.
    The result is certified by comparing all traces with the character.
    """
    p = table.p
    key = (p, group.key, i)
    if key in _MODEL_CACHE:
        return _MODEL_CACHE[key]
    n = len(group)
    chi = table.irreducible(i)
    d = table.dims[i]
    # The regular module from the Cayley table, as index arrays.  L_g has
    # a 1 at (g*j, j), so L_s w takes row a from row s^-1 * a of w, and
    # the isotypic projection d/|G| sum_g chi(g^-1) L_g has (a, j) entry
    # d/|G| chi(j * a^-1).
    moves = [group.row(group.inv(group.index_of[s]))
             for s in group.generators]
    cayley = np.array([group.row(g) for g in range(n)])
    proj = np.asarray(chi.values, dtype=np.int64)[
        cayley[:, group.inverse]].T * d % p * linalg.inv_scalar(n, p) % p
    w = linalg.row_space(proj.T, p).T % p  # columns span the isotypic part
    rng = random.Random(0xE1)
    while w.shape[1] > d:
        m = w.shape[1]
        acts = []
        for mv in moves:
            a = linalg.solve(w, w[mv], p)
            if a is None:
                raise InvariantError("isotypic component is not invariant")
            acts.append(a)
        comm = intertwiner_basis(acts, acts, p, m, m)
        candidates = list(comm)
        for _ in range(50):
            c = linalg.zeros(m, m)
            for b in comm:
                c = (c + rng.randrange(p) * b) % p
            candidates.append(c)
        # the least eigenvalue whose eigenspace is a proper nonzero
        # subspace: the least such root of the candidate's char poly
        cut = None
        for cand in candidates:
            roots = linalg.poly_roots(linalg.char_poly(cand, p), p)
            for lam in sorted(set(roots)):
                ker = linalg.nullspace((cand - lam * linalg.eye(m)) % p, p)
                if 0 < ker.shape[0] < m:
                    cut = ker
                    break
            if cut is not None:
                break
        if cut is None:
            raise InvariantError("could not split the isotypic component")
        w = linalg.matmul(w, cut.T % p, p)
        w = linalg.row_space(w.T, p).T % p
    gen_mats = []
    for mv in moves:
        a = linalg.solve(w, w[mv], p)
        if a is None:
            raise InvariantError("irreducible copy is not invariant")
        gen_mats.append(a % p)
    elems = element_matrices(group, gen_mats, d, p)
    for g in range(n):
        if int(np.trace(elems[g])) % p != chi.values[g]:
            raise InvariantError("model traces disagree with the character")
    _MODEL_CACHE[key] = (tuple(gen_mats), tuple(elems))
    return _MODEL_CACHE[key]


# ---------------------------------------------------------------------------
# category representations

@dataclass(frozen=True)
class CatRep:
    cat: EICategory
    p: int
    dims: dict[str, int]
    gen_mats: dict[str, tuple]         # per object, per group generator
    elem_mats: dict[str, tuple]        # per object, per group element
    mor_mats: dict[tuple[str, str], tuple]  # per hom element
    alpha_mats: tuple                  # per orbit representative

    def matrix(self, m: MorphId):
        if m.is_endo:
            return self.elem_mats[m.source][m.index]
        return self.mor_mats[(m.source, m.target)][m.index]


def build_catrep(cat: EICategory, p: int, gen_mats: dict,
                 alpha_mats, dims_hint: dict | None = None) -> CatRep:
    """Assemble and validate a full representation from generator and
    representative matrices.  Objects whose group has no generators carry
    no matrices, so their dimension must come from dims_hint."""
    dims = {}
    elem_mats = {}
    for x in cat.objects:
        mats = gen_mats.get(x, ())
        g = cat.groups[x]
        if len(mats) != len(g.generators):
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
            dim = int(dims_hint[x])
        else:
            raise SchemaError(f"object {x}: dimension cannot be inferred "
                              "without generator matrices")
        dims[x] = dim
        elem_mats[x] = tuple(check_group_rep(g, mats, dim, p))

    reps = orbit_representatives(cat)
    alpha_mats = tuple(np.asarray(a, dtype=np.int64) % p for a in alpha_mats)
    if len(alpha_mats) != len(reps):
        raise SchemaError("need one matrix per representative unfactorizable")
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

    for (rep, orb), amat in zip(reps, alpha_mats):
        x, y = rep.source, rep.target
        if amat.shape != (dims[y], dims[x]):
            raise SchemaError(f"representative {x}->{y}: matrix must be "
                              f"{dims[y]}x{dims[x]}")
        put((x, y), rep.index, amat)

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

    mor_mats = {key: tuple(mats) for key, mats in assigned.items()}
    return CatRep(cat, p, dims,
                  {x: tuple(gen_mats.get(x, ())) for x in cat.objects},
                  elem_mats, mor_mats, alpha_mats)


def catrep_document(r: CatRep) -> dict:
    objs = [{"id": x, "dim": r.dims[x],
             "generator_matrices": [m.tolist() for m in r.gen_mats[x]]}
            for x in r.cat.objects]
    alphas = [{"rep_index": i, "matrix": a.tolist()}
              for i, a in enumerate(r.alpha_mats)]
    return {"p": r.p, "objects": objs, "alpha_matrices": alphas}


def load_catrep(cat: EICategory, doc: dict) -> CatRep:
    try:
        p = int(doc["p"])
        gen_mats = {}
        dims_hint = {}
        for ospec in doc["objects"]:
            oid = str(ospec["id"])
            dims_hint[oid] = int(ospec["dim"])
            gen_mats[oid] = tuple(
                np.asarray(m, dtype=np.int64) % p
                for m in ospec["generator_matrices"])
        alphas = sorted(doc["alpha_matrices"], key=lambda a: int(a["rep_index"]))
        amats = [np.asarray(a["matrix"], dtype=np.int64) % p for a in alphas]
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad representation document: {e}") from e
    if set(gen_mats) != set(cat.objects):
        raise SchemaError("representation objects do not match the category")
    if [int(a["rep_index"]) for a in alphas] != list(range(len(alphas))):
        raise SchemaError("alpha_matrices must cover rep_index 0..r-1")
    return build_catrep(cat, p, gen_mats, amats, dims_hint)


# ---------------------------------------------------------------------------
# quiver representations

@dataclass(frozen=True)
class ExpandedArrow:
    """One individual arrow of the quiver: a unit (orbit representative,
    quotient irreducible) together with copy indices s < e and l < f."""
    source: int
    target: int
    rep_index: int
    u: int
    s: int
    l: int


def expanded_arrows(built: BuiltQuiver) -> tuple[ExpandedArrow, ...]:
    out = []
    for arr in built.arrows:
        for un in arr.units:
            for s in range(un.e):
                for l in range(un.f):
                    out.append(ExpandedArrow(arr.source, arr.target,
                                             un.rep_index, un.u, s, l))
    return tuple(out)


@dataclass(frozen=True)
class QuiverRep:
    built: BuiltQuiver
    p: int
    dims: tuple[int, ...]          # per vertex
    arrow_mats: tuple              # per expanded arrow, target-dim x source-dim


def quiverrep_document(r: QuiverRep) -> dict:
    verts = [{"object": v.object, "irreducible": v.irr, "dim": int(d)}
             for v, d in zip(r.built.vertices, r.dims)]
    arrows = []
    for ea, m in zip(expanded_arrows(r.built), r.arrow_mats):
        arrows.append({"from": ea.source, "to": ea.target,
                       "rep_index": ea.rep_index, "u": ea.u,
                       "s": ea.s, "l": ea.l, "matrix": m.tolist()})
    return {"p": r.p, "vertices": verts, "arrows": arrows}


def load_quiverrep(built: BuiltQuiver, doc: dict) -> QuiverRep:
    eas = expanded_arrows(built)
    try:
        p = int(doc["p"])
        dims = tuple(int(v["dim"]) for v in doc["vertices"])
        mats = [np.asarray(a["matrix"], dtype=np.int64) % p
                for a in doc["arrows"]]
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad quiver representation document: {e}") from e
    if len(dims) != len(built.vertices) or len(mats) != len(eas):
        raise SchemaError("representation does not match the quiver")
    for ea, m in zip(eas, mats):
        if m.shape != (dims[ea.target], dims[ea.source]):
            raise SchemaError("arrow matrix has the wrong shape")
    return QuiverRep(built, p, dims, tuple(mats))


# ---------------------------------------------------------------------------
# the functor and its inverse

class MoritaContext:
    """Caches the intertwiner bases for one quiver; canonical models come
    from the module-level cache of irreducible_model."""

    def __init__(self, built: BuiltQuiver):
        self.built = built
        self.cat = built.cat
        self.p = built.prime.p
        self.arrows = expanded_arrows(built)
        self._kappa = {}
        self._mu = {}

    def model(self, x: str, v: int):
        """(generator matrices, element matrices) of irreducible v at x."""
        return irreducible_model(self.cat.groups[x], self.built.tables[x], v)

    def quotient_model(self, r: int, u: int):
        table = self.built.orbits[r].quotient_table
        return irreducible_model(table.group, table, u)

    def kappa(self, r: int, u: int, v: int):
        """Basis of Hom_{G1}(infl U, V restricted), V at the source object."""
        key = (r, u, v)
        if key not in self._kappa:
            od = self.built.orbits[r]
            x = od.rep.source
            du = od.quotient_table.dims[u]
            dv = self.built.tables[x].dims[v]
            _, uelems = self.quotient_model(r, u)
            _, velems = self.model(x, v)
            As = [uelems[od.stab.quotG.projection[g]]
                  for g in od.stab.G1.member_positions]
            Bs = [velems[g] for g in od.stab.G1.member_positions]
            self._kappa[key] = intertwiner_basis(As, Bs, self.p, du, dv)
        return self._kappa[key]

    def mu(self, r: int, u: int, w: int):
        """Basis of Hom_{H1}(transported U, W restricted), W at the target."""
        key = (r, u, w)
        if key not in self._mu:
            od = self.built.orbits[r]
            y = od.rep.target
            du = od.quotient_table.dims[u]
            dw = self.built.tables[y].dims[w]
            _, uelems = self.quotient_model(r, u)
            _, welems = self.model(y, w)
            back = od.stab.phi.inverse()
            As = [uelems[back(od.stab.quotH.projection[h])]
                  for h in od.stab.H1.member_positions]
            Bs = [welems[h] for h in od.stab.H1.member_positions]
            self._mu[key] = intertwiner_basis(As, Bs, self.p, du, dw)
        return self._mu[key]

    def theta(self, rep: CatRep, x: str, v: int):
        """Echelon basis of Hom_G(V, R(x)): the copies of V inside R(x)."""
        gmats, _ = self.model(x, v)
        dv = self.built.tables[x].dims[v]
        As = list(gmats)
        Bs = [rep.gen_mats[x][k] for k in range(len(As))]
        return intertwiner_basis(As, Bs, self.p, dv, rep.dims[x])

    def target_units(self, rep_mats_theta, r: int, u: int, y: str):
        """All composite embeddings xi_j . mu_l of U into R(y), with their
        (vertex irreducible, j, l) labels."""
        units = []
        for w in range(len(self.built.tables[y])):
            mus = self.mu(r, u, w)
            if not mus:
                continue
            xis = rep_mats_theta(y, w)
            for j, xi in enumerate(xis):
                for l, m in enumerate(mus):
                    units.append(((w, j, l), linalg.matmul(xi, m, self.p)))
        return units


def apply_functor(ctx: MoritaContext, rep: CatRep) -> QuiverRep:
    """F: category representation -> quiver representation."""
    if rep.p != ctx.p:
        raise ValidationError("prime-mismatch",
                              "representation and quiver use different primes")
    p = ctx.p
    thetas = {}
    for idx, vert in enumerate(ctx.built.vertices):
        thetas[(vert.object, vert.irr)] = ctx.theta(rep, vert.object, vert.irr)
    dims = tuple(len(thetas[(v.object, v.irr)]) for v in ctx.built.vertices)

    unit_cache = {}

    def theta_of(y, w):
        return thetas[(y, w)]

    mats = []
    for ea in ctx.arrows:
        sv = ctx.built.vertices[ea.source]
        tv = ctx.built.vertices[ea.target]
        x, v = sv.object, sv.irr
        y, w = tv.object, tv.irr
        a = dims[ea.source]
        b = dims[ea.target]
        alpha = rep.alpha_mats[ea.rep_index]
        kappas = ctx.kappa(ea.rep_index, ea.u, v)
        ukey = (ea.rep_index, ea.u, y)
        if ukey not in unit_cache:
            units = ctx.target_units(theta_of, ea.rep_index, ea.u, y)
            if units:
                cols = np.stack([m.flatten(order="F") for _, m in units],
                                axis=1) % p
                if linalg.rank(cols, p) != cols.shape[1]:
                    raise InvariantError("target embeddings are dependent")
            else:
                cols = None
            unit_cache[ukey] = (units, cols)
        units, cols = unit_cache[ukey]
        mat = linalg.zeros(b, a)
        for i, th in enumerate(thetas[(x, v)]):
            psi = linalg.matmul(linalg.matmul(alpha, th, p),
                                kappas[ea.s], p)
            if cols is None:
                if np.any(psi):
                    raise InvariantError("image of an isotypic copy leaves "
                                         "the span of the target embeddings")
                continue
            sol = linalg.solve(cols, psi.flatten(order="F"), p)
            if sol is None:
                raise InvariantError("image of an isotypic copy leaves the "
                                     "span of the target embeddings")
            for k, ((w2, j, l2), _) in enumerate(units):
                if w2 == w and l2 == ea.l:
                    mat[j, i] = sol[k, 0]
        mats.append(mat % p)
    return QuiverRep(ctx.built, p, dims, tuple(mats))


def inverse_functor(ctx: MoritaContext, qrep: QuiverRep) -> CatRep:
    """Assemble the canonical category representation with F(R) = qrep."""
    p = ctx.p
    built = ctx.built
    dims_by_vertex = qrep.dims
    # canonical module per object: blocks (irreducible v, copy t)
    obj_dims = {}
    offsets = {}   # (x, v, copy) -> column offset in R(x)
    gen_mats = {}
    for x in built.cat.objects:
        total = 0
        blocks = []
        for v in range(len(built.tables[x])):
            vi = built.vertex_index[(x, v)]
            dv = built.tables[x].dims[v]
            for t in range(dims_by_vertex[vi]):
                offsets[(x, v, t)] = total
                total += dv
                blocks.append((v, dv))
        obj_dims[x] = total
        mats = [linalg.zeros(total, total)
                for _ in built.cat.groups[x].generators]
        pos = 0
        for v, dv in blocks:
            gm, _ = ctx.model(x, v)
            for m, g in zip(mats, gm):
                m[pos:pos + dv, pos:pos + dv] = g
            pos += dv
        gen_mats[x] = tuple(mats)

    def embedding(x, v, t):
        dv = built.tables[x].dims[v]
        e = linalg.zeros(obj_dims[x], dv)
        off = offsets[(x, v, t)]
        e[off:off + dv] = linalg.eye(dv)
        return e

    elem_mats = {x: element_matrices(built.cat.groups[x], gen_mats[x],
                                     obj_dims[x], p)
                 for x in built.cat.objects}

    # arrow matrices indexed for assembly
    arrow_mat = {}
    for ea, m in zip(ctx.arrows, qrep.arrow_mats):
        sv, tv = built.vertices[ea.source], built.vertices[ea.target]
        arrow_mat[(ea.rep_index, ea.u, sv.irr, tv.irr, ea.s, ea.l)] = m

    alpha_mats = []
    for r, od in enumerate(built.orbits):
        x, y = od.rep.source, od.rep.target
        qtable = od.quotient_table
        src_cols = []
        img_cols = []
        for u in range(len(qtable)):
            du = qtable.dims[u]
            # source embeddings (v, copy i, s) of U into R(x)
            src_units = []
            for v in range(len(built.tables[x])):
                kappas = ctx.kappa(r, u, v)
                if not kappas:
                    continue
                nv = dims_by_vertex[built.vertex_index[(x, v)]]
                for i in range(nv):
                    emb = embedding(x, v, i)
                    for s, kap in enumerate(kappas):
                        src_units.append(((v, i, s),
                                          linalg.matmul(emb, kap, p)))
            tgt_units = []
            for w in range(len(built.tables[y])):
                mus = ctx.mu(r, u, w)
                if not mus:
                    continue
                nw = dims_by_vertex[built.vertex_index[(y, w)]]
                for j in range(nw):
                    emb = embedding(y, w, j)
                    for l, m in enumerate(mus):
                        tgt_units.append(((w, j, l),
                                          linalg.matmul(emb, m, p)))
            for (v, i, s), esrc in src_units:
                img = linalg.zeros(obj_dims[y], du)
                for (w, j, l), etgt in tgt_units:
                    bm = arrow_mat.get((r, u, v, w, s, l))
                    if bm is not None and bm[j, i] % p:
                        img = (img + int(bm[j, i]) * etgt) % p
                src_cols.append(esrc)
                img_cols.append(img)
        # the representative matrix kills everything outside the fixed
        # points of G0, so complete the column system with that complement
        g0 = od.stab.G0
        proj = linalg.zeros(obj_dims[x], obj_dims[x])
        for g in g0.member_positions:
            proj = (proj + elem_mats[x][g]) % p
        proj = proj * linalg.inv_scalar(len(g0), p) % p
        comp = linalg.row_space((linalg.eye(obj_dims[x]) - proj).T % p, p).T
        cmat = np.hstack([c for c in src_cols] + [comp]) % p \
            if src_cols or comp.size else linalg.zeros(obj_dims[x], 0)
        dmat = np.hstack([c for c in img_cols] +
                         [linalg.zeros(obj_dims[y], comp.shape[1])]) % p \
            if src_cols or comp.size else linalg.zeros(obj_dims[y], 0)
        if cmat.shape != (obj_dims[x], obj_dims[x]):
            raise InvariantError("isotypic embeddings do not fill the module")
        alpha = linalg.matmul(dmat, linalg.inv(cmat, p), p)
        alpha_mats.append(alpha)

    return build_catrep(built.cat, p, gen_mats, alpha_mats, obj_dims)


# ---------------------------------------------------------------------------
# hom spaces

def hom_dim_cat(r1: CatRep, r2: CatRep) -> int:
    """dim of the space of natural transformations R1 -> R2."""
    cat = r1.cat
    p = r1.p
    order = list(cat.objects)
    off = {}
    total = 0
    for x in order:
        off[x] = total
        total += r1.dims[x] * r2.dims[x]
    rows = []
    for x in order:
        d1, d2 = r1.dims[x], r2.dims[x]
        for k in range(len(cat.groups[x].generators)):
            a = r1.gen_mats[x][k]
            b = r2.gen_mats[x][k]
            row = linalg.zeros(d1 * d2, total)
            row[:, off[x]:off[x] + d1 * d2] = \
                (np.kron(a.T, linalg.eye(d2)) -
                 np.kron(linalg.eye(d1), b)) % p
            rows.append(row)
    for i, (rep, _) in enumerate(orbit_representatives(cat)):
        x, y = rep.source, rep.target
        a1 = r1.alpha_mats[i]
        a2 = r2.alpha_mats[i]
        d1x, d2x = r1.dims[x], r2.dims[x]
        d1y, d2y = r1.dims[y], r2.dims[y]
        row = linalg.zeros(d1x * d2y, total)
        row[:, off[y]:off[y] + d1y * d2y] = np.kron(a1.T, linalg.eye(d2y)) % p
        row[:, off[x]:off[x] + d1x * d2x] = \
            (row[:, off[x]:off[x] + d1x * d2x] -
             np.kron(linalg.eye(d1x), a2)) % p
        rows.append(row)
    if not rows:
        return total
    system = np.vstack(rows) % p
    return int(linalg.nullspace(system, p).shape[0])


def hom_dim_quiver(q1: QuiverRep, q2: QuiverRep) -> int:
    """dim Hom between two quiver representations."""
    built = q1.built
    p = q1.p
    off = []
    total = 0
    for i in range(len(built.vertices)):
        off.append(total)
        total += q1.dims[i] * q2.dims[i]
    rows = []
    for ea, m1, m2 in zip(expanded_arrows(built), q1.arrow_mats,
                          q2.arrow_mats):
        d1s, d2s = q1.dims[ea.source], q2.dims[ea.source]
        d1t, d2t = q1.dims[ea.target], q2.dims[ea.target]
        row = linalg.zeros(d1s * d2t, total)
        row[:, off[ea.target]:off[ea.target] + q1.dims[ea.target] * d2t] = \
            np.kron(m1.T, linalg.eye(d2t)) % p
        row[:, off[ea.source]:off[ea.source] + d1s * d2s] = \
            (row[:, off[ea.source]:off[ea.source] + d1s * d2s] -
             np.kron(linalg.eye(d1s), m2)) % p
        rows.append(row)
    if not rows:
        return total
    system = np.vstack(rows) % p
    return int(linalg.nullspace(system, p).shape[0])
