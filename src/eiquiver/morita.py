"""The equivalence between category representations and quiver
representations for free categories with invertible group orders.

A category representation assigns a module to each object and a matrix
to each representative unfactorizable morphism; everything else is
derived by functoriality, in one pass that also checks it on group
generators and composable pairs, which suffices (see build_catrep).
The functor F sends it to a representation of the ordinary quiver:
vertex (x, V) gets k^a where a is the multiplicity of V in R(x), and
each arrow gets the scalar block read off from the induced map between
aligned isotypic copies.  The inverse assembles block-diagonal
canonical models and solves for the morphism matrices.

All canonical bases are deterministic: irreducible models come from a
fixed reduction of the regular module (its commutants spanned by right
translations, see commutant), and all hom-space bases are echelon bases
of explicit intertwiner systems.  Models are kept for the life of the
process in chartab._MODEL_CACHE, beside the character tables, and
imported here under the same name.  Every such system, and both
Hom-dimension checks, is one linalg.sylvester_system: matrices T_v at
vertices with T_t M1 = M2 T_s along edges.  The two stabilizer sides
are symmetric: kappa (source, G1 acting on U through G1/G0) and mu
(target, H1 acting through H1/H0, whose cosets carry G1/G0's numbers)
are one stabilizer_hom, and the isotypic embeddings of U on either side
come from one units.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import linalg
from .chartab import _MODEL_CACHE, PRIME_SEARCH_BOUND, CharTable
from .eicat import EICategory, orbit_representatives
from .errors import InvariantError, SchemaError, ValidationError
from .permgrp import PermGroup, is_int, respects_relations, word_products
from .quiveralg import BuiltQuiver


# ---------------------------------------------------------------------------
# group representations from generator matrices

def element_matrices(group: PermGroup, gen_mats, dim: int, p: int):
    """Matrix of every group element, by word products over generators."""
    return word_products(group, gen_mats, linalg.eye(dim),
                         lambda acc, m: linalg.matmul(acc, m, p))


# The most int64 entries check_group_rep may store: one dim x dim matrix
# per group element, which the document's generator matrices (two for
# S6) do not bound.
MAX_ELEMENT_ENTRIES = 1 << 22


def check_group_rep(group: PermGroup, gen_mats, dim: int, p: int):
    """Verify the generator matrices define a representation; return the
    per-element matrices, after checking that they fit in
    MAX_ELEMENT_ENTRIES."""
    if len(group) * dim * dim > MAX_ELEMENT_ENTRIES:
        raise ValidationError(
            "too-large", f"a group of order {len(group)} in dimension {dim} "
            f"needs {len(group) * dim * dim} matrix entries, more than "
            f"{MAX_ELEMENT_ENTRIES}")
    mats = element_matrices(group, gen_mats, dim, p)
    if not respects_relations(group, mats, gen_mats,
                              lambda acc, m: linalg.matmul(acc, m, p),
                              np.array_equal):
        raise ValidationError("not-a-representation",
                              "generator matrices violate the group relations")
    return mats


def intertwiner_basis(As, Bs, p: int, a: int, b: int):
    """Echelon basis of {T (b x a) : T A_i = B_i T for all i}: one vertex
    with a loop edge per pair."""
    system = linalg.sylvester_system(
        [a], [b], [(0, 0, A, B) for A, B in zip(As, Bs)], p)
    ns = linalg.nullspace(system, p)
    return [ns[k].reshape((b, a), order="F") % p for k in range(ns.shape[0])]


# ---------------------------------------------------------------------------
# canonical irreducible models

def canonical_span(mats: np.ndarray, p: int) -> np.ndarray:
    """The span of mats (k x m x m) in intertwiner_basis's basis: as a
    nullspace vector ends at its free column, that is the reduced echelon
    basis of the column-major vecs in reversed column order, reversed."""
    k, m, _ = mats.shape
    basis = linalg.row_space(
        mats.transpose(0, 2, 1).reshape(k, -1)[:, ::-1], p)
    return basis[::-1, ::-1].reshape(-1, m, m).transpose(0, 2, 1)


def commutant(w, piv, cayley, inverse, p: int, base=None) -> np.ndarray:
    """End_G(W), W spanned by w's columns in the regular module (w[piv]
    = I), in intertwiner_basis's basis but from no Sylvester system.
    With no base, W is an isotypic component, a two-sided ideal, so the
    right translations span End_G(W) (End_{FG}(FG) = (FG)^op): R_h on W
    is the piv rows of w[cayley[:, h^-1]].  They are taken in a fixed
    shuffled order (early elements are short words, often dependent).
    With base = (w0, piv0, comm0), W lies in w0 and End_G(W) = {pi B iota
    : B in comm0}: iota = w[piv0] embeds W, and pi, the average over g of
    A_g sigma A0_g^-1 (actions on W and w0, sigma = w0[piv]), retracts."""
    m, n = w.shape[1], len(inverse)
    if base is None:
        comm, h = np.zeros((0, m, m), np.int64), 0
        order = inverse[random.Random(0).sample(range(n), n)]
        while len(comm) < m:
            if h == n:
                raise InvariantError("right translations miss the commutant")
            hs = order[h:h + m - len(comm) + m // 8]
            h += len(hs)
            comm = canonical_span(np.concatenate(
                (comm, w[cayley[np.ix_(piv, hs)]].transpose(1, 0, 2))), p)
        return comm
    w0, piv0, comm0 = base
    pi = sum(w[cayley[inverse[g], piv]] @ w0[cayley[g, piv]] % p
             for g in range(n)) * linalg.inv_scalar(n, p) % p
    return canonical_span((pi @ comm0) % p @ w[piv0] % p, p)


def irreducible_model(group: PermGroup, table: CharTable, i: int):
    """Deterministic matrices (one per generator) of the i-th irreducible.

    Found inside the regular module: project onto the isotypic component,
    then cut down to a single copy with eigenspaces of commutant elements
    (right translations and retractions, see commutant).  The result is
    certified by comparing all traces with the character, and kept in
    chartab._MODEL_CACHE on (p, group.key, i).
    """
    p = table.p
    key = (p, group.key, i)
    if key in _MODEL_CACHE:
        return _MODEL_CACHE[key]
    n = len(group)
    chi = table.values[i]
    d = table.dims[i]
    # The regular module from the Cayley table, as index arrays.  L_g has
    # a 1 at (g*j, j), so L_s w takes row a from row s^-1 * a of w, and
    # the isotypic projection d/|G| sum_g chi(g^-1) L_g has (a, j) entry
    # d/|G| chi(j * a^-1).
    moves = [group.row(group.inv(group.index_of[s]))
             for s in group.generators]
    cayley = np.array([group.row(g) for g in range(n)])
    proj = chi[cayley[:, group.inverse]].T * d % p * \
        linalg.inv_scalar(n, p) % p
    r, piv = linalg.rref(proj.T, p)
    w = r[:len(piv)].T   # columns span the isotypic part; w[piv] = I
    base = None
    rng = random.Random(0xE1)
    while w.shape[1] > d:
        m = w.shape[1]
        comm = commutant(w, piv, cayley, group.inverse, p, base)
        base = base or (w, piv, comm)
        # drawn even if unused, so that later cuts see the same draws
        coefs = [[rng.randrange(p) for _ in comm] for _ in range(50)]
        candidates = chain(comm, (np.tensordot(c, comm, 1) % p
                                  for c in coefs))
        # the eigenspace of the candidate's least eigenvalue in F_p: a
        # proper subspace unless the candidate is scalar, whose one
        # eigenspace is everything
        for cand in candidates:
            cut = next(linalg.eigenspaces(cand, p), None)
            if cut is not None and cut.shape[0] < m:
                break
        else:
            raise InvariantError("could not split the isotypic component")
        r, piv = linalg.rref(linalg.matmul(w, cut.T % p, p).T, p)
        w = r[:len(piv)].T
    gen_mats = []
    for mv in moves:
        a = linalg.solve(w, w[mv], p)
        if a is None:
            raise InvariantError("irreducible copy is not invariant")
        gen_mats.append(a % p)
    elems = element_matrices(group, gen_mats, d, p)
    for g in range(n):
        if int(np.trace(elems[g])) % p != chi[g]:
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
    mor_mats: dict[tuple[str, str], tuple]  # per hom element
    alpha_mats: tuple                  # per orbit representative


# An object without generator matrices (a trivial group) takes its
# dimension from "dim" alone: no square matrix in the document bounds it,
# and its identity matrix is built from it.
MAX_FREE_DIM = 1024


def build_catrep(cat: EICategory, p: int, gen_mats: dict,
                 alpha_mats, dims_hint: dict | None = None) -> CatRep:
    """Assemble and validate a full representation from generator and
    representative matrices; objects whose group has no generators take
    their dimension from dims_hint.  Every shape is checked first.

    One worklist pass derives each morphism's matrix and checks
    functoriality: a morphism, taken once, puts its product with each
    generator matrix of either endpoint group and with each composable
    partner that has a matrix already, and a filled slot must receive
    the same matrix.  check_group_rep has verified the group relations
    and the hom actions are group actions (checked at load), so
    agreement on generators gives agreement on every element, by
    induction along its word; every composable pair meets when the
    later of its two morphisms is taken."""
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
    gens = {x: tuple(gen_mats.get(x, ())) for x in cat.objects}
    for x in cat.objects:
        check_group_rep(cat.groups[x], gens[x], dims[x], p)

    assigned = {key: [None] * hs.size for key, hs in cat.homs.items()}
    todo = deque()

    def put(key, idx, mat):
        cur = assigned[key][idx]
        if cur is None:
            assigned[key][idx] = mat % p
            todo.append((key, idx))
        elif not np.array_equal(cur, mat % p):
            raise ValidationError(
                "not-functorial",
                f"morphism {key}[{idx}] receives two different matrices")

    for (rep, _), amat in zip(reps, alpha_mats):
        put((rep.source, rep.target), rep.index, amat)
    while todo:
        key, idx = todo.popleft()
        (x, y), mat = key, assigned[key][idx]
        hs = cat.homs[key]
        for act, g in zip(hs.left_gen, gens[y]):
            put(key, act[idx], linalg.matmul(g, mat, p))
        for act, g in zip(hs.right_gen, gens[x]):
            put(key, act[idx], linalg.matmul(mat, g, p))
        for (u, v, w), table in cat.comp.items():
            if key == (u, v):   # key is the inner factor
                for b, m in enumerate(assigned[(v, w)]):
                    if m is not None:
                        put((u, w), table[b][idx], linalg.matmul(m, mat, p))
            if key == (v, w):   # key is the outer factor
                for a, m in enumerate(assigned[(u, v)]):
                    if m is not None:
                        put((u, w), table[idx][a], linalg.matmul(mat, m, p))
    for key, mats in assigned.items():
        if any(m is None for m in mats):
            raise InvariantError(f"hom {key} has unreachable morphisms")

    mor_mats = {key: tuple(mats) for key, mats in assigned.items()}
    return CatRep(cat, p, dims, gens, mor_mats, alpha_mats)


def catrep_document(r: CatRep) -> dict:
    objs = [{"id": x, "dim": r.dims[x],
             "generator_matrices": [m.tolist() for m in r.gen_mats[x]]}
            for x in r.cat.objects]
    alphas = [{"rep_index": i, "matrix": a.tolist()}
              for i, a in enumerate(r.alpha_mats)]
    return {"p": r.p, "objects": objs, "alpha_matrices": alphas}


def _matrix(rows, p: int) -> np.ndarray:
    """A JSON matrix mod p: a list of equally long lists of integers."""
    if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(is_int(v) for v in r) for r in rows):
        raise TypeError("a matrix must be a list of lists of integers")
    width = len(rows[0]) if rows else 0
    return np.array([[v % p for v in r] for r in rows],
                    dtype=np.int64).reshape(len(rows), width)


def load_catrep(cat: EICategory, doc: dict, expected_p: int) -> CatRep:
    """A representation over F_{expected_p} from its document; JSON
    integers only, and every size checked before it is used.  A document
    for another prime is a prime-mismatch, found before any matrix is
    read."""
    try:
        p = doc["p"]
        if not is_int(p) or not 2 <= p <= PRIME_SEARCH_BOUND:
            raise ValueError(f"p {p!r} is not an integer in "
                             f"2..{PRIME_SEARCH_BOUND}")
        if p != expected_p:
            raise ValidationError("prime-mismatch",
                                  f"the representation is over F_{p}, the "
                                  f"quiver over F_{expected_p}")
        gen_mats = {}
        dims_hint = {}
        for ospec in doc["objects"]:
            oid = str(ospec["id"])
            if oid in gen_mats:
                raise ValueError(f"duplicate object id {oid!r}")
            gen_mats[oid] = tuple(_matrix(m, p)
                                  for m in ospec["generator_matrices"])
            dims_hint[oid] = dim = ospec["dim"]
            if not is_int(dim) or dim < 0:
                raise ValueError(f"object {oid}: dim {dim!r} is not a "
                                 "nonnegative integer")
            if not gen_mats[oid] and dim > MAX_FREE_DIM:
                raise ValueError(f"object {oid}: dim {dim} exceeds "
                                 f"{MAX_FREE_DIM} and no matrix carries it")
        alphas = doc["alpha_matrices"]
        index = [a["rep_index"] for a in alphas]
        if not all(is_int(i) for i in index) or \
                sorted(index) != list(range(len(index))):
            raise ValueError("alpha_matrices must cover rep_index 0..r-1")
        amats = [_matrix(a["matrix"], p)
                 for _, a in sorted(zip(index, alphas), key=lambda t: t[0])]
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad representation document: {e}") from e
    if set(gen_mats) != set(cat.objects):
        raise SchemaError("representation objects do not match the category")
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


# ---------------------------------------------------------------------------
# the functor and its inverse

class MoritaContext:
    """Caches the intertwiner bases for one quiver; canonical models come
    from irreducible_model, which keeps them in chartab._MODEL_CACHE."""

    def __init__(self, built: BuiltQuiver):
        self.built = built
        self.cat = built.cat
        self.p = built.prime.p
        self.arrows = expanded_arrows(built)
        self._stab_homs = {}

    def model(self, x: str, v: int):
        """(generator matrices, element matrices) of irreducible v at x."""
        return irreducible_model(self.cat.groups[x], self.built.tables[x], v)

    def quotient_model(self, r: int, u: int):
        table = self.built.orbits[r].quotient_table
        return irreducible_model(table.group, table, u)

    def kappa(self, r: int, u: int, v: int):
        """Basis of Hom_{G1}(infl U, V restricted), V at the source object."""
        st = self.built.orbits[r].stab
        return self.stabilizer_hom(r, u, st.alpha.source, v, st.G1,
                                   st.quotG.projection.__getitem__)

    def mu(self, r: int, u: int, w: int):
        """Basis of Hom_{H1}(infl U, W restricted), W at the target."""
        st = self.built.orbits[r].stab
        return self.stabilizer_hom(r, u, st.alpha.target, w, st.H1,
                                   st.quotH.projection.__getitem__)

    def stabilizer_hom(self, r: int, u: int, x: str, v: int, k1, to_quotient):
        """Basis of Hom_{K1}(U, V restricted): U the quotient irreducible u
        of orbit r, on which K1 acts through to_quotient (a K1 position to
        a coset index), and V the irreducible v at object x."""
        key = (r, u, x, v)
        if key not in self._stab_homs:
            _, uelems = self.quotient_model(r, u)
            _, velems = self.model(x, v)
            # a generating set of K1 cuts out the same hom space, so the
            # system has the same row space, rref and basis
            pos = k1.generator_positions
            self._stab_homs[key] = intertwiner_basis(
                [uelems[to_quotient(g)] for g in pos],
                [velems[g] for g in pos], self.p,
                uelems[0].shape[0], velems[0].shape[0])
        return self._stab_homs[key]

    def theta(self, rep: CatRep, x: str, v: int):
        """Echelon basis of Hom_G(V, R(x)): the copies of V inside R(x)."""
        gmats, _ = self.model(x, v)
        return intertwiner_basis(list(gmats), list(rep.gen_mats[x]), self.p,
                                 self.built.tables[x].dims[v], rep.dims[x])

    def units(self, r: int, u: int, x: str, bases, copies: dict):
        """Every embedding copy_j . basis_l of the quotient irreducible u
        of orbit r into a module at object x, labelled (w, j, l): basis_l
        runs over bases(r, u, w) (kappa or mu) and copy_j over
        copies[(x, w)], the copies of irreducible w in the module."""
        units = []
        for w in range(len(self.built.tables[x])):
            basis = bases(r, u, w)
            for j, emb in enumerate(copies.get((x, w), ())):
                units.extend(((w, j, l), linalg.matmul(emb, b, self.p))
                             for l, b in enumerate(basis))
        return units


def apply_functor(ctx: MoritaContext, rep: CatRep) -> QuiverRep:
    """F: category representation -> quiver representation."""
    if rep.p != ctx.p:
        raise ValidationError("prime-mismatch",
                              "representation and quiver use different primes")
    p = ctx.p
    thetas = {(v.object, v.irr): ctx.theta(rep, v.object, v.irr)
              for v in ctx.built.vertices}
    dims = tuple(len(thetas[(v.object, v.irr)]) for v in ctx.built.vertices)

    unit_cache = {}
    mats = []
    for ea in ctx.arrows:
        sv = ctx.built.vertices[ea.source]
        tv = ctx.built.vertices[ea.target]
        x, v = sv.object, sv.irr
        y, w = tv.object, tv.irr
        alpha = rep.alpha_mats[ea.rep_index]
        kappas = ctx.kappa(ea.rep_index, ea.u, v)
        ukey = (ea.rep_index, ea.u, y)
        if ukey not in unit_cache:
            units = ctx.units(ea.rep_index, ea.u, y, ctx.mu, thetas)
            du = ctx.built.orbits[ea.rep_index].quotient_table.dims[ea.u]
            cols = linalg.zeros(rep.dims[y] * du, len(units))
            for k, (_, m) in enumerate(units):
                cols[:, k] = m.flatten(order="F")
            if linalg.rank(cols, p) != len(units):
                raise InvariantError("target embeddings are dependent")
            unit_cache[ukey] = (units, cols)
        units, cols = unit_cache[ukey]
        mat = linalg.zeros(dims[ea.target], dims[ea.source])
        if dims[ea.source]:
            # column i is the image of copy i of V: one system for all
            psi = linalg.zeros(cols.shape[0], dims[ea.source])
            for i, th in enumerate(thetas[(x, v)]):
                psi[:, i] = linalg.matmul(linalg.matmul(alpha, th, p),
                                          kappas[ea.s], p).flatten(order="F")
            sol = linalg.solve(cols, psi, p)
            if sol is None:
                raise InvariantError("image of an isotypic copy leaves the "
                                     "span of the target embeddings")
            for k, ((w2, j, l2), _) in enumerate(units):
                if w2 == w and l2 == ea.l:
                    mat[j] = sol[k]
        mats.append(mat % p)
    return QuiverRep(ctx.built, p, dims, tuple(mats))


def inverse_functor(ctx: MoritaContext, qrep: QuiverRep) -> CatRep:
    """Assemble the canonical category representation with F(R) = qrep."""
    p = ctx.p
    built = ctx.built
    # canonical module per object: blocks (irreducible v, copy t), each
    # with its embedding, the block's columns of the identity
    obj_dims = {}
    elems = {}        # (x, v) -> element matrices of each model present
    embeddings = {}   # (x, v) -> one embedding per copy
    gen_mats = {}
    for x in built.cat.objects:
        blocks = [v for v in range(len(built.tables[x]))
                  for _ in range(qrep.dims[built.vertex_index[(x, v)]])]
        total = obj_dims[x] = sum(built.tables[x].dims[v] for v in blocks)
        ident = linalg.eye(total)
        mats = [linalg.zeros(total, total)
                for _ in built.cat.groups[x].generators]
        pos = 0
        for v in blocks:
            gm, elems[(x, v)] = ctx.model(x, v)
            dv = built.tables[x].dims[v]
            for m, g in zip(mats, gm):
                m[pos:pos + dv, pos:pos + dv] = g
            embeddings.setdefault((x, v), []).append(ident[:, pos:pos + dv])
            pos += dv
        gen_mats[x] = tuple(mats)

    # arrow matrices indexed for assembly
    arrow_mat = {}
    for ea, m in zip(ctx.arrows, qrep.arrow_mats):
        sv, tv = built.vertices[ea.source], built.vertices[ea.target]
        arrow_mat[(ea.rep_index, ea.u, sv.irr, tv.irr, ea.s, ea.l)] = m

    alpha_mats = []
    for r, od in enumerate(built.orbits):
        x, y = od.rep.source, od.rep.target
        src_cols = []
        img_cols = []
        for u in range(len(od.quotient_table)):
            du = od.quotient_table.dims[u]
            tgt_units = ctx.units(r, u, y, ctx.mu, embeddings)
            for (v, i, s), esrc in ctx.units(r, u, x, ctx.kappa, embeddings):
                img = linalg.zeros(obj_dims[y], du)
                for (w, j, l), etgt in tgt_units:
                    bm = arrow_mat.get((r, u, v, w, s, l))
                    if bm is not None and bm[j, i] % p:
                        img = (img + int(bm[j, i]) * etgt) % p
                src_cols.append(esrc)
                img_cols.append(img)
        # the representative matrix kills everything outside the fixed
        # points of G0, so complete the column system with that complement
        g0 = od.stab.G0.member_positions
        proj = sum(e @ (sum(el[g] for g in g0) % p) @ e.T
                   for (z, v), el in elems.items() if z == x
                   for e in embeddings[(z, v)])
        proj = proj * linalg.inv_scalar(len(g0), p) % p
        comp = linalg.row_space((linalg.eye(obj_dims[x]) - proj).T % p, p).T
        cmat = np.hstack(src_cols + [comp]) % p
        dmat = np.hstack(img_cols +
                         [linalg.zeros(obj_dims[y], comp.shape[1])]) % p
        if cmat.shape != (obj_dims[x], obj_dims[x]):
            raise InvariantError("isotypic embeddings do not fill the module")
        alpha = linalg.matmul(dmat, linalg.inv(cmat, p), p)
        alpha_mats.append(alpha)

    return build_catrep(built.cat, p, gen_mats, alpha_mats, obj_dims)


# ---------------------------------------------------------------------------
# hom spaces: one T_v per vertex, commuting with the matrices on each edge

def hom_dim_cat(r1: CatRep, r2: CatRep) -> int:
    """dim of the space of natural transformations R1 -> R2: a loop edge
    per object generator and an edge per orbit representative."""
    cat = r1.cat
    at = {x: i for i, x in enumerate(cat.objects)}
    edges = [(at[x], at[x], a, b) for x in cat.objects
             for a, b in zip(r1.gen_mats[x], r2.gen_mats[x])]
    edges += [(at[rep.source], at[rep.target], a1, a2) for (rep, _), a1, a2
              in zip(orbit_representatives(cat), r1.alpha_mats, r2.alpha_mats)]
    system = linalg.sylvester_system([r1.dims[x] for x in cat.objects],
                                     [r2.dims[x] for x in cat.objects],
                                     edges, r1.p)
    return int(linalg.nullspace(system, r1.p).shape[0])


def hom_dim_quiver(q1: QuiverRep, q2: QuiverRep) -> int:
    """dim Hom between two quiver representations: an edge per expanded
    arrow."""
    edges = [(ea.source, ea.target, m1, m2) for ea, m1, m2 in
             zip(expanded_arrows(q1.built), q1.arrow_mats, q2.arrow_mats)]
    system = linalg.sylvester_system(q1.dims, q2.dims, edges, q1.p)
    return int(linalg.nullspace(system, q1.p).shape[0])
