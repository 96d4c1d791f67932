"""The equivalence between category representations and quiver
representations for free categories with invertible group orders.

A category representation assigns a module to each object and a matrix
to each representative unfactorizable morphism; everything else is
derived by functoriality, one hom-set at a time in order of topological
distance, each hom-set's matrices one (size, dim y, dim x) array.
Composites come from one product per composition table, in chunks of at
most eicat.CLOSURE_CHUNK entries, and orbit members from their
representative, level by level along the generator actions.  Batched
products check functoriality on every morphism against each group
generator of both ends, and on every composable pair, which suffices
(see build_catrep).
The functor F sends it to a representation of the ordinary quiver:
vertex (x, V) gets k^a where a is the multiplicity of V in R(x), and
each arrow gets the scalar block read off from the induced map between
aligned isotypic copies.  The inverse assembles block-diagonal
canonical models, copying each model's cached element matrices into its
diagonal block, one copy per block, so build_catrep checks them and
multiplies no words (check_group_rep), and places each arrow's matrix
into the representative matrices.

All canonical bases are deterministic: a linear character is its own
model, certified multiplicative by one gather per generator, and every
other irreducible model comes from a fixed reduction of the regular
module (its commutants spanned by right translations, and after a cut by
a retraction summed in chunks, see commutant); every hom-space basis is
the nullspace echelon basis of its space, whatever spanning set it was
found from (canonical_span).  A model's element matrices are read off
its copy in the regular module by one gather, with no word products, and
all their traces are certified against the character by one einsum.
Models are kept for the life of the process in chartab._MODEL_CACHE,
beside the character tables, and read through that module, so the cache
has one name: per model, the generator matrices and one (|G|, d, d)
array of element matrices, which MoritaContext reads by gathers and
inverse_functor copies block by block.
The functor's Hom bases all come from Serre's projections
(projection_bases), with no linear system: kappa and mu one U at a
time, and F's copies of an object's irreducibles from one einsum over
all of them (MoritaContext.copies), from coefficients cached per group.
Both Hom-dimension checks count the T_v with T_t M1 = M2 T_s on every
edge: a block of rows per edge, and the columns less the rank.
hom_dim_quiver's columns are the entries of each T_v, and it writes an
expanded arrow's rows, [I (x) M1^T | -M2 (x) I], by scatter.
hom_dim_cat's T_x are combinations of a basis of Hom_{G_x}(R1 x, R2 x),
spanned by group averages (fixed_point_basis, which reduces only the
average's nonzero rows), with an edge per orbit representative
(_edge_system_dim).  The checks keep two routines: on identity stacks
_edge_system_dim would write hom_dim_quiver's Kronecker blocks by
products, and the scatter takes hom_dim_quiver from about 31 to 22 ms
per random-categories pass (warm caches, 2 vCPUs).
hom_dim_cat reads only the representations' matrices, no model,
character or functor basis, so it stays independent of the functor.
The average needs every |G_x| invertible mod p, which every
SplittingPrime gives (p > 2 max|G|).  The two stabilizer sides are
symmetric: kappa (source, G1 acting on U through G1/G0) and mu (target,
H1 acting through H1/H0, whose cosets carry G1/G0's numbers) are one
stabilizer_hom.  F works on one coefficient matrix C per orbit and
quotient irreducible U, between the embeddings of U on the two sides
(blocks): it solves T C = alpha S once and slices C into arrow
matrices.  The inverse solves nothing per call.  Its module is
block-diagonal, so alpha [S | K] = [T C | 0] (K the kernel of the G0
average, which alpha kills) splits into one block per copy of each
source irreducible V, and alpha's block from the copies of V to those of
W is the sum of A (x) mu_l L_{U,s} over the expanded arrows between
them (placements), L_V read off the inverse of [kappa ... | K] on V
(source_inverse), built only for a V that some arrow reads.  The kappa
and mu bases and each L_V depend only on the groups, so they are kept
in chartab._MODEL_CACHE beside the models, keyed by group signature
(MoritaContext._signature: p, group.key, K1's member positions, the
coset of each member's inverse, the quotient group's key): ("hom",
signature, V, U) and ("inverse", signature, V).  The coset numbering is
in the key, so orbits with equal stabilizers but another twist keep
their own entries.  Each check runs in its entry's build, once per key
(permgrp.memo): a basis against the orbit's count e or f
(quiveralg.OrbitData), an L_V for a square, invertible [kappa ... | K];
nothing is stored when one fails.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate, chain, pairwise

import numpy as np

from . import chartab, linalg
from .chartab import PRIME_SEARCH_BOUND, CharTable
from .eicat import (CLOSURE_CHUNK, MAX_ELEMENT_ENTRIES, EICategory,
                    incoming_tables, orbit_representatives)
from .errors import InvariantError, SchemaError, ValidationError
from .permgrp import PermGroup, is_int, memo, pidentity
from .quiveralg import BuiltQuiver


# ---------------------------------------------------------------------------
# group representations from generator matrices

def element_matrices(group: PermGroup, gen_mats, dim: int, p: int):
    """Matrix of every group element, the product of its generators'
    matrices along its BFS word, as one (|G|, dim, dim) array: one
    batched product per word length and last letter (word_levels).  Every
    slot starts as the identity matrix, which the identity element, with
    the empty word, keeps."""
    mats = np.repeat(linalg.eye(dim)[None], len(group), axis=0)
    for s, kids, parents in group.word_levels:
        mats[kids] = linalg.matmul(mats[parents], gen_mats[s], p)
    return mats


def check_size(group: PermGroup, dim: int) -> None:
    """Refuse with too-large a module whose (|G|, dim, dim) element
    matrices exceed MAX_ELEMENT_ENTRIES."""
    if len(group) * dim * dim > MAX_ELEMENT_ENTRIES:
        raise ValidationError(
            "too-large", f"a group of order {len(group)} in dimension {dim} "
            f"needs {len(group) * dim * dim} matrix entries, more than "
            f"{MAX_ELEMENT_ENTRIES}")


def check_group_rep(group: PermGroup, gen_mats, dim: int, p: int,
                    mats=None):
    """Verify the generator matrices define a representation; return the
    (|G|, dim, dim) element matrices, after checking that they fit in
    MAX_ELEMENT_ENTRIES.  Given mats (inverse_functor copies them from
    the models), the identity's slot must be I and nothing is built;
    otherwise they are element_matrices.  The relations hold exactly
    when the matrix of e * s_k is that of e times s_k's for every element
    e and generator s_k (permgrp.respects_relations): one batched product
    per generator, read against PermGroup.generator_maps.  With the
    identity's slot I, that also makes given mats the word products."""
    check_size(group, dim)
    if mats is None:
        mats = element_matrices(group, gen_mats, dim, p)
    elif not np.array_equal(mats[group.index_of[pidentity(group.degree)]],
                            linalg.eye(dim)):
        raise ValidationError("not-a-representation",
                              "the identity's matrix is not I")
    for times_s, g in zip(group.generator_maps, gen_mats):
        if not np.array_equal(mats[times_s], linalg.matmul(mats, g, p)):
            raise ValidationError(
                "not-a-representation",
                "generator matrices violate the group relations")
    return mats


# ---------------------------------------------------------------------------
# canonical irreducible models

def canonical_span(mats: np.ndarray, p: int) -> np.ndarray:
    """The span of mats (k x b x a) in its nullspace echelon basis: as a
    nullspace vector ends at its free column, that is the reduced echelon
    basis of the column-major vecs in reversed column order, reversed."""
    k, b, a = mats.shape
    basis = linalg.row_space(
        mats.transpose(0, 2, 1).reshape(k, a * b)[:, ::-1], p)
    return basis[::-1, ::-1].reshape(len(basis), a, b).transpose(0, 2, 1)


def projection_bases(coefs: list, velems: np.ndarray, p: int) -> list:
    """Hom_K(U, V) in its nullspace echelon basis for each U of coefs, U
    absolutely irreducible of degree d, from its coefs[g, a] = U(g^-1)[0,
    a] and velems[g] = V(g) over the elements g of K, |K| invertible mod
    p (Serre, Linear Representations of Finite Groups, 2.7, Prop. 8): no
    linear system.  p_a = d/|K| sum_g U(g^-1)[0, a] V(g) sends f(e_0) to
    f(e_a) for every K-map f: U -> V and kills the other basis vectors of
    U's copies and V's other isotypic parts.  So the matrix T_j whose
    column a is p_a e_j is the K-map f with f(e_0) = p_0 e_j, and the T_j
    over V's basis span Hom_K(U, V); the scale d/|K| changes no span, so
    it is left out.  Every U's projections come from one einsum over the
    concatenated coefficients, and each U's nonzero slice goes through
    canonical_span; a U that is no constituent of V has an all-zero
    slice and an empty basis."""
    # stack[a, i, j] = p_a[i, j], over every U's a
    stack = np.einsum("ga,gij->aij", np.concatenate(coefs, axis=1), velems)
    stack %= p
    slices = [stack[a:b].transpose(2, 1, 0) for a, b in
              pairwise(accumulate((c.shape[1] for c in coefs), initial=0))]
    return [canonical_span(s, p) if s.any() else s[:0] for s in slices]


def _shuffled(n: int) -> np.ndarray:
    """0..n-1 in commutant's fixed shuffled order, drawn once per group
    order (kept in _MODEL_CACHE on ("shuffle", n)); read-only, since
    every caller shares it."""
    order = np.array(random.Random(0).sample(range(n), n), dtype=np.intp)
    order.setflags(write=False)
    return order


def commutant(w, piv, cayley, inverse, p: int, base=None) -> np.ndarray:
    """End_G(W), W spanned by w's columns in the regular module (w[piv]
    = I), in the nullspace echelon basis but from no Sylvester system.
    With no base, W is an isotypic component, a two-sided ideal, so the
    right translations span End_G(W) (End_{FG}(FG) = (FG)^op): R_h on W
    is the piv rows of w[cayley[:, h^-1]].  They are taken in a fixed
    shuffled order (early elements are short words, often dependent).
    With base = (w0, piv0, comm0), W lies in w0 and End_G(W) = {pi B iota
    : B in comm0}: iota = w[piv0] embeds W, and pi, the average over g of
    A_g sigma A0_g^-1 (actions on W and w0, sigma = w0[piv]), retracts.
    The sum over g is one batched product per chunk of elements, each
    chunk's arrays at most CLOSURE_CHUNK entries.  Each product is reduced
    mod p before the sum, so the sum is below |G| p and every integer is
    that of one product per element; the products are exact in int64
    while w's width times (p - 1)^2 is below 2^63."""
    m, n = w.shape[1], len(inverse)
    if base is None:
        comm, h = np.zeros((0, m, m), np.int64), 0
        order = inverse[memo(chartab._MODEL_CACHE, ("shuffle", n),
                             _shuffled, n)]
        while len(comm) < m:
            if h == n:
                raise InvariantError("right translations miss the commutant")
            hs = order[h:h + m - len(comm) + m // 8]
            h += len(hs)
            comm = canonical_span(np.concatenate(
                (comm, w[cayley[np.ix_(piv, hs)]].transpose(1, 0, 2))), p)
        return comm
    w0, piv0, comm0 = base
    step = max(1, CLOSURE_CHUNK // (m * w0.shape[1]))
    pi = np.zeros((m, w0.shape[1]), np.int64)
    for g in range(0, n, step):
        gs = slice(g, g + step)
        pi += (w[cayley[np.ix_(inverse[gs], piv)]] @ w0[cayley[gs, piv]]
               % p).sum(axis=0)
    pi = pi * linalg.inv_scalar(n, p) % p
    return canonical_span((pi @ comm0) % p @ w[piv0] % p, p)


def _linear_model(group: PermGroup, chi: np.ndarray, p: int):
    """The model of a linear character chi: [[chi(s)]] per generator s
    and chi as a (|G|, 1, 1) array, int64 copies.  chi is certified a
    homomorphism by chi(1) = 1 and one gather per generator s, element k:
    chi(s * j) = chi(s) chi(j) for every j, read along row(k); agreement
    on generators gives agreement on every element, by induction along
    its word.  A 1 x 1 model does not depend on a basis, so this is the
    matrix the regular module gives."""
    gens = [group.index_of[s] for s in group.generators]
    if chi[group.index_of[pidentity(group.degree)]] != 1 or any(
            not np.array_equal(chi[group.row(k)], chi[k] * chi % p)
            for k in gens):
        raise InvariantError("linear character is not multiplicative")
    return (tuple(np.array([[chi[k]]], dtype=np.int64) for k in gens),
            chi.astype(np.int64).reshape(-1, 1, 1))


def irreducible_model(group: PermGroup, table: CharTable, i: int):
    """Deterministic matrices of the i-th irreducible: a tuple with one
    per generator, and one (|G|, d, d) array with one per element.

    A linear character is its own model (_linear_model): no Cayley
    table, projection or elimination.  Any other is found inside the
    regular module: project onto the isotypic component, then cut down
    to a single copy with eigenspaces of commutant elements (right
    translations and retractions, see commutant).  The copy's
    basis w has w[piv] = I, so L_g w = w A_g gives A_g as the piv rows of
    L_g w: every element's matrix is one gather from the Cayley table and
    each generator's is checked by one product.  All traces are certified
    against the character by one einsum, and the pair is kept in
    chartab._MODEL_CACHE on ("model", p, group.key, i).
    """
    return memo(chartab._MODEL_CACHE, ("model", table.p, group.key, i),
                _irreducible_model, group, table, i)


def _irreducible_model(group: PermGroup, table: CharTable, i: int):
    """irreducible_model's build."""
    p = table.p
    n = len(group)
    chi = table.values[i]
    d = table.dims[i]
    if d == 1:
        return _linear_model(group, chi, p)
    # The regular module from the Cayley table, as index arrays.  L_g has
    # a 1 at (g*j, j), so L_s w takes row a from row s^-1 * a of w, and
    # the isotypic projection d/|G| sum_g chi(g^-1) L_g has (a, j) entry
    # d/|G| chi(j * a^-1): its column j is row j of chi[cayley[:, inverse]]
    # times d/|G|, a unit as p > 2|G|.
    cayley = group.cayley
    moves = [cayley[group.inv(group.index_of[s])] for s in group.generators]
    # The isotypic part has dimension d^2 and its reduced echelon basis
    # does not depend on the spanning set, so reduce the projection's
    # leading columns, twice as many each time, until d^2 pivots show.
    # Each round gathers only those columns, from as many Cayley rows,
    # and unscaled, as a unit changes no span: the |G| x |G| projection
    # is never formed.  The loop ends there or once every column is in
    # (take >= n).
    take = 2 * d * d
    while True:
        # columns span the isotypic part; w[piv] = I
        w, piv = linalg.column_echelon(chi[cayley[:take, group.inverse]].T, p)
        if len(piv) == d * d or take >= n:
            break
        take *= 2
    base = None
    rng = random.Random(0xE1)
    while w.shape[1] > d:
        m = w.shape[1]
        comm = commutant(w, piv, cayley, group.inverse, p, base)
        base = base or (w, piv, comm)
        # random combinations, drawn only once every basis element has
        # failed to split (one with no eigenvalue in F_p needs them)
        candidates = chain(comm, (
            np.tensordot([rng.randrange(p) for _ in comm], comm, 1) % p
            for _ in range(50)))
        # the eigenspace of the candidate's least eigenvalue in F_p: a
        # proper subspace unless the candidate is scalar, whose one
        # eigenspace is everything
        for cand in candidates:
            cut = next(linalg.eigenspaces(cand, p), None)
            if cut is not None and cut.shape[0] < m:
                break
        else:
            raise InvariantError("could not split the isotypic component")
        w, piv = linalg.column_echelon(linalg.matmul(w, cut.T % p, p), p)
    gen_mats = tuple(w[mv[piv]] for mv in moves)
    for mv, a in zip(moves, gen_mats):
        if not np.array_equal(linalg.matmul(w, a, p), w[mv]):
            raise InvariantError("irreducible copy is not invariant")
    # W is invariant under the generators, so under every g
    elems = w[cayley[np.ix_(group.inverse, piv)]]
    if not np.array_equal(np.einsum("gii->g", elems) % p, chi):
        raise InvariantError("model traces disagree with the character")
    return gen_mats, elems


# ---------------------------------------------------------------------------
# category representations

@dataclass(frozen=True)
class CatRep:
    cat: EICategory
    p: int
    dims: dict[str, int]
    gen_mats: dict[str, tuple]         # per object, per group generator
    elem_mats: dict[str, np.ndarray]   # per object, |G| x dim x dim
    mor_mats: dict[tuple[str, str], np.ndarray]  # size x dim y x dim x
    alpha_mats: tuple                  # per orbit representative


# An object without generator matrices (a trivial group) takes its
# dimension from "dim" alone: no square matrix in the document bounds it,
# and its identity matrix is built from it.
MAX_FREE_DIM = 1024


def build_catrep(cat: EICategory, p: int, gen_mats: dict,
                 alpha_mats, dims_hint: dict, elem_mats=None) -> CatRep:
    """Assemble and validate a full representation from generator and
    representative matrices; objects whose group has no generators take
    their dimension from dims_hint.  Every shape is checked first.
    elem_mats, when given, holds each object's element matrices for
    check_group_rep to check instead of building them.

    Hom-sets are taken in the order of eicat.incoming_tables, with the
    tables that compose into each, so both factors of every composite are
    known first; each holds its matrices as one (size, dim y, dim x)
    array.  The composites come from one product per composition table,
    in chunks of rows of at most CLOSURE_CHUNK entries, which also
    compares every composable pair with the matrix its composite has
    (_compose).  The other morphisms are the
    orbits of the representatives, reached one level at a time along the
    generator actions, one batched product per generator and level.
    Last, every morphism is compared with each generator of either
    endpoint group, one batched product per generator; a disagreement
    anywhere is not-functorial, naming the morphism.  check_group_rep
    has verified the group relations and the hom actions are group
    actions (checked at load), so agreement on generators gives
    agreement on every element, by induction along its word; with every
    pair of every table, these are the equations a functor must meet,
    and a morphism neither composite nor in an orbit cannot be."""
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
            if dims_hint.get(x, dim) != dim:
                raise SchemaError(f"object {x}: declared dim disagrees with "
                                  "the matrices")
        elif x in dims_hint:
            dim = dims_hint[x]
        else:
            raise SchemaError(f"object {x}: dimension cannot be inferred "
                              "without generator matrices")
        dims[x] = dim

    reps = orbit_representatives(cat)
    if len(alpha_mats) != len(reps):
        raise SchemaError("need one matrix per representative unfactorizable")
    checked = []
    starts = {key: [] for key in cat.homs}   # (index, matrix) per rep
    for (rep, _), amat in zip(reps, alpha_mats):
        shape = (dims[rep.target], dims[rep.source])
        amat = np.asarray(amat, dtype=np.int64) % p
        # JSON writes every matrix with no rows as []
        if amat.shape != shape and not amat.size == 0 == shape[0]:
            raise SchemaError(f"representative {rep.source}->{rep.target}: "
                              f"matrix must be {shape[0]}x{shape[1]}")
        checked.append(amat.reshape(shape))
        starts[(rep.source, rep.target)].append((rep.index, checked[-1]))
    alpha_mats = tuple(checked)
    gens = {x: tuple(gen_mats.get(x, ())) for x in cat.objects}
    elems = {x: check_group_rep(cat.groups[x], gens[x], dims[x], p,
                                (elem_mats or {}).get(x))
             for x in cat.objects}

    mor_mats = {}
    for key, tables in incoming_tables(cat).items():
        (x, y), hs = key, cat.homs[key]
        mats = np.zeros((hs.size, dims[y], dims[x]), dtype=np.int64)
        have = np.zeros(hs.size, dtype=bool)
        for z, table in tables:
            _compose(mats, have, mor_mats[(z, y)], mor_mats[(x, z)], table,
                     key, p)
        for i, amat in starts[key]:
            mats[i] = amat
        front = np.array([i for i, _ in starts[key]], dtype=np.intp)
        have[front] = True
        moves = [(np.array(act, dtype=np.intp), g, True)
                 for act, g in zip(hs.left_gen, gens[y])]
        moves += [(np.array(act, dtype=np.intp), g, False)
                  for act, g in zip(hs.right_gen, gens[x])]
        while moves and front.size:
            # act is a permutation, so one generator's images are distinct
            grown = [front[:0]]
            for act, g, left in moves:
                src = front[~have[act[front]]]
                if src.size:
                    img = act[src]
                    mats[img] = (linalg.matmul(g, mats[src], p) if left else
                                 linalg.matmul(mats[src], g, p))
                    have[img] = True
                    grown.append(img)
            front = np.concatenate(grown)
        if not have.all():
            raise InvariantError(f"hom {key} has unreachable morphisms")
        for act, g, left in moves:
            _agree(mats, act, linalg.matmul(g, mats, p) if left else
                   linalg.matmul(mats, g, p), key)
        mor_mats[key] = mats
    return CatRep(cat, p, dims, gens, elems, mor_mats, alpha_mats)


def _agree(mats: np.ndarray, targets: np.ndarray, images: np.ndarray,
           key) -> None:
    """Check mats[targets[i]] == images[i] for every i: the first
    morphism that receives a different matrix is not-functorial."""
    got = mats[targets]
    if not np.array_equal(got, images):
        bad = (got != images).reshape(len(images), -1).any(axis=1)
        raise ValidationError(
            "not-functorial", f"morphism {key}[{targets[bad.argmax()]}] "
            "receives two different matrices")


def _compose(mats: np.ndarray, have: np.ndarray, outer: np.ndarray,
             inner: np.ndarray, table: np.ndarray, key, p: int) -> None:
    """Write outer[b] inner[a] into mats[table[b, a]] where have is
    False, and compare it with mats there for every (b, a): one
    broadcast product per chunk of rows, each product array at most
    CLOSURE_CHUNK entries (a table of 400 x 400 pairs of 8 x 8 matrices
    would need 82 MB whole)."""
    rows = max(1, CLOSURE_CHUNK // max(1, table.shape[1] *
                                       math.prod(mats.shape[1:])))
    for b0 in range(0, len(table), rows):
        targets = table[b0:b0 + rows].ravel()
        prod = linalg.matmul(outer[b0:b0 + rows, None], inner[None], p)
        prod = prod.reshape(len(targets), *mats.shape[1:])
        fresh = ~have[targets]
        mats[targets[fresh]] = prod[fresh]
        have[targets] = True
        _agree(mats, targets, prod, key)


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
    """The quiver's individual arrows, in the order of its arrows and
    units; built once per prime, through the category's memo."""
    return built.cat.memo(("expanded arrows", built.prime),
                          lambda: _expanded_arrows(built.arrows))


def _expanded_arrows(arrows) -> tuple[ExpandedArrow, ...]:
    out = []
    for arr in arrows:
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
    """One quiver's expanded arrows, grouped by block, and lookups of
    the functor's representation-independent bases.  The bases live in
    chartab._MODEL_CACHE beside the models, keyed by group signature, so
    categories over the same interned groups share them; the context
    keeps only each orbit side's signature and, for the inverse, each
    arrow's placement matrix read off them."""

    def __init__(self, built: BuiltQuiver):
        self.built = built
        self.cat = built.cat
        self.p = built.prime.p
        self.arrows = expanded_arrows(built)
        self._block_arrows = {}   # (r, u) -> (k, source key, target key)
        for k, ea in enumerate(self.arrows):
            self._block_arrows.setdefault((ea.rep_index, ea.u), []).append((
                k, (0, built.vertices[ea.source].irr, ea.s),
                (1, built.vertices[ea.target].irr, ea.l)))
        self._signatures = {}     # (r, x) -> what _signature returns
        self._placements = None   # per expanded arrow, mu_l . L_{U,s}

    def model(self, x: str, v: int):
        """(generator matrices, |G| x d x d element matrices) of
        irreducible v at x."""
        return irreducible_model(self.cat.groups[x], self.built.tables[x], v)

    def _signature(self, r: int, x: str) -> tuple:
        """What orbit r's side at x (its source or target) reads of its
        groups: (p, the group's key, K1's member positions, the coset of
        each member's inverse, the quotient group's key).  K0 is the
        members whose coset is 0.  Worked out once per (r, x)."""
        return memo(self._signatures, (r, x), self._side_signature, r, x)

    def _side_signature(self, r: int, x: str) -> tuple:
        """_signature's build."""
        od = self.built.orbits[r]
        st = od.stab
        k1, projection = ((st.G1, st.quotG.projection)
                          if x == od.rep.source else
                          (st.H1, st.quotH.projection))
        group = self.cat.groups[x]
        pos = k1.member_positions
        cosets = tuple(projection[g]
                       for g in group.inverse[list(pos)].tolist())
        return self.p, group.key, pos, cosets, od.quotient_table.group.key

    def stabilizer_hom(self, r: int, u: int, x: str, v: int):
        """Basis of Hom_{K1}(U, V restricted): U the quotient irreducible u
        of orbit r, on which K1 (G1 at r's source, H1 at its target) acts
        through its coset numbering, and V the irreducible v at object x.
        Kept in _MODEL_CACHE on ("hom", the side's signature, v, u) once
        it is as long as the quiver counts: e[u][v] at the source, f[u][v]
        at the target.  That count, <V restricted to K1, infl U>, depends
        only on what the key holds, so one check per key suffices."""
        key = ("hom", *self._signature(r, x), v, u)
        return memo(chartab._MODEL_CACHE, key, self._stabilizer_hom,
                    r, u, x, v)

    def _stabilizer_hom(self, r: int, u: int, x: str, v: int):
        """stabilizer_hom's build: Serre's projections, then the count."""
        od = self.built.orbits[r]
        p, _, pos, cosets, _ = self._signature(r, x)
        _, uelems = irreducible_model(od.quotient_table.group,
                                      od.quotient_table, u)
        _, velems = self.model(x, v)
        [basis] = projection_bases([uelems[list(cosets), 0]],
                                   velems[list(pos)], p)
        n = (od.e if x == od.rep.source else od.f)[u][v]
        if len(basis) != n:
            raise InvariantError(
                f"orbit {r}, U{u} -> {x}:X{v}: {len(basis)} Hom basis "
                f"elements, but the quiver counts {n}")
        return basis

    def source_inverse(self, r: int, v: int) -> np.ndarray:
        """L_V for the irreducible v at orbit r's source x: the rows of
        B^-1 that read the coordinates on the kappa_{U,s}, where B =
        [kappa_{U,s} for each quotient irreducible U and each s | a basis
        of the kernel of the G0 average P on V].  alpha kills that
        kernel, so its rows are never read.  Row block (U, s), of U's
        degree, reads kappa_{U,s}.

        G0 acts trivially on each U, so the kappa columns Phi lie in the
        image of P.  B is then invertible exactly when Phi has as many
        columns as P has rank (its trace: P is idempotent and dim V < p)
        and L = Y P is a left inverse of Phi, Y the one that the rref of
        [Phi | I] gives; L kills the kernel, so it is those rows.  Kept in
        _MODEL_CACHE on ("inverse", the source side's signature, v).  The
        check that B is invertible runs once per key, and nothing is
        stored when it fails."""
        key = ("inverse", *self._signature(
            r, self.built.orbits[r].rep.source), v)
        return memo(chartab._MODEL_CACHE, key, self._source_inverse, r, v)

    def _source_inverse(self, r: int, v: int) -> np.ndarray:
        """source_inverse's build."""
        od = self.built.orbits[r]
        x = od.rep.source
        p, _, pos, cosets, _ = self._signature(r, x)
        _, velems = self.model(x, v)
        dv = velems.shape[1]
        phi = np.hstack([linalg.zeros(dv, 0)] + [
            kappa for u, row in enumerate(od.e) if row[v]
            for kappa in self.stabilizer_hom(r, u, x, v)])
        c = phi.shape[1]
        g0 = [g for g, k in zip(pos, cosets) if k == 0]
        avg = velems[g0].sum(0) % p * linalg.inv_scalar(len(g0), p) % p
        left = linalg.rref(np.hstack((phi, linalg.eye(dv))), p)[0][:c, c:] \
            if c else linalg.zeros(0, dv)
        left = linalg.matmul(left, avg, p)
        if int(np.trace(avg)) % p != c or not np.array_equal(
                linalg.matmul(left, phi, p), linalg.eye(c)):
            raise InvariantError("isotypic embeddings do not fill the module")
        return left

    def placements(self) -> list[np.ndarray]:
        """mu_l . L_{U,s}, dim W x dim V, for each expanded arrow (orbit
        r, quotient irreducible U, copies s and l, from (x, V) to (y, W)):
        F^-1 sends the arrow's matrix A to the block A (x) mu_l L_{U,s} of
        alpha_r from the copies of V to the copies of W.  Built once per
        context, over every expanded arrow whatever the representation's
        dimensions, so each L_V that an arrow reads is checked on the
        first call.  An irreducible that no arrow reads has no kappa, so
        alpha is zero on its copies and its L_V is never built."""
        if self._placements is None:
            built = self.built
            out = []
            for ea in self.arrows:
                od = built.orbits[ea.rep_index]
                v = built.vertices[ea.source].irr
                w = built.vertices[ea.target].irr
                dims = od.quotient_table.dims
                row = sum(e[v] * d for e, d in zip(od.e[:ea.u], dims)) + \
                    ea.s * dims[ea.u]
                mu = self.stabilizer_hom(ea.rep_index, ea.u, od.rep.target,
                                         w)[ea.l]
                out.append(linalg.matmul(mu, self.source_inverse(
                    ea.rep_index, v)[row:row + dims[ea.u]], self.p))
            self._placements = out
        return self._placements

    def copies(self, rep: CatRep, x: str) -> list[np.ndarray]:
        """The copies of each irreducible v inside R(x): Hom_G(V, R(x)) as
        an n x dim x dv stack in its nullspace echelon basis, for every v
        in table order, all from one projection_bases call.  Its
        coefficients, V(g^-1)[0, .] for every v, are one list per group,
        kept in _MODEL_CACHE on ("coefs", p, group.key)."""
        group = self.cat.groups[x]
        coefs = memo(chartab._MODEL_CACHE, ("coefs", self.p, group.key),
                     lambda: [self.model(x, v)[1][group.inverse, 0]
                              for v in range(len(self.built.tables[x]))])
        return projection_bases(coefs, rep.elem_mats[x], self.p)

    def blocks(self, r: int, copies: dict):
        """One (S, T, arrows) per quotient irreducible u of orbit r.  S
        holds the source units copy . kappa_s and T the target units
        copy . mu_l, each a dim x du matrix; copies[(x, v)] stacks the n
        copies (dim x dv) of irreducible v in the module at x.  Both are
        ordered by (irreducible, basis element, copy), so the coefficient
        matrix C with T C = alpha S holds expanded arrow k's matrix at
        C[rows, cols] for each (k, rows, cols) in arrows.  Only the v with
        e[u][v] > 0 (w with f[u][w] > 0) add units, and each basis must
        have that length (stabilizer_hom): the projections check the
        characters.  Neither stack is empty, as infl U lies in some V
        restricted to G1 (Frobenius reciprocity), and likewise on the H1
        side."""
        od = self.built.orbits[r]
        sides = ((od.rep.source, od.e), (od.rep.target, od.f))
        for u in range(len(od.quotient_table)):
            stacks, at = [], {}
            for side, (x, counts) in enumerate(sides):
                units, off = [], 0
                for v, n in enumerate(counts[u]):
                    if n == 0:
                        continue
                    emb = copies[(x, v)]
                    basis = self.stabilizer_hom(r, u, x, v)
                    for s in range(len(basis)):
                        at[(side, v, s)] = slice(off, off + len(emb))
                        off += len(emb)
                    # [s, i] = copy_i . basis_s
                    prod = linalg.matmul(emb[None], basis[:, None], self.p)
                    units.append(prod.reshape(len(basis) * len(emb),
                                              *prod.shape[2:]))
                stacks.append(np.concatenate(units))
            yield (*stacks, [(k, at[t], at[s]) for k, s, t
                             in self._block_arrows.get((r, u), ())])


def _columns(stack: np.ndarray) -> np.ndarray:
    """Each matrix of an n x a x b stack as one column."""
    return stack.reshape(len(stack), math.prod(stack.shape[1:])).T


def _same_prime(p: int, q: int, what: str) -> None:
    """Refuse two sides over different primes with prime-mismatch."""
    if p != q:
        raise ValidationError("prime-mismatch", f"{what} use different primes")


def _check_quiverrep(q: QuiverRep, built: BuiltQuiver) -> None:
    """SchemaError unless q is a representation of built's category with
    one dimension per vertex, one matrix per expanded arrow and each
    matrix dims[target] x dims[source]."""
    if q.built.cat is not built.cat:
        raise SchemaError("the representation is of a different quiver")
    arrows = expanded_arrows(built)
    if len(q.dims) != len(built.vertices):
        raise SchemaError(f"need one dimension per vertex, "
                          f"{len(built.vertices)}, not {len(q.dims)}")
    if len(q.arrow_mats) != len(arrows):
        raise SchemaError(f"need one matrix per expanded arrow, "
                          f"{len(arrows)}, not {len(q.arrow_mats)}")
    for ea, m in zip(arrows, q.arrow_mats):
        shape = (q.dims[ea.target], q.dims[ea.source])
        if np.shape(m) != shape:
            raise SchemaError(f"arrow {ea}: matrix must be "
                              f"{shape[0]}x{shape[1]}")


def apply_functor(ctx: MoritaContext, rep: CatRep) -> QuiverRep:
    """F: category representation -> quiver representation: each
    object's copies of its irreducibles (MoritaContext.copies), then one
    system T C = alpha S per coefficient block (MoritaContext.blocks)."""
    _same_prime(rep.p, ctx.p, "representation and quiver")
    p = ctx.p
    thetas = {(x, v): stack for x in ctx.cat.objects
              for v, stack in enumerate(ctx.copies(rep, x))}
    dims = tuple(len(thetas[(v.object, v.irr)]) for v in ctx.built.vertices)

    mats = [None] * len(ctx.arrows)
    for r, alpha in enumerate(rep.alpha_mats):
        for src, tgt, arrows in ctx.blocks(r, thetas):
            # one elimination of [units | images]: the units are
            # independent when each of their n columns is a pivot, and a
            # pivot past them is an image outside their span
            n = len(tgt)
            system = np.hstack((_columns(tgt),
                                _columns(linalg.matmul(alpha, src, p))))
            red, piv = (linalg.rref(system, p) if n or len(src)
                        else (system, []))
            if piv[:n] != list(range(n)):
                raise InvariantError("target embeddings are dependent")
            if len(piv) > n:
                raise InvariantError("image of an isotypic copy leaves "
                                     "the span of the target embeddings")
            coef = red[:n, n:]
            for k, rows, cols in arrows:
                mats[k] = coef[rows, cols].copy()
    return QuiverRep(ctx.built, p, dims, tuple(mats))


def inverse_functor(ctx: MoritaContext, qrep: QuiverRep) -> CatRep:
    """Assemble the canonical category representation with F(R) = qrep.
    Each object's module holds the copies of each irreducible in turn,
    each copy its model: the model's cached element matrices are copied
    into the copy's diagonal block, one copy per block, and the
    generator matrices are the generator slots, so build_catrep checks
    them and builds none (check_group_rep).  alpha_r is the unique
    solution of alpha [S | K] = [T C | 0] (S the source units, K the
    kernel of the G0 average, which alpha kills, T the target units and
    C the arrow matrices), and [S | K] is block-diagonal over the copies,
    each block [kappa ... | K_V] for the copy's irreducible V, whose
    inverse's kappa rows are L_V (MoritaContext.source_inverse).  So each
    expanded arrow's matrix A is placed as A (x) mu_l L_{U,s}
    (MoritaContext.placements) into alpha_r's block from the copies of V
    to the copies of W: no system per call.  The prime, the representation's lengths and shapes
    (_check_quiverrep) and every object's size (check_size) are checked
    before anything is allocated."""
    p = ctx.p
    built = ctx.built
    _same_prime(qrep.p, p, "representation and quiver")
    _check_quiverrep(qrep, built)
    groups, tables = built.cat.groups, built.tables
    counts, obj_dims = {}, {}
    for x in built.cat.objects:
        counts[x] = [qrep.dims[built.vertex_index[(x, v)]]
                     for v in range(len(tables[x]))]
        obj_dims[x] = sum(n * d for n, d in zip(counts[x], tables[x].dims))
        check_size(groups[x], obj_dims[x])
    offsets = []      # per vertex: where its copies start in its object
    elem_mats = {}
    for x in built.cat.objects:
        total = obj_dims[x]
        elems = elem_mats[x] = np.zeros((len(groups[x]), total, total),
                                        np.int64)
        pos = 0
        for v, (n, dv) in enumerate(zip(counts[x], tables[x].dims)):
            offsets.append(pos)
            if n:
                model = ctx.model(x, v)[1]
                for q in range(pos, pos + n * dv, dv):
                    elems[:, q:q + dv, q:q + dv] = model
            pos += n * dv
    gen_mats = {x: tuple(elem_mats[x][groups[x].index_of[s]]
                         for s in groups[x].generators)
                for x in built.cat.objects}

    alpha_mats = [linalg.zeros(obj_dims[od.rep.target],
                               obj_dims[od.rep.source])
                  for od in built.orbits]
    for ea, a, place in zip(ctx.arrows, qrep.arrow_mats, ctx.placements()):
        # a (x) place, by one broadcast; build_catrep reduces the sums
        a = np.asarray(a, dtype=np.int64) % p
        block = (a[:, None, :, None] * place[:, None]).reshape(
            a.shape[0] * len(place), a.shape[1] * len(place.T))
        t, s = offsets[ea.target], offsets[ea.source]
        alpha_mats[ea.rep_index][t:t + len(block), s:s + len(block.T)] += \
            block
    return build_catrep(built.cat, p, gen_mats, alpha_mats, obj_dims,
                        elem_mats)


# ---------------------------------------------------------------------------
# hom spaces: one T_v per vertex, commuting with the matrices on each edge

def fixed_point_basis(v_inv: np.ndarray, w: np.ndarray, p: int) -> np.ndarray:
    """Hom_G(V, W) as an n x b x a stack, from v_inv[g] = V(g^-1) and
    w[g] = W(g) over the elements g of G, |G| invertible mod p: the span
    of the averages sum_g W(g) E V(g^-1) over the matrix units E, which
    are the G-maps (Serre, 2.2).  Row (l, k) of the einsum is the average
    of E_kl, each T column-major; no scaling by 1/|G| changes the
    span."""
    a, b = v_inv.shape[1], w.shape[1]
    avg = np.einsum("glj,gik->lkji", v_inv, w).reshape(a * b, a * b) % p
    # most rows are zero, and dropping them changes no echelon basis
    basis = linalg.row_space(avg[avg.any(axis=1)], p)
    return basis.reshape(len(basis), a, b).transpose(0, 2, 1)


def _edge_system_dim(bases, edges, p: int) -> int:
    """dim of the coefficient families c for which T_v = sum_j c_vj
    bases[v][j], each bases[v] an n_v x b_v x a_v stack, meet T_t M1 =
    M2 T_s on every edge (s, t, M1, M2): one block of rows per edge, the
    products with each basis element flattened by _columns, and one
    column per basis element.  The count is the number of columns less
    the rank.  hom_dim_cat's system."""
    off = np.cumsum([0] + [len(b) for b in bases]).tolist()
    blocks = [linalg.zeros(0, off[-1])]
    for s, t, m1, m2 in edges:
        block = linalg.zeros(bases[t].shape[1] * m1.shape[1], off[-1])
        block[:, off[t]:off[t + 1]] += _columns(linalg.matmul(bases[t], m1, p))
        block[:, off[s]:off[s + 1]] -= _columns(linalg.matmul(m2, bases[s], p))
        blocks.append(block)
    return off[-1] - len(linalg.rref(np.vstack(blocks), p)[1])


def hom_dim_cat(r1: CatRep, r2: CatRep) -> int:
    """dim of the space of natural transformations R1 -> R2 of two
    representations of one loaded category.  Each T_x is a combination of
    a basis of Hom_{G_x}(R1 x, R2 x), found by averaging
    (fixed_point_basis), so the group generators need no rows; the
    system (_edge_system_dim) has an edge per orbit representative.  No
    model, character or functor basis is used, so the check stays
    independent of F.  The average needs every |G_x| invertible mod p,
    as every SplittingPrime (p > 2 max|G|) makes it; another p is
    refused with bad-prime."""
    _same_prime(r1.p, r2.p, "the two representations")
    if r1.cat is not r2.cat:
        raise SchemaError("the representations are of different categories")
    cat, p = r1.cat, r1.p
    at = {x: i for i, x in enumerate(cat.objects)}
    edges = [(at[rep.source], at[rep.target], a1, a2) for (rep, _), a1, a2
             in zip(orbit_representatives(cat), r1.alpha_mats, r2.alpha_mats)]
    bases = []
    for x in cat.objects:
        group = cat.groups[x]
        if len(group) % p == 0:
            raise ValidationError("bad-prime", f"p = {p} divides the order "
                                  f"{len(group)} of the group at {x}")
        bases.append(fixed_point_basis(r1.elem_mats[x][group.inverse],
                                       r2.elem_mats[x], p))
    return _edge_system_dim(bases, edges, p)


def hom_dim_quiver(q1: QuiverRep, q2: QuiverRep) -> int:
    """dim Hom between two representations of the quiver of one loaded
    category: one column per entry of each T_v (b_v x a_v, row-major),
    and per expanded arrow the rows of T_t M1 = M2 T_s, which are
    [I (x) M1^T | -M2 (x) I] on the entries of T_t and T_s, written by
    two diagonal scatters into one zero block; an arrow whose block has
    no rows adds none.  The count is the number of columns less the
    rank.  Both are checked against the first's quiver (_check_quiverrep)
    before the system is built."""
    _same_prime(q1.p, q2.p, "the two representations")
    if q1.built.cat is not q2.built.cat:
        raise SchemaError("the representations are of different quivers")
    for q in (q1, q2):
        _check_quiverrep(q, q1.built)
    a, b = q1.dims, q2.dims
    off = list(accumulate((x * y for x, y in zip(a, b)), initial=0))
    blocks = [linalg.zeros(0, off[-1])]
    for ea, m1, m2 in zip(expanded_arrows(q1.built), q1.arrow_mats,
                          q2.arrow_mats):
        s, t = ea.source, ea.target
        if b[t] * a[s] == 0:
            continue
        # rows (i, j) of T_t M1 - M2 T_s, each T row-major: I (x) M1^T on
        # T_t's entries (i, k) and -M2 (x) I on T_s's entries (k, j)
        block = linalg.zeros(b[t] * a[s], off[-1])
        at_t = block[:, off[t]:off[t + 1]].reshape(b[t], a[s], b[t], a[t])
        at_t[np.arange(b[t]), :, np.arange(b[t])] += m1.T
        at_s = block[:, off[s]:off[s + 1]].reshape(b[t], a[s], b[s], a[s])
        at_s[:, np.arange(a[s]), :, np.arange(a[s])] -= m2
        blocks.append(block)
    return off[-1] - len(linalg.rref(np.vstack(blocks), q1.p)[1])
