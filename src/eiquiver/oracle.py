"""Independent cross-checks on the quiver computation.

The category algebra is built explicitly (basis = morphisms, product =
composition or zero) and its radical filtration is verified from the
multiplication table alone.  Arrow multiplicities are then recomputed by
a completely different route: the unfactorizable block of rad/rad² is an
(Aut(y), Aut(x))-bipermutation module, so its decomposition follows from
fixed-point counts,

    mult(V, W) = (|G||H|)^{-1} Σ_{h,g} #{β : h·β·g^{-1} = β} χ_W(h^{-1}) χ_V(g).

Any disagreement with the stabilizer-quotient computation raises
OracleMismatch.

Everything is whole-array work on index tables.  The multiplication table
is one int32 |Mor|×|Mor| array assembled block by block: endomorphism ×
endomorphism from the groups' Cayley rows, endomorphism × hom and hom ×
endomorphism from the hom-sets' left and right actions, hom × hom from the
composition tables.  The radical's ideal, power and rad/rad² checks are
boolean masks over that array, the fixed points are one gather per h, and
the character sums are two matrix products mod p.  Only the category's
actions, Cayley rows and composition tables are read: nothing is shared
with quiveralg's stabilizer data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .chartab import SplittingPrime
from .eicat import EICategory, MorphId
from .errors import InvariantError, OracleMismatch, ValidationError
from .quiveralg import BuiltQuiver


@dataclass(frozen=True)
class CategoryAlgebra:
    cat: EICategory
    basis: tuple[MorphId, ...]
    # basis position of the first morphism x -> y (for x == y, of the
    # identity block: the group's elements in element order)
    offset: dict[tuple[str, str], int]
    # prod[i, j] = basis index of basis[i]∘basis[j], or -1 when undefined
    prod: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis)


# The most morphisms build_algebra takes: its product table is one int32
# |Mor| x |Mor| array, 64 MiB at the cap, which the declared hom sizes
# (each up to eicat.MAX_POINTS) do not bound.
MAX_ALGEBRA_DIM = 1 << 12


def algebra_dim(cat: EICategory) -> int:
    """|Mor|, the dimension of the category algebra, checked against
    MAX_ALGEBRA_DIM."""
    n = cat.morphism_count()
    if n > MAX_ALGEBRA_DIM:
        raise ValidationError(
            "too-large", f"the category algebra has dimension {n}, more "
            f"than {MAX_ALGEBRA_DIM}")
    return n


def build_algebra(cat: EICategory) -> CategoryAlgebra:
    algebra_dim(cat)
    basis = tuple(cat.morphisms())
    offset: dict[tuple[str, str], int] = {}
    for i, m in enumerate(basis):
        offset.setdefault((m.source, m.target), i)
    prod = np.full((len(basis), len(basis)), -1, dtype=np.int32)

    def put(outer, inner, values):
        """The block of outer-hom × inner-hom products: values are indices
        in the composite's hom-set, rows by outer, columns by inner."""
        i, j = offset[outer], offset[inner]
        rows, cols = values.shape
        prod[i:i + rows, j:j + cols] = offset[(inner[0], outer[1])] + values

    for x, g in cat.groups.items():
        put((x, x), (x, x), np.array([g.row(i) for i in range(len(g))]))
    for (x, y), hs in cat.homs.items():
        put((y, y), (x, y), np.array(hs.left_elem, dtype=np.int32))
        put((x, y), (x, x), np.array(hs.right_elem, dtype=np.int32).T)
    for (x, y, z), table in cat.comp.items():
        put((y, z), (x, y), np.array(table, dtype=np.int32))
    return CategoryAlgebra(cat, basis, offset, prod)


@dataclass(frozen=True)
class RadicalReport:
    rad_positions: tuple[int, ...]       # basis of the radical
    rad_sq_positions: tuple[int, ...]    # basis of its square
    unfact_positions: tuple[int, ...]    # complement: basis of rad/rad²
    nilpotency_degree: int


def radical_report(alg: CategoryAlgebra) -> RadicalReport:
    """Radical filtration computed from the multiplication table.

    The radical of an EI category algebra is spanned by the
    non-isomorphisms; this function does not assume that but verifies it:
    the span must be a nilpotent two-sided ideal of the right
    codimension, hence contained in and equal to the radical.  Sets of
    basis elements are boolean masks over the basis.
    """
    n = alg.dim
    noniso = np.array([not m.is_endo for m in alg.basis], dtype=bool)
    non = np.flatnonzero(noniso)

    def spanned(products: np.ndarray) -> np.ndarray:
        """The basis elements among the defined products."""
        out = np.zeros(n, dtype=bool)
        out[products[products >= 0]] = True
        return out

    if (spanned(alg.prod[:, non]) | spanned(alg.prod[non]))[~noniso].any():
        raise InvariantError("non-isomorphisms do not span an ideal")
    # powers of the ideal, as sets of basis elements (products of basis
    # morphisms are basis morphisms, so no linear algebra is needed)
    layers = [noniso]
    while layers[-1].any():
        nxt = spanned(alg.prod[np.ix_(non, np.flatnonzero(layers[-1]))])
        if np.array_equal(nxt, layers[-1]):
            raise InvariantError("span of non-isomorphisms is not nilpotent")
        layers.append(nxt)
    rad_sq = layers[1] if len(layers) > 1 else np.zeros(n, dtype=bool)
    expected = np.zeros(n, dtype=bool)
    for key, idxs in alg.cat.unfactorizables.items():
        expected[alg.offset[key] + np.array(idxs, dtype=np.intp)] = True
    got = noniso & ~rad_sq
    if not np.array_equal(got, expected):
        raise InvariantError("rad/rad² basis disagrees with the "
                             "unfactorizable morphisms")
    # layers[i] spans rad^{i+1}; the last layer is the first zero power
    return RadicalReport(tuple(non.tolist()),
                         tuple(np.flatnonzero(rad_sq).tolist()),
                         tuple(np.flatnonzero(got).tolist()), len(layers))


def ext_quiver_oracle(cat: EICategory, prime: SplittingPrime,
                      tables: dict) -> dict:
    """Arrow multiplicities modulo p from bimodule fixed-point counts.

    Returns {((x, v), (y, w)): m} over all pairs with a nonzero residue.
    The residues determine the true multiplicities whenever those are
    below p, which holds in every bundled example; the caller compares
    mod p so the check stays sound even past that bound.
    """
    p = prime.p
    out: dict = {}
    for (x, y), idxs in cat.unfactorizables.items():
        if not idxs:
            continue
        G, H = cat.groups[x], cat.groups[y]
        hs = cat.homs[(x, y)]
        beta = np.array(idxs, dtype=np.intp)
        left = np.array(hs.left_elem, dtype=np.intp)
        # after[g, k] = β_k∘g^{-1}, so fix[h, g] = #{β : h·β·g^{-1} = β}
        after = np.array(hs.right_elem, dtype=np.intp)[G.inverse][:, beta]
        fix = np.array([(left[h][after] == beta).sum(axis=1)
                        for h in range(len(H))]) % p
        tG, tH = tables[x], tables[y]
        chi_g = tG.values                       # χ_V(g)
        chi_h = tH.values[:, H.inverse]         # χ_W(h⁻¹)
        # sums[w, v] = Σ_{h,g} fix[h, g] χ_W(h^{-1}) χ_V(g)
        sums = linalg.matmul(linalg.matmul(chi_h, fix, p), chi_g.T, p)
        scale = linalg.inv_scalar(len(G) * len(H) % p, p)
        for v in range(len(tG)):
            for w in range(len(tH)):
                m = int(sums[w, v]) * scale % p
                if m:
                    out[((x, v), (y, w))] = m
    return out


def check_against_quiver(built: BuiltQuiver) -> dict:
    """Run every oracle against a computed quiver; raise OracleMismatch or
    InvariantError on any disagreement.  Returns the oracle's mult map."""
    cat = built.cat
    alg = build_algebra(cat)
    rad = radical_report(alg)
    oracle = ext_quiver_oracle(cat, built.prime, built.tables)
    primary = built.mult_map()
    p = built.prime.p
    diffs = []
    for key in sorted(set(oracle) | set(primary)):
        a, b = oracle.get(key, 0), primary.get(key, 0)
        if a != b % p:
            diffs.append(f"{key}: oracle {a} vs quiver {b} (mod {p})")
    if diffs:
        raise OracleMismatch("arrow multiplicities disagree: " +
                             "; ".join(diffs))
    # dimension bookkeeping over the integers: Σ mult·dim(V)·dim(W) must
    # equal dim rad/rad² exactly (this part does not reduce mod p)
    total = 0
    for ((x, v), (y, w)), m in primary.items():
        total += m * built.tables[x].dims[v] * built.tables[y].dims[w]
    if total != len(rad.unfact_positions):
        raise OracleMismatch(
            f"Σ mult·dimV·dimW = {total} but dim rad/rad² = "
            f"{len(rad.unfact_positions)}")
    return oracle
