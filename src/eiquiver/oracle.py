"""Independent cross-checks on the quiver computation.

The radical filtration of the category algebra (basis = morphisms,
product = composition or zero) is computed from the composition tables
alone.  The radical is spanned by the non-isomorphisms, that is by every
hom-set between distinct objects, and the product of two basis
morphisms is a basis morphism, so each power rad^k is a set of basis
elements: one boolean mask per hom-set,

    rad^{k+1}(x, y) = ⋃_z  hom(z, y) ∘ rad^k(x, z),

read from the table of x -> z -> y.  Nothing larger than those tables is
allocated.  rad/rad² must be exactly the unfactorizable morphisms.

Arrow multiplicities are then recomputed by a completely different
route: the unfactorizable block of rad/rad² is an (Aut(y),
Aut(x))-bipermutation module, so its decomposition follows from
fixed-point counts,

    mult(V, W) = (|G||H|)^{-1} Σ_{h,g} #{β : h·β·g^{-1} = β} χ_W(h^{-1}) χ_V(g).

The fixed points are one gather per h and the character sums two matrix
products mod p.  Any disagreement with the stabilizer-quotient
computation raises OracleMismatch.  Only the category's actions and
composition tables are read: nothing is shared with quiveralg's
stabilizer data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import linalg
from .chartab import SplittingPrime
from .eicat import EICategory
from .errors import InvariantError, OracleMismatch
from .quiveralg import BuiltQuiver


@dataclass(frozen=True)
class CategoryAlgebra:
    """The category algebra.  Its basis is every morphism: first each
    object's group elements, objects in order, then each hom-set x -> y
    with x != y, by source and then target in object order, each in its
    own element order.  Products are read from the category's own
    actions and tables."""
    cat: EICategory
    # basis position of the first morphism x -> y (for x == y, of the
    # identity block: the group's elements in element order)
    offset: dict[tuple[str, str], int]

    @property
    def dim(self) -> int:
        return self.cat.morphism_count()


def build_algebra(cat: EICategory) -> CategoryAlgebra:
    keys = [(x, x) for x in cat.objects] + [
        (x, y) for x in cat.objects for y in cat.objects if (x, y) in cat.homs]
    starts = accumulate((cat.hom_size(*key) for key in keys), initial=0)
    return CategoryAlgebra(cat, dict(zip(keys, starts)))


@dataclass(frozen=True)
class RadicalReport:
    rad_positions: tuple[int, ...]       # basis of the radical
    rad_sq_positions: tuple[int, ...]    # basis of its square
    unfact_positions: tuple[int, ...]    # complement: basis of rad/rad²
    nilpotency_degree: int


def radical_report(alg: CategoryAlgebra) -> RadicalReport:
    """Radical filtration from the composition tables, one boolean mask
    per hom-set for each power of the radical.

    The span of the non-isomorphisms is a nilpotent two-sided ideal by
    the layout itself: validate_category range-checks every table entry
    into hom(x, z) with x ≠ z, each hom action permutes its own
    hom-set, and the object order is acyclic.  So it is the radical,
    and what is checked is rad/rad² against the unfactorizables.
    """
    cat = alg.cat
    tables = {key: np.array(t, dtype=np.intp) for key, t in cat.comp.items()}
    # layers[k][(x, y)] marks rad^{k+1}(x, y); the last layer is the first
    # zero power, which the acyclic object order makes finite
    layers = [{key: np.ones(hs.size, dtype=bool)
               for key, hs in cat.homs.items()}]
    while any(mask.any() for mask in layers[-1].values()):
        nxt = {key: np.zeros(hs.size, dtype=bool)
               for key, hs in cat.homs.items()}
        for (x, z, y), t in tables.items():
            nxt[(x, y)][t[:, layers[-1][(x, z)]]] = True
        layers.append(nxt)
    rad_sq = layers[min(1, len(layers) - 1)]
    unfact = cat.unfactorizables
    for key, mask in rad_sq.items():
        expected = np.zeros(len(mask), dtype=bool)
        expected[list(unfact[key])] = True
        if not np.array_equal(~mask, expected):
            raise InvariantError("rad/rad² basis disagrees with the "
                                 "unfactorizable morphisms")

    def positions(masks) -> tuple[int, ...]:
        """Basis positions of the marked morphisms, in basis order."""
        return tuple(alg.offset[key] + i for key in alg.offset
                     if key in masks
                     for i in np.flatnonzero(masks[key]).tolist())

    return RadicalReport(positions(layers[0]), positions(rad_sq),
                         positions({k: ~m for k, m in rad_sq.items()}),
                         len(layers))


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
