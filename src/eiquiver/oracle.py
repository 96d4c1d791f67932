"""Independent cross-checks on the quiver computation.

The radical filtration of the category algebra (basis = morphisms,
product = composition or zero) is computed from the composition tables
alone.  The radical is spanned by the non-isomorphisms, that is by every
hom-set between distinct objects, and the product of two basis
morphisms is a basis morphism, so each power rad^k is a set of basis
elements.  One layer number per morphism holds them all: ℓ(α) is the
largest number of non-isomorphisms that α is a composite of,

    ℓ(α) = max(1, max over δ∘β = α of ℓ(δ) + ℓ(β)),

read from the tables x -> z -> y, and rad^k is {ℓ ≥ k}.  Nothing larger
than those tables is allocated.  rad/rad² = {ℓ = 1} must be exactly the
unfactorizable morphisms.  For a category loaded from explicit tables,
both are the morphisms in no table, so that comparison only guards the
memo of `EICategory.unfactorizables`.  For a category generated from an
EI quiver (freecover), the unfactorizables are the construction's
one-arrow paths and the tables are glued on this first read, so it
checks the tables against the construction.  What is independent of
the quiver is ℓ ≥ 2, the fixed-point counts below and the integer
bookkeeping of check_against_quiver.

Arrow multiplicities are then recomputed by a completely different
route: the unfactorizable block of rad/rad² is an (Aut(y),
Aut(x))-bipermutation module, so its decomposition follows from
fixed-point counts,

    mult(V, W) = (|G||H|)^{-1} Σ_{h,g} #{β : h·β·g^{-1} = β} χ_W(h^{-1}) χ_V(g).

The fixed points are one gather per chunk of h, each chunk at most
eicat.CLOSURE_CHUNK entries, and the character sums two matrix products
mod p.  Any disagreement with the stabilizer-quotient
computation raises OracleMismatch.  Only the category's actions and
composition tables are read: nothing is shared with quiveralg's
stabilizer data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .chartab import SplittingPrime
from .eicat import CLOSURE_CHUNK, EICategory, incoming_tables
from .errors import InvariantError, OracleMismatch
from .quiveralg import BuiltQuiver


@dataclass(frozen=True)
class CategoryAlgebra:
    """The category algebra: its basis is every morphism, and its
    products are read from the category's own actions and tables."""
    cat: EICategory

    @property
    def dim(self) -> int:
        return self.cat.morphism_count()


def build_algebra(cat: EICategory) -> CategoryAlgebra:
    return CategoryAlgebra(cat)


def radical_report(alg: CategoryAlgebra) -> dict[tuple[str, str], np.ndarray]:
    """ℓ per hom-set x -> y, one int array over its morphisms: rad^k(x, y)
    is {ℓ ≥ k} and rad/rad² is {ℓ = 1}.

    The span of the non-isomorphisms is a nilpotent two-sided ideal by
    the layout itself: validate_category range-checks every table entry
    into hom(x, z) with x ≠ z, each hom action permutes its own
    hom-set, and the object order is acyclic.  So it is the radical.
    The tables are read once each, in the order of
    eicat.incoming_tables: both factors of a table x -> z -> y join an
    earlier pair, so their ℓ is final before the table is read.
    rad/rad² is then checked against the unfactorizables.
    """
    cat = alg.cat
    ell = {key: np.ones(hs.size, dtype=np.intp)
           for key, hs in cat.homs.items()}
    for (x, y), tables in incoming_tables(cat).items():
        for z, t in tables:
            np.maximum.at(ell[(x, y)], t, ell[(z, y)][:, None] + ell[(x, z)])
    unfact = cat.unfactorizables
    if any(tuple(np.flatnonzero(layer == 1).tolist()) != unfact[key]
           for key, layer in ell.items()):
        raise InvariantError("rad/rad² basis disagrees with the "
                             "unfactorizable morphisms")
    return ell


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
        step = max(1, CLOSURE_CHUNK // after.size)
        fix = np.concatenate([(left[h:h + step][:, after] == beta).sum(axis=2)
                              for h in range(0, len(H), step)]) % p
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
    unfact = sum(int((ell == 1).sum())
                 for ell in radical_report(build_algebra(cat)).values())
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
    if total != unfact:
        raise OracleMismatch(
            f"Σ mult·dimV·dimW = {total} but dim rad/rad² = {unfact}")
    return oracle
