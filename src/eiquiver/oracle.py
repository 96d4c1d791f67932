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
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .chartab import SplittingPrime
from .eicat import EICategory, MorphId, compose
from .errors import InvariantError, OracleMismatch
from .quiveralg import BuiltQuiver


@dataclass(frozen=True)
class CategoryAlgebra:
    cat: EICategory
    basis: tuple[MorphId, ...]
    index: dict[MorphId, int]
    # prod[i][j] = basis index of basis[i]∘basis[j], or -1 when undefined
    prod: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def build_algebra(cat: EICategory) -> CategoryAlgebra:
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
    return CategoryAlgebra(cat, basis, index, tuple(prod))


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
    codimension, hence contained in and equal to the radical.
    """
    cat = alg.cat
    noniso = tuple(i for i, m in enumerate(alg.basis) if not m.is_endo)
    noniso_set = set(noniso)
    n = len(alg.basis)
    for i in range(n):
        for j in noniso:
            for k in (alg.prod[i][j], alg.prod[j][i]):
                if k >= 0 and k not in noniso_set:
                    raise InvariantError("non-isomorphisms do not span an ideal")
    # powers of the ideal, as sets of basis elements (products of basis
    # morphisms are basis morphisms, so no linear algebra is needed)
    layers = [noniso_set]
    while layers[-1]:
        nxt = {alg.prod[i][j] for i in noniso for j in layers[-1]
               if alg.prod[i][j] >= 0}
        if nxt == layers[-1]:
            raise InvariantError("span of non-isomorphisms is not nilpotent")
        layers.append(nxt)
    rad_sq = layers[1] if len(layers) > 1 else set()
    unfact = cat.unfactorizables
    expected = {alg.index[MorphId(x, y, i)]
                for (x, y), idxs in unfact.items() for i in idxs}
    got = noniso_set - rad_sq
    if got != expected:
        raise InvariantError("rad/rad² basis disagrees with the "
                             "unfactorizable morphisms")
    # layers[i] spans rad^{i+1}; the last layer is the first zero power
    return RadicalReport(noniso, tuple(sorted(rad_sq)), tuple(sorted(got)),
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
    unfact = cat.unfactorizables
    out: dict = {}
    for (x, y), idxs in unfact.items():
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
        chis_v = [tG.irreducible(v) for v in range(len(tG))]
        chis_w = [tH.irreducible(w) for w in range(len(tH))]
        for v, chi_v in enumerate(chis_v):
            for w, chi_w in enumerate(chis_w):
                acc = 0
                for h in range(len(H)):
                    cwh = chi_w.at_inverse(h)
                    if cwh == 0:
                        continue
                    row = fix[h]
                    for g in range(len(G)):
                        if row[g]:
                            acc = (acc + row[g] * cwh * chi_v.values[g]) % p
                m = acc * scale % p
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
