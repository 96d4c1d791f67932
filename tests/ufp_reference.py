"""Reference unique-factorization oracle by full enumeration.

Every decomposition of every non-endomorphism into unfactorizables is
listed, and each pair is compared by searching for an interleaved chain
of automorphisms at the intermediate objects.  It is exponential in the
path length, and serves as the reference for the local criterion in
eiquiver.freecover.category_has_ufp.
"""

from eiquiver.eicat import EICategory, MorphId, unfactorizables
from kernel_reference import compose


def decompositions(cat: EICategory, alpha: MorphId,
                   _unfact=None) -> list[tuple[MorphId, ...]]:
    """All ways to write alpha as a composite of unfactorizables."""
    if _unfact is None:
        _unfact = unfactorizables(cat)
    x, y = alpha.source, alpha.target
    out = []
    if alpha.index in _unfact.get((x, y), ()):
        out.append((alpha,))
    for z in cat.objects:
        if z in (x, y) or (x, z) not in cat.homs or (z, y) not in cat.homs:
            continue
        for bi in _unfact[(x, z)]:
            beta = MorphId(x, z, bi)
            for di in range(cat.homs[(z, y)].size):
                delta = MorphId(z, y, di)
                if compose(cat, delta, beta) == alpha:
                    for rest in decompositions(cat, delta, _unfact):
                        out.append((beta,) + rest)
    return out


def _relatable(cat: EICategory, d1, d2) -> bool:
    """Whether two decompositions differ by an interleaved chain of
    automorphisms at the intermediate objects."""
    if len(d1) != len(d2):
        return False
    if any(a.source != b.source or a.target != b.target
           for a, b in zip(d1, d2)):
        return False
    n = len(d1)
    if n == 1:
        return d1[0] == d2[0]
    # candidates h_i with d2_i * h_{i-1} = h_i * d1_i, h_0 = h_n = identity
    mid = d1[0].target
    cand = {h for h in range(len(cat.groups[mid]))
            if compose(cat, MorphId(mid, mid, h), d1[0]) == d2[0]}
    for i in range(1, n - 1):
        mid2 = d1[i].target
        nxt = set()
        for h in range(len(cat.groups[mid2])):
            lhs = compose(cat, MorphId(mid2, mid2, h), d1[i])
            if any(compose(cat, d2[i], MorphId(mid, mid, hp)) == lhs
                   for hp in cand):
                nxt.add(h)
        cand, mid = nxt, mid2
        if not cand:
            return False
    return any(compose(cat, d2[-1], MorphId(mid, mid, hp)) == d1[-1]
               for hp in cand)


def has_unique_factorization(cat: EICategory, alpha: MorphId) -> bool:
    """Whether every pair of decompositions of alpha is related by an
    automorphism chain."""
    ds = decompositions(cat, alpha)
    if not ds:
        return False
    return all(_relatable(cat, ds[0], d) for d in ds[1:])


def reference_has_ufp(cat: EICategory) -> bool:
    """Whether every non-endomorphism factors uniquely, by enumeration."""
    return all(has_unique_factorization(cat, MorphId(x, y, i))
               for (x, y), hs in cat.homs.items() for i in range(hs.size))
