"""Non-split extensions and thick points, built from the public API only.

Term 1 of the 3-fold Ext complex of (M, N) has one block Hom(M_tgt, N_src)
per arrow, so a vector xi there gives the module E with E_v = N_v + M_v and
E_a = [[N_a, xi_a], [0, M_a]].  Y d1 linearizes the relations, so E satisfies
them exactly when xi is in the kernel of d1, and E is a non-split extension
0 -> N -> E -> M -> 0 when xi is not in the image of d0 as well.

A thick point of length k is k - 1 such extensions of a point by the last
one: the generic class sum (i + 1) * (i-th Ext^1 basis vector) is taken at
each step, which fills the differentials of its Ext complexes.  Its self-Ext
is (k, 3k, 3k, k) (``oracles.ext_thick_point_self_Y``).
"""

from __future__ import annotations

from localp2.homalg import build_ext_complex_Y
from localp2.linalg import Mat, nullspace, rank, scalar
from localp2.quiver import ARROW_ORDER, arrow, check_relations, representation


def ext1_basis(m, n) -> list[list]:
    """Kernel vectors of d1 of the 3-fold complex of (m, n), one per dimension
    of Ext^1(m, n): each is independent of the image of d0 and of the ones
    before it, in the order ``nullspace`` lists them."""
    d0, d1 = build_ext_complex_Y(m, n).differentials[:2]
    kernel, _ = nullspace(d1)
    kept = list(d0.transpose().sparse)
    r = rank(Mat(len(kept), d1.cols, tuple(kept)))
    basis = []
    for j in range(kernel.cols):
        vec = [row.get(j, 0) for row in kernel.sparse]
        trial = kept + [{i: x for i, x in enumerate(vec) if x}]
        if rank(Mat(len(trial), d1.cols, tuple(trial))) > r:
            kept, r = trial, r + 1
            basis.append(list(vec))
    return basis


def extension(m, n, xi, label: str | None = None):
    """The module E_a = [[N_a, xi_a], [0, M_a]] of the term-1 vector ``xi``;
    refused with ``AssertionError`` when ``xi`` does not fill term 1 or E
    violates a relation.  Entries are stored as ``Mat.from_rows`` stores
    them, ints where integral."""
    assert m.heart == n.heart
    mats, off = {}, 0
    for name in ARROW_ORDER:
        a = arrow(name)
        rows, cols, shift = n.dims[a.source], m.dims[a.target], n.dims[a.target]
        block = xi[off:off + rows * cols]
        off += rows * cols
        top = [{**n.matrices[name].sparse[i],
                **{shift + j: scalar(x) for j, x in enumerate(block[i * cols:(i + 1) * cols])
                    if x}}
               for i in range(rows)]
        bottom = [{shift + j: x for j, x in row.items()} for row in m.matrices[name].sparse]
        mats[name] = Mat(rows + m.dims[a.source], shift + cols, tuple(top + bottom))
    assert off == len(xi), f"xi has {len(xi)} entries, term 1 has {off}"
    dims = tuple(x + y for x, y in zip(n.dims, m.dims))
    e = representation(m.heart, dims, mats, label)
    assert check_relations(e).ok, check_relations(e).violated
    return e


def generic_class(m, n) -> list:
    """sum (i + 1) * b_i over the Ext^1 basis b of (m, n)."""
    basis = ext1_basis(m, n)
    assert basis, "Ext^1 is zero: every extension splits"
    return [sum((i + 1) * b[j] for i, b in enumerate(basis)) for j in range(len(basis[0]))]


def thick_point(k: int, point):
    """A thick point of length k: ``point`` extended k - 1 times, each time by
    the generic class of Ext^1(point, E)."""
    e = point
    for length in range(2, k + 1):
        e = extension(point, e, generic_class(point, e), f"thick {point.label} k={length}")
    return e
