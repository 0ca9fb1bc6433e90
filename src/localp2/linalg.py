"""Exact sparse linear algebra over the rationals, with an optional prime-field rank mode.

Every homology dimension in this package is an exact rank; no floating point
anywhere.  Matrices store sparse rows, and one elimination routine
(``_echelon``), forward elimination with no back-substitution, row-reduces
them over Q or over GF(p).  It backs ``rank`` in both modes and
``nullspace``, the one solver: kernels are all the twists and ``hom_space``
need.  ``rank`` can leave out given rows, hand back its pivot
columns and pivot at each row's last column instead of its first, which is
how ``homalg`` clears the rows of an Ext differential that the next one shows
to be redundant.  The prime-field mode computes ranks
modulo a large prime (> 2**30) and is contractually required to agree with
the rational mode on the regression corpus.  Its values are symmetric residues, ints in
[-p//2, p//2]: an in-range entry is used as it is, so ±1 stays ±1 (one
30-bit digit, where p - 1 takes two), and a value is reduced only when it
leaves the range.  A matrix whose ``entry_bound`` is known and at most p//2
holds only such entries, so its rows are used as over Q, unread.

The kernels allocate only what they read.  Elimination starts from the
matrix's own rows (after a conversion into residues, when one is needed) and
copies a row just before it first writes it, so an input ``Mat`` is never
mutated.  One loop, ``sum_of_products_is_zero``, answers whether a signed
sum of products ``a @ b`` vanishes without building a product: it sums
their entries into one flat dict.  It serves the ``d.d = 0`` check of every
Ext complex, one product (``product_is_zero``), and the relation check of
every module (``quiver.check_relations``), two products per relation.
``Mat`` is a frozen dataclass whose ``__init__`` writes its four fields
once into the instance dict, as ``homalg.ExtComplex`` does, instead of one
``object.__setattr__`` per field; assigning a field still raises
``FrozenInstanceError``.

``BlockMap`` assembles the Ext differentials and intertwiner systems from
term tables checked once, where they are defined (``term_table``, given the
table's spaces as slot-indexed blocks): no (out block, in block) pair
repeats, every sign is ±1, and every term fits its blocks whatever the dims.
So each entry of a map is written once and is ± one nonzero arrow entry;
nothing is accumulated or filtered, and the largest |arrow entry| bounds
every entry of the map.  Per dims pair, a table is only laid out on its
blocks as a ``BlockPlan`` (offsets and strides, empty terms dropped), which
serves every map between blocks of those dims: ``homalg`` keeps the plans of
each Ext complex in a bounded memo keyed by module dims.  Applying a plan
checks no matrix, since the builders tie each arrow matrix's shape to its
module's dims, and writes each entry as ``v`` or ``-v``.

Exact scalars are integer-first: a value that enters a matrix (``scalar``,
behind ``Mat.from_rows``) is stored as an ``int`` when it is integral and as
a ``Fraction`` only otherwise, so the 0/±1 matrices of the constructors run
on plain ``int`` arithmetic through assembly, products and elimination.
Sums and products keep ints as ints; one that involves a ``Fraction`` stays
a ``Fraction`` even when integral, which compares, hashes and prints exactly
as the integer does.  The hazard of ``int`` entries is true division:
``1 / 2`` is a float.  Elimination inverts no pivot: one other than ±1 is
cleared by cross-multiplying, so a matrix of ints is eliminated on ints
alone.  Only ``nullspace`` divides, each kernel vector by its entry at its
free column, as an ``int`` when exact and through ``Fraction`` otherwise.
``cleared`` scales a matrix to ints, which is how ``homalg`` assembles each
Ext complex once, as integer matrices over one denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import ClassVar, Container, Iterable, Sequence, Union

from .errors import InputError, ScalarModeError, ShapeError

Scalar = Union[int, Fraction]
Row = dict[int, Scalar]


def scalar(x) -> Scalar:
    """The exact value of ``x`` as an ``int`` when it is integral, else as a ``Fraction``.

    Anything ``Fraction`` accepts is accepted: ints, Fractions, fraction
    strings, and floats, which are converted exactly.  A bool becomes 0 or 1,
    so no matrix entry prints as a bool.
    """
    if type(x) is int:
        return x
    f = x if type(x) is Fraction else Fraction(x)
    return f.numerator if f.denominator == 1 else f


@dataclass(frozen=True)
class RationalScalars:
    name: ClassVar[str] = "rational"


@dataclass(frozen=True)
class PrimeScalars:
    p: int
    name: ClassVar[str] = "prime"

    def __post_init__(self):
        if self.p <= 2**30:
            raise ScalarModeError(f"prime modulus must exceed 2**30, got {self.p}")
        if self.p >= _MR_LIMIT:
            raise ScalarModeError(f"prime modulus must be below {_MR_LIMIT} to be proved prime, "
                                  f"got {self.p}")
        if not _is_prime(self.p):
            raise ScalarModeError(f"modulus {self.p} is not prime")


# Miller-Rabin with the 13 prime bases 2..41 proves primality of every n below
# _MR_LIMIT (Sorenson and Webster, 2015); moduli at or above it are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for 41 < n < _MR_LIMIT."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


Scalars = Union[RationalScalars, PrimeScalars]

RATIONAL = RationalScalars()


@dataclass(frozen=True, eq=False, init=False)
class Mat:
    """Immutable sparse matrix over Q; the zero-row/zero-column cases keep their shape.

    ``sparse`` holds one ``{column: value}`` dict per row with no explicit
    zeros; the dicts are never mutated once a ``Mat`` holds them.  Values are
    ``int`` or ``Fraction``, never ``float`` (see the module docstring).
    ``entry_bound``, when not None, is an int at least every |value|, and
    every value is an int; only ``BlockMap.matrix`` records one.  It takes no
    part in equality.  ``entries`` lists the nonzero entries, built on first
    read and kept with the matrix.
    """

    rows: int
    cols: int
    sparse: tuple[Row, ...]
    entry_bound: int | None = None

    def __init__(self, rows: int, cols: int, sparse: tuple[Row, ...],
                 entry_bound: int | None = None):
        # One write per field into the instance dict (see the module docstring).
        d = self.__dict__
        d["rows"] = rows
        d["cols"] = cols
        d["sparse"] = sparse
        d["entry_bound"] = entry_bound

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, ({},) * rows)

    @staticmethod
    def from_rows(entries: Sequence[Sequence], cols: int | None = None) -> "Mat":
        rows = [[scalar(x) for x in row] for row in entries]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ShapeError("ragged rows in matrix literal")
            if cols is not None and cols != ncols:
                raise ShapeError(f"expected {cols} columns, got {ncols}")
        else:
            if cols is None:
                raise ShapeError("empty matrix literal needs an explicit column count")
            ncols = cols
        return Mat(len(rows), ncols, tuple({j: x for j, x in enumerate(r) if x} for r in rows))

    @cached_property
    def entries(self) -> tuple[tuple[int, int, Scalar], ...]:
        """The nonzero entries as ``(row, column, value)``, row by row."""
        return tuple((r, c, v) for r, row in enumerate(self.sparse) for c, v in row.items())

    @property
    def data(self) -> tuple[tuple[Scalar, ...], ...]:
        """Dense read-only view, row by row."""
        return tuple(tuple(r.get(j, 0) for j in range(self.cols)) for r in self.sparse)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols, self.sparse) == (other.rows, other.cols, other.sparse)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self.sparse)))

    def transpose(self) -> "Mat":
        # Only the rows that receive an entry are allocated; the others share
        # one empty row, as in ``zeros``, and empty rows are skipped unread.
        empty: Row = {}
        out = [empty] * self.cols
        for i, row in enumerate(self.sparse):
            if row:
                for j, v in row.items():
                    if out[j] is empty:
                        out[j] = {}
                    out[j][i] = v
        return Mat(self.cols, self.rows, tuple(out))

    def is_zero(self) -> bool:
        return not any(self.sparse)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ShapeError(f"matmul: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.is_zero() or other.is_zero():
            return Mat.zeros(self.rows, other.cols)
        out = []
        for row in self.sparse:
            if not row:
                # Rows are never mutated, so an empty one is shared, not rebuilt.
                out.append(row)
                continue
            acc: Row = {}
            for k, v in row.items():
                for j, w in other.sparse[k].items():
                    acc[j] = acc.get(j, 0) + v * w
            out.append({j: x for j, x in acc.items() if x})
        return Mat(self.rows, other.cols, tuple(out))


def sum_of_products_is_zero(terms: Iterable[tuple[int, Mat, Mat]]) -> bool:
    """Whether the sum of ``sign * (a @ b)`` over the ``(sign, a, b)`` of
    ``terms``, each sign 1 or -1, is zero, without building a product.

    The entries are summed into one flat dict keyed ``row * cols + column``;
    no row dict, filtered row or ``Mat`` is made, and a term whose ``b`` is
    zero adds nothing.  The dict holds the partial sum times the sign of the
    last term added, and is negated where the sign changes, so the inner loop
    only adds.  Raises ``ShapeError`` as ``a @ b`` does, or when two products
    differ in shape.
    """
    acc: dict[int, Scalar] = {}
    get = acc.get
    shape = last = None
    for sign, a, b in terms:
        n = b.cols
        if a.cols != b.rows:
            raise ShapeError(f"matmul: {a.rows}x{a.cols} @ {b.rows}x{n}")
        if shape is None:
            shape, last = (a.rows, n), sign
        elif shape != (a.rows, n):
            raise ShapeError(f"sum of products: {shape[0]}x{shape[1]} + {a.rows}x{n}")
        brows = b.sparse
        if not any(brows):
            continue
        if sign != last:
            for key, x in acc.items():
                acc[key] = -x
            last = sign
        for i, row in enumerate(a.sparse):
            if row:
                base = i * n
                for k, v in row.items():
                    for j, w in brows[k].items():
                        key = base + j
                        acc[key] = get(key, 0) + v * w
    return not any(acc.values())


def product_is_zero(a: Mat, b: Mat) -> bool:
    """Whether ``a @ b`` is zero, without building it (``sum_of_products_is_zero``).

    Raises ``ShapeError`` as ``a @ b`` does.
    """
    return sum_of_products_is_zero(((1, a, b),))


def block_diag(a: Mat, b: Mat) -> Mat:
    shifted = tuple({a.cols + j: v for j, v in row.items()} for row in b.sparse)
    return Mat(a.rows + b.rows, a.cols + b.cols, a.sparse + shifted)


def cleared(m: Mat, d: int) -> Mat:
    """``d * m`` with int entries; ``d`` is a multiple of every entry's denominator."""
    return Mat(m.rows, m.cols, tuple({j: x.numerator * (d // x.denominator) for j, x in row.items()}
                                     for row in m.sparse))


def _field_rows(m: Mat, p: int, skip: Container[int] = ()) -> list[dict]:
    """The nonzero rows of ``m`` whose indices are not in ``skip``, over GF(p)
    when p is nonzero, else over Q.

    Over Q, or over GF(p) when ``m.entry_bound`` shows every entry is a
    nonzero int in [-p//2, p//2], these are the matrix's own row dicts, not
    copies: ``_echelon`` copies a row before it writes it.  Otherwise each row
    is converted into a new dict of symmetric residues in [-p//2, p//2]: an
    int already in that range is kept as it is, so 0/±1 entries are never
    reduced.
    """
    rows = [row for i, row in enumerate(m.sparse) if i not in skip] if skip else m.sparse
    if not p or (m.entry_bound is not None and m.entry_bound <= p // 2):
        return [row for row in rows if row]
    h = p // 2
    lo = -h
    out = []
    for row in rows:
        if not row:
            continue
        residues = {}
        for j, x in row.items():
            if type(x) is int:
                if lo <= x <= h:
                    # A stored entry is nonzero, and so is its in-range residue.
                    residues[j] = x
                    continue
                r = (x + h) % p - h
            elif x.denominator % p == 0:
                raise ScalarModeError(
                    f"matrix entry {x} has a denominator divisible by the prime {p}")
            else:
                r = (x.numerator * pow(x.denominator, -1, p) + h) % p - h
            if r:
                residues[j] = r
        if residues:
            out.append(residues)
    return out


def _echelon(rows: list[dict], p: int, *, trailing: bool = False) -> dict[int, dict]:
    """Row-reduce sparse rows over Q (p = 0, int or Fraction values) or GF(p)
    (symmetric residues in [-p//2, p//2], as ``_field_rows`` makes them).

    Each row is cleared at its pivot side, its leftmost column (its last one
    with ``trailing``), by the pivot row of that column until that column has
    no pivot yet; it then becomes that column's pivot row, negated if its
    pivot is -1.  So a pivot row is zero left of its pivot (right of it with
    ``trailing``).  A pivot row with one entry clears its column by removing
    it.  Otherwise, for the row's entry f and the pivot v, clearing is
    ``row -= (f // v) * prow`` when v divides f (always for v = 1), else
    ``row = v * row - f * prow``, after which a row over Q is made a
    primitive row of ints: no pivot is inverted, so rows of ints are
    eliminated with no ``Fraction``.  Over GF(p) a value is reduced only when
    it leaves the symmetric range, and 0 is the only residue of a multiple
    of p.  Zeros are dropped, one loop per field.  Returns {pivot column:
    row}, its size is the rank.
    No input row is written: a row is copied just before it is first reduced,
    and a row that becomes a pivot unreduced is stored as it is.  So the input
    rows may be a ``Mat``'s own, and a returned pivot row may be one of them.
    """
    pivots: dict[int, dict] = {}
    side = max if trailing else min
    h = p // 2
    lo = -h
    for row in rows:
        mine = False
        while row:
            c = side(row)
            prow = pivots.get(c)
            if prow is None:
                if row[c] == -1:
                    row = {j: -x for j, x in row.items()}
                pivots[c] = row
                break
            if not mine:
                row, mine = dict(row), True
            if len(prow) == 1:
                del row[c]
                continue
            f, v, get = row[c], prow[c], row.get
            if v != 1:
                if not f % v:
                    f, v = f // v, 1
                else:
                    for j, x in row.items():
                        x *= v
                        row[j] = x if not p or lo <= x <= h else (x + h) % p - h
            if p:
                for j, w in prow.items():
                    x = get(j, 0) - f * w
                    if x > h or x < lo:
                        x = (x + h) % p - h
                    if x:
                        row[j] = x
                    else:
                        del row[j]
            else:
                for j, w in prow.items():
                    x = get(j, 0) - f * w
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                if v != 1 and row:
                    # A primitive row of ints: times the lcm of its denominators
                    # (1 for ints) over the gcd of its numerators.
                    d = lcm(*[x.denominator for x in row.values()])
                    g = gcd(*[x.numerator for x in row.values()])
                    if d != 1 or g != 1:
                        for j, x in row.items():
                            row[j] = x.numerator * (d // x.denominator) // g
    return pivots


def rank(m: Mat, scalars: Scalars = RATIONAL, *, skip: Container[int] = (),
         pivots: set[int] | None = None, trailing: bool = False) -> int:
    """The rank of ``m`` over Q, or over GF(p) for ``PrimeScalars``, read from
    the rows whose indices are not in ``skip``.

    Leaving rows out gives the rank of ``m`` only when they lie in the span of
    the rows kept, which the caller must know (clearing in ``homalg``).  The
    pivot columns of the elimination are added to ``pivots`` when it is given:
    each row's leftmost column, or with ``trailing`` its last one, once
    reduced.  The rank is the same either way.
    """
    p = scalars.p if isinstance(scalars, PrimeScalars) else 0
    found = _echelon(_field_rows(m, p, skip), p, trailing=trailing)
    if pivots is not None:
        pivots.update(found)
    return len(found)


def nullspace(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Kernel basis as columns, one per free column of ``m`` in increasing order.

    Returns the basis and the free columns; the basis restricted to the free
    rows is the identity, so a kernel vector's coordinates are its entries there.

    The columns of ``m`` are eliminated in order, as rows with trailing
    pivots, column f extended by a record: entry 1 at key ``f - m.cols``,
    below every row index of ``m``, so a row's entries at row indices are
    cleared before its record is reached.  A record only takes in pivot rows
    whose pivot is a row index, so it holds f and earlier pivot columns, and
    f's key is its largest.  Column f is free exactly when its row reduces to
    its record; that record is a kernel vector, nonzero at f and zero at every
    other free column, and divided by its entry at f it is the vector of the
    reduced row echelon form, entry for entry.
    """
    n = m.cols
    columns: list[Row] = [{f - n: 1} for f in range(n)]
    for i, row in enumerate(m.sparse):
        for j, x in row.items():
            columns[j][i] = x
    pivots = _echelon(columns, 0, trailing=True)
    free = tuple(c + n for c in pivots if c < 0)
    out: list[Row] = [{} for _ in range(n)]
    for i, f in enumerate(free):
        record = pivots[f - n]
        v = record[f - n]
        for k, x in record.items():
            out[k + n][i] = Fraction(x, v) if x % v else x // v
    return Mat(n, len(free), tuple(out)), free


# The largest dimension of a vector space the package allocates: every entry
# of a record's ``dims`` and both terms of every BlockMap (the Ext terms, the
# intertwiner systems behind ``hom_space``, and the Koszul terms of twists and
# membership tests, three times slot 1 or 2 of the module).  It also bounds the
# slots of an extended window and the hearts of a verified range.  Larger
# requests are input errors, refused before anything is allocated.
MAX_DIM = 100_000

Term = tuple[int, int, int, bool, int]  # (out block, in block, arrow, left, sign)
Blocks = Sequence[tuple[str, int, int]]


def term_table(out_space: Blocks, in_space: Blocks, arrows: Blocks,
               terms: Sequence[Term]) -> tuple[Term, ...]:
    """The terms of a ``BlockMap`` table, checked once, for every choice of dims.

    A space lists slot-indexed blocks ``(label, r, c)``, the matrices from
    slot c of M to slot r of N, and ``arrows`` lists ``(name, source,
    target)``: arrow k of a module of dims ``dims`` is a ``dims[source] x
    dims[target]`` matrix.  A term ``(o, i, k, left, sign)`` maps phi in in
    block ``i`` to ``sign * N_k @ phi`` (``left``) or ``sign * phi @ M_k`` in
    out block ``o``; it fits its blocks whatever the dims exactly when a left
    term has ``out.c == in.c`` and ``(out.r, in.r) == (source, target)`` and
    a right term has ``out.r == in.r`` and ``(in.c, out.c) == (source,
    target)``.  No (out block, in block) pair may repeat and every sign is 1
    or -1, so each entry of a map is written by one term, once, as ± one
    arrow entry.  Refused with ``ShapeError`` otherwise.
    """
    table = tuple(terms)
    pairs = set()
    for o, i, k, left, sign in table:
        (olabel, orow, ocol), (ilabel, irow, icol) = out_space[o], in_space[i]
        name, source, target = arrows[k]
        where = f"{olabel}<-{ilabel}"
        if type(sign) is not int or sign not in (1, -1):
            raise ShapeError(f"term sign {sign!r} at block pair {where} is not ±1")
        if (o, i) in pairs:
            raise ShapeError(f"block pair {where} repeats in a term table")
        pairs.add((o, i))
        if left:
            fits = ocol == icol and (orow, irow) == (source, target)
        else:
            fits = orow == irow and (icol, ocol) == (source, target)
        if not fits:
            raise ShapeError(f"{'left' if left else 'right'} term of arrow {name} does not fit "
                             f"block pair {where}")
    return table


def _layout(blocks: Blocks) -> tuple[list[tuple[int, int, int]], int]:
    out, off = [], 0
    for _, r, c in blocks:
        out.append((off, r, c))
        off += r * c
    return out, off


class BlockPlan:
    """A ``term_table`` laid out on blocks ``(label, rows, cols)`` of given dims:
    what ``BlockMap`` applies.

    The table was checked where it is defined, so every term fits its blocks
    and only offsets and strides depend on the dims.  One plan serves every
    map between blocks of the same dims (``homalg`` keeps the plans of each
    Ext complex in a bounded memo keyed by module dims).  Term dimensions
    above ``MAX_DIM`` are refused (``InputError``).  ``left`` and ``right``
    are flat tuples of ints read in fixed-size records, one per term whose
    two blocks are both nonempty: ``k, negate, out offset, out cols, in
    offset, in cols``, a right term with its out rows after them.
    """

    __slots__ = ("out_dim", "in_dim", "left", "right")

    def __init__(self, out_blocks: Blocks, in_blocks: Blocks, terms: Sequence[Term]):
        out, self.out_dim = _layout(out_blocks)
        inn, self.in_dim = _layout(in_blocks)
        if max(self.out_dim, self.in_dim) > MAX_DIM:
            raise InputError(f"term dimensions {self.out_dim} x {self.in_dim} exceed the "
                             f"size bound {MAX_DIM}")
        left: list[int] = []
        right: list[int] = []
        for o, i, k, is_left, sign in terms:
            ooff, orows, ocols = out[o]
            ioff, irows, icols = inn[i]
            if orows and ocols and irows and icols:
                if is_left:
                    left += (k, sign < 0, ooff, ocols, ioff, icols)
                else:
                    right += (k, sign < 0, ooff, ocols, ioff, icols, orows)
        self.left, self.right = tuple(left), tuple(right)


class BlockMap:
    """Assembles a sparse linear map between direct sums of Hom-spaces.

    Each block is a matrix space Hom(k^c, k^r) flattened row-major.  A term
    ``(o, i, k, left, sign)`` of the ``plan`` maps phi -> sign * left[k] @ phi
    (``left``) or phi -> sign * phi @ right[k] from in-block ``i`` to
    out-block ``o``.  The matrices are not checked here: the builders tie
    their shapes to the dims the plan was laid out on (a module's matrices
    fit its dims, and both modules are of one algebra).  One loop per
    side walks the plan's nonempty terms and the nonzero entries of each
    matrix (``Mat.entries``, built once per matrix and read again by every
    map over the same module; a zero matrix adds nothing).  Since no block
    pair repeats, each entry is stored once as ``v`` or ``-v``, never summed,
    and is nonzero.  ``entry_bound``, when given, is an int at least every
    |entry| of ``left`` and ``right``, all ints, and ``matrix`` records it on
    the map.
    """

    def __init__(self, plan: BlockPlan, left: Sequence[Mat], right: Sequence[Mat],
                 entry_bound: int | None = None):
        self.out_dim, self.in_dim = plan.out_dim, plan.in_dim
        self._entry_bound = entry_bound
        self._rows: list[Row] = [{} for _ in range(self.out_dim)]
        rows = self._rows
        # zip(it, it, ...) over one iterator reads a flat tuple in records.
        # (L @ phi)[r, x] picks up L[r, c] * phi[c, x].
        it = iter(plan.left)
        for k, negate, ooff, ocols, ioff, icols in zip(it, it, it, it, it, it):
            for r, c, v in left[k].entries:
                if negate:
                    v = -v
                base_o, base_i = ooff + r * ocols, ioff + c * icols
                for x in range(ocols):
                    rows[base_o + x][base_i + x] = v
        # (phi @ R)[x, c] picks up phi[x, r] * R[r, c].
        it = iter(plan.right)
        for k, negate, ooff, ocols, ioff, icols, orows in zip(it, it, it, it, it, it, it):
            for r, c, v in right[k].entries:
                if negate:
                    v = -v
                base_o, base_i = ooff + c, ioff + r
                for x in range(orows):
                    rows[base_o + x * ocols][base_i + x * icols] = v

    def matrix(self) -> Mat:
        # The rows are complete after __init__ and hold no zero, so they are
        # shared, not copied.
        return Mat(self.out_dim, self.in_dim, tuple(self._rows), self._entry_bound)
