"""The local-plane quiver with potential and its finite-dimensional representations.

One class, ``Representation``, holds a module of the Jacobi algebra, with
nine arrows and a heart, or of the plane algebra, its quotient by the c
arrows, with the six a and b arrows (``PLANE_ARROWS``) and ``heart`` None.
Its matrices are a read-only mapping in arrow order with every arrow of its
algebra present.

Vertices 0, 1, 2 of the cyclic quiver label the window slots heart, heart+1,
heart+2.  Arrow matrices act by precomposition, so an arrow u -> w carries a
matrix from slot heart+w to slot heart+u; for arrow a_i this is the map
slot(heart+1) -> slot(heart), matching multiplication tables of point and
pushforward modules.

Path words are written in composition order: in the word (c3, b2, a1) the
arrow a1 is traversed first.  Under the precomposition action a word acts by
the product of its matrices taken in reversed order.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _escape
from math import lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    HeartMismatchError,
    HeartRangeError,
    InputError,
    InternalCheckError,
    ShapeError,
)
from .linalg import (MAX_DIM, BlockMap, Mat, Scalar, block_diag, cleared, nullspace, scalar,
                     sum_of_products_is_zero, term_table)

VERTICES = (0, 1, 2)
ARROW_ORDER = ("a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3")

Word = tuple[str, ...]
Terms = tuple[tuple[int, Word], ...]


class Arrow(NamedTuple):
    name: str
    source: int
    target: int


_ARROWS = tuple(
    [Arrow(f"a{i}", 0, 1) for i in (1, 2, 3)]
    + [Arrow(f"b{j}", 1, 2) for j in (1, 2, 3)]
    + [Arrow(f"c{k}", 2, 0) for k in (1, 2, 3)]
)
_ARROW_BY_NAME = {a.name: a for a in _ARROWS}

# W = c3 b2 a1 - c2 b3 a1 + c1 b3 a2 - c3 b1 a2 + c2 b1 a3 - c1 b2 a3
POTENTIAL: Terms = (
    (1, ("c3", "b2", "a1")),
    (-1, ("c2", "b3", "a1")),
    (1, ("c1", "b3", "a2")),
    (-1, ("c3", "b1", "a2")),
    (1, ("c2", "b1", "a3")),
    (-1, ("c1", "b2", "a3")),
)


def arrow(name: str) -> Arrow:
    try:
        return _ARROW_BY_NAME[name]
    except KeyError:
        raise InputError(f"unknown arrow name {name!r}") from None


def arrow_index(name: str) -> int:
    return int(name[1])


def word_endpoints(word: Word) -> tuple[int, int]:
    """(source, target) vertex of a path word; raises if letters do not compose."""
    for cur, nxt in zip(word, word[1:]):
        if arrow(nxt).target != arrow(cur).source:
            raise InputError(f"word {word} is not composable at {cur}*{nxt}")
    return arrow(word[-1]).source, arrow(word[0]).target


def _build_epsilon(potential: Terms) -> dict[tuple[int, int, int], int]:
    # The alternating sign table is read off the six signed terms of W once.
    eps: dict[tuple[int, int, int], int] = {}
    for coeff, (ck, bj, ai) in potential:
        eps[(arrow_index(ai), arrow_index(bj), arrow_index(ck))] = coeff
    return eps


_EPSILON = _build_epsilon(POTENTIAL)
# The sign table: the six (i, j, k, sign) with sign = epsilon(i, j, k) nonzero,
# in lexicographic order.  The Ext differentials (``homalg``), and with them
# the Koszul maps of ``windows``, are read off it; arrow a_i is
# ARROW_ORDER[i - 1], b_j is ARROW_ORDER[j + 2] and c_k is ARROW_ORDER[k + 5].
CYCLES = tuple(sorted(key + (e,) for key, e in _EPSILON.items()))


def epsilon(i: int, j: int, k: int) -> int:
    """Sign of the cycle c_k b_j a_i in the potential; 0 off the alternating support."""
    return _EPSILON.get((i, j, k), 0)


def cyclic_derivative(potential: Terms, arrow_name: str) -> Terms:
    """Rotate each cycle of the potential so the chosen arrow comes last, then delete it."""
    arrow(arrow_name)
    out = []
    for coeff, word in potential:
        if arrow_name not in word:
            continue
        idx = word.index(arrow_name)
        out.append((coeff, word[idx + 1:] + word[:idx]))
    return tuple(out)


def _validated_relations(potential: Terms) -> tuple[tuple[str, Terms], ...]:
    """The cyclic derivatives of ``potential``, one per arrow in arrow order,
    after checking that every potential term is a cycle and every relation is
    homogeneous."""
    for _, word in potential:
        src, tgt = word_endpoints(word)
        if src != tgt:
            raise InternalCheckError(f"potential term {word} is not a cycle")
    relations = tuple((f"rel_{name}", cyclic_derivative(potential, name)) for name in ARROW_ORDER)
    for label, terms in relations:
        ends = {word_endpoints(word) for _, word in terms}
        if len(ends) > 1:
            raise InternalCheckError(f"relation {label} is not homogeneous: {ends}")
    return relations


# The Jacobi algebra has every arrow and the nine relations.  The plane
# algebra (Beilinson's) is its quotient by the c arrows: the a and b arrows,
# with the three c-derivative relations, RELATIONS[6:], as its relations.
RELATIONS = _validated_relations(POTENTIAL)
PLANE_ARROWS = _ARROWS[:6]

assert len(RELATIONS) == 9 and all(a.name[0] != "c" for a in PLANE_ARROWS)
# check_relations reads every relation as a sum of paths of two arrows with unit signs.
assert all(sign in (1, -1) and len(word) == 2 for _, t in RELATIONS for sign, word in t)


def matrix_shape(arrow_name: str, dims: Sequence[int]) -> tuple[int, int]:
    """Shape of the arrow matrix under the precomposition convention."""
    a = arrow(arrow_name)
    return dims[a.source], dims[a.target]


class RelationCheck(NamedTuple):
    ok: bool
    violated: tuple[str, ...]


@dataclass(frozen=True)
class Representation:
    """A finite-dimensional module of the Jacobi algebra in a heart, or of the
    plane algebra when ``heart`` is None.  ``matrices`` maps every arrow of
    its algebra, in arrow order, to its matrix and is read-only."""

    heart: int | None
    dims: tuple[int, int, int]
    matrices: Mapping[str, Mat]
    label: str | None = None

    @cached_property
    def denominator(self) -> int:
        """The lcm of the denominators of the arrow entries (1 when all are ints)."""
        return lcm(*[x.denominator for m in self.matrices.values() for row in m.sparse
                     for x in row.values()])

    def arrows_over(self, d: int) -> tuple[int, tuple[Mat, ...]]:
        """The largest |entry| (0 if none) and the arrow matrices times ``d``, a multiple of
        ``denominator``, as ints, made once per d: at d = 1, int matrices are kept as they are.
        Every Ext differential entry is ± an entry of its two modules' scaled arrows, so the
        larger of their bounds bounds it."""
        memo = self.__dict__.setdefault("_arrows_over", {})
        if d not in memo:
            mats = tuple(self.matrices.values())
            if d != 1 or any(type(x) is not int for m in mats for row in m.sparse
                             for x in row.values()):
                mats = tuple(cleared(m, d) for m in mats)
            memo[d] = max((abs(x) for m in mats for row in m.sparse for x in row.values()),
                          default=0), mats
        return memo[d]


def _coerce_matrices(arrows: Sequence[Arrow], dims: Sequence[int],
                     matrices: Mapping[str, Mat]) -> Mapping[str, Mat]:
    out = {}
    for a in arrows:
        shape = dims[a.source], dims[a.target]
        m = matrices.get(a.name)
        if m is None:
            m = Mat.zeros(*shape)
        if (m.rows, m.cols) != shape:
            raise ShapeError(
                f"matrix {a.name} has shape {m.rows}x{m.cols}, expected {shape[0]}x{shape[1]}"
            )
        out[a.name] = m
    unknown = set(matrices) - set(out)
    if unknown:
        raise InputError(f"unexpected arrow names: {sorted(unknown)}")
    return MappingProxyType(out)


def _exact_int(value, what: str) -> int:
    """``value`` when it is an int, else ``InputError``: the one check of every
    heart, dims entry, degree and vertex, from a record or a library call.
    int() would read "2" and truncate 1.5, and a bool is an int."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _dims(dims: Sequence[int]) -> tuple[int, int, int]:
    dims = tuple(_exact_int(d, "dims entry") for d in dims)
    if len(dims) != 3 or any(d < 0 for d in dims):
        raise InputError(f"dims must be three nonnegative integers, got {dims}")
    if any(d > MAX_DIM for d in dims):
        raise InputError(f"dims entries must not exceed the size bound {MAX_DIM}")
    return dims


def representation(heart: int | None, dims: Sequence[int],
                   matrices: Mapping[str, Mat] | None = None,
                   label: str | None = None) -> Representation:
    """A module in ``heart``, or a plane module when ``heart`` is None, whose
    arrows are then the a and b arrows alone; missing arrows act by zero."""
    dims = _dims(dims)
    heart = None if heart is None else _exact_int(heart, "heart")
    arrows = _ARROWS if heart is not None else PLANE_ARROWS
    return Representation(heart, dims, _coerce_matrices(arrows, dims, matrices or {}), label)


def check_relations(rep: Representation) -> RelationCheck:
    """Evaluate every defining relation of the module's algebra exactly: the
    nine of ``RELATIONS``, or the last three for a plane module.

    A relation is a signed sum of paths of two arrows; the word (u, v)
    traverses v first and acts by M_v @ M_u.  The sum is tested by
    ``sum_of_products_is_zero``, which builds no product.
    """
    mats = rep.matrices
    relations = RELATIONS if rep.heart is not None else RELATIONS[6:]
    violated = tuple(lab for lab, terms in relations if not sum_of_products_is_zero(
        [(sign, mats[v], mats[u]) for sign, (u, v) in terms]))
    return RelationCheck(not violated, violated)


def require_valid(rep: Representation, context: str) -> Representation:
    """Postcondition of every constructor and twist: all relations hold, else an internal error."""
    chk = check_relations(rep)
    if not chk.ok:
        raise InternalCheckError(f"{context}: relations violated: {chk.violated}")
    return rep


# ---------------------------------------------------------------------------
# constructor library


def point_module(coords: Sequence, t=0, heart: int = 0, label: str | None = None) -> Representation:
    """Skyscraper module of a chart point: 1-dimensional in every slot.

    The first nonzero homogeneous coordinate is scaled to 1 so equality of
    point modules is decidable; t is the fiber coordinate in that chart.
    """
    p = [Fraction(x) for x in coords]
    if len(p) != 3:
        raise InputError("a plane point needs three homogeneous coordinates")
    pivot = next((x for x in p if x), None)
    if pivot is None:
        raise InputError("(0:0:0) is not a projective point")
    p = [_bounded(x / pivot, "normalized point coordinate") for x in p]
    t = Fraction(t)
    mats = {}
    for i in (1, 2, 3):
        mats[f"a{i}"] = Mat.from_rows([[p[i - 1]]])
        mats[f"b{i}"] = Mat.from_rows([[p[i - 1]]])
        mats[f"c{i}"] = Mat.from_rows([[_bounded(t * p[i - 1], "fiber coordinate times point")]])
    if label is None:
        label = f"point ({p[0]}:{p[1]}:{p[2]}) t={t} heart={heart}"
    return require_valid(representation(heart, (1, 1, 1), mats, label), "point_module")


def h0(m: int) -> int:
    """Dimension of the space of degree-m forms in three variables."""
    return (m + 1) * (m + 2) // 2 if m >= 0 else 0


def monomial_basis(m: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples of degree m, degree-lexicographic (x0 first)."""
    if m < 0:
        return ()
    triples = [(e0, e1, m - e0 - e1) for e0 in range(m, -1, -1) for e1 in range(m - e0, -1, -1)]
    return tuple(sorted(triples, reverse=True))


def multiplication_matrix(i: int, m: int) -> Mat:
    """Matrix of multiplication by the i-th coordinate, degree m -> m+1 forms."""
    src = monomial_basis(m)
    dst = monomial_basis(m + 1)
    index = {mono: r for r, mono in enumerate(dst)}
    rows: list[dict[int, int]] = [{} for _ in dst]
    for c, mono in enumerate(src):
        bumped = list(mono)
        bumped[i - 1] += 1
        rows[index[tuple(bumped)]][c] = 1
    return Mat(len(dst), len(src), tuple(rows))


def pushforward_module(d: int, heart: int = 0, label: str | None = None) -> Representation:
    """Window module of the degree-d line bundle pushed forward from the zero section.

    Valid window range is 0 <= heart <= d; outside it some slot acquires
    higher cohomology (or leaves the supported constructor range below 0).
    """
    _exact_int(d, "degree")
    _exact_int(heart, "heart")
    if d < 0:
        raise HeartRangeError(f"degree must be nonnegative, got {d}")
    if heart > d:
        raise HeartRangeError(
            f"heart {heart} > degree {d}: slot {heart + 2} sees degree {d - heart - 2} <= -3, "
            "which has nonvanishing top cohomology"
        )
    if heart < 0:
        raise HeartRangeError(
            f"heart {heart} < 0: below the supported window range 0..{d} for this constructor"
        )
    # Checked before any matrix is built: h0 grows quadratically in the degree.
    dims = _dims((h0(d - heart), h0(d - heart - 1), h0(d - heart - 2)))
    mats = {}
    for i in (1, 2, 3):
        mats[f"a{i}"] = multiplication_matrix(i, d - heart - 1)
        mats[f"b{i}"] = multiplication_matrix(i, d - heart - 2)
        # The fiber coordinate acts by zero on the zero section.
    if label is None:
        label = f"pushforward O({d}) heart={heart}"
    return require_valid(representation(heart, dims, mats, label), "pushforward_module")


def simple_module(vertex: int, heart: int = 0, label: str | None = None) -> Representation:
    if _exact_int(vertex, "vertex") not in VERTICES:
        raise InputError(f"vertex must be 0, 1 or 2, got {vertex}")
    dims = tuple(1 if v == vertex else 0 for v in VERTICES)
    if label is None:
        label = f"simple S{vertex} heart={heart}"
    return representation(heart, dims, {}, label)


def zero_module(heart: int = 0) -> Representation:
    return representation(heart, (0, 0, 0), {}, "zero")


def direct_sum(a: Representation, b: Representation, label: str | None = None) -> Representation:
    if a.heart != b.heart:
        raise HeartMismatchError(f"direct sum across hearts {a.heart} != {b.heart}")
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    mats = {name: block_diag(m, b.matrices[name]) for name, m in a.matrices.items()}
    if label is None:
        label = f"({a.label}) + ({b.label})"
    return representation(a.heart, dims, mats, label)


def p2_restrict(rep: Representation) -> Representation:
    """Forget the c-action and the heart; dims and a, b matrices are kept exactly."""
    mats = {a.name: rep.matrices[a.name] for a in PLANE_ARROWS}
    return representation(None, rep.dims, mats, rep.label)


# ---------------------------------------------------------------------------
# intertwiners


# A term space is a tuple of blocks (label, r, c), the block of matrices
# Hom(M_c, N_r) from slot c of M to slot r of N.  d0, the intertwiner defect
# phi_src . M_a - N_a . phi_tgt on arrow block a, is a table of BlockMap terms
# (out block, in block, arrow, left with N or right with M, sign), two per
# arrow in arrow order, so the plane side, whose arrows are the first six,
# takes the first twelve.  It is also the d0 of both Ext complexes
# (``homalg.EXT_TABLES``).  It is checked once, here, by ``term_table``: an
# arrow's source and target differ, so no (out, in) block pair repeats.
VERTEX_SPACE = tuple((f"v{v}", v, v) for v in VERTICES)
ARROW_SPACE = tuple((a.name, a.source, a.target) for a in _ARROWS)
D0_TERMS = term_table(ARROW_SPACE, VERTEX_SPACE, ARROW_SPACE,
                      [term for x, a in enumerate(_ARROWS)
                       for term in ((x, a.source, x, False, 1), (x, a.target, x, True, -1))])


def intertwiner_matrix(m: Representation, n: Representation) -> Mat:
    """Constraint matrix of phi_src . alpha_M - alpha_N . phi_tgt over the arrows of m and n,
    two modules with a heart or two plane modules (``InputError`` otherwise).

    It is d0 of the Ext complex of their algebra, so its compiled plan is
    read from the plan memo of ``homalg`` (imported here, since ``homalg``
    imports this module)."""
    from .homalg import d0_plan

    plane = m.heart is None
    if plane != (n.heart is None):
        raise InputError(f"intertwiners need two modules with a heart or two plane modules, "
                         f"got hearts {m.heart} and {n.heart}")
    return BlockMap(d0_plan(plane, m.dims, n.dims), tuple(n.matrices.values()),
                    tuple(m.matrices.values())).matrix()


class HomSpace(NamedTuple):
    dim: int
    basis: tuple[tuple[Mat, Mat, Mat], ...]


def hom_space(m: Representation, n: Representation) -> HomSpace:
    """Dimension and basis of the intertwiner space Hom(m, n)."""
    if m.heart != n.heart:
        raise HeartMismatchError(f"hom across hearts {m.heart} != {n.heart}")
    system = intertwiner_matrix(m, n)
    kernel, _ = nullspace(system)
    # A kernel vector is phi flattened block by block, each block row-major:
    # entry k is entry (i, j) of block b.
    shapes = [(n.dims[v], m.dims[v]) for v in VERTICES]
    where = [(b, i, j) for b, (r, c) in enumerate(shapes) for i in range(r) for j in range(c)]
    basis = []
    for vec in kernel.transpose().sparse:
        blocks = [[{} for _ in range(r)] for r, _ in shapes]
        for k, x in vec.items():
            b, i, j = where[k]
            blocks[b][i][j] = x
        basis.append(tuple(Mat(r, c, tuple(rows)) for (r, c), rows in zip(shapes, blocks)))
    return HomSpace(kernel.cols, tuple(basis))


# ---------------------------------------------------------------------------
# JSON interchange


def _matrices_to_json(matrices: Mapping[str, Mat]) -> dict:
    return {name: [str(x) for row in m.data for x in row] for name, m in matrices.items()}


# Every accepted value must be writable again, and the interpreter prints no
# int of more than 4300 digits, so no numerator or denominator may reach
# 10**4300.  Fraction(str) expands a decimal exponent in full ("1e5000000"
# takes seconds), so the exponent is bounded before the value is parsed.
_MAX_DIGITS = 4300
_DIGIT_BOUND = 10 ** _MAX_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
# The entries the constructors write ("0", "1", "-1") are ASCII integers,
# which int() reads exactly as Fraction(str) would, at a tenth of the cost.
_INTEGER = re.compile(r"-?[0-9]+")


def _bounded(x: Scalar, what: str) -> Scalar:
    """``x`` itself when its numerator and denominator have at most 4300 digits."""
    if abs(x.numerator) >= _DIGIT_BOUND or x.denominator >= _DIGIT_BOUND:
        raise InputError(f"bad {what}: more than {_MAX_DIGITS} digits")
    return x


def parse_scalar(value, what: str) -> Scalar:
    """The one entry rule for records and argv: an exact value that can be written back."""
    try:
        if isinstance(value, str) and _INTEGER.fullmatch(value):
            x = int(value)
        else:
            e = _EXPONENT.search(value) if isinstance(value, str) else None
            if e and abs(int(e[1])) > _MAX_DIGITS:
                raise ValueError(f"decimal exponent beyond {_MAX_DIGITS} in magnitude")
            x = scalar(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise InputError(f"bad {what}: {exc}") from exc
    return _bounded(x, what)


def _matrix_from_json(name: str, flat: Sequence[str], dims: Sequence[int]) -> Mat:
    rows, cols = matrix_shape(name, dims)
    if not isinstance(flat, (list, tuple)):
        raise InputError(f"matrix {name}: expected a list of entries, got {flat!r}")
    if len(flat) != rows * cols:
        raise ShapeError(f"matrix {name}: expected {rows * cols} entries, got {len(flat)}")
    what = f"entry of matrix {name}"
    sparse = []
    for i in range(rows):
        row = {}
        for j, text in enumerate(flat[i * cols:(i + 1) * cols]):
            x = parse_scalar(text, what)
            if x:
                row[j] = x
        sparse.append(row)
    return Mat(rows, cols, tuple(sparse))


def rep_to_dict(rep: Representation) -> dict:
    out: dict = {}
    if rep.heart is not None:
        out["heart"] = rep.heart
    out["dims"] = list(rep.dims)
    out["matrices"] = _matrices_to_json(rep.matrices)
    out["label"] = rep.label
    return out


def rep_from_dict(data: Mapping) -> Representation:
    try:
        dims = tuple(_exact_int(x, "dims entry") for x in data["dims"])
        raw = data["matrices"]
        label = data.get("label")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed representation record: {exc}") from exc
    if not isinstance(raw, Mapping):
        raise InputError(f"matrices must map arrow names to entry lists, got {raw!r}")
    # The matrix shapes are read off the dims, so they are checked first.
    dims = _dims(dims)
    # An unknown name is refused by matrix_shape, a c arrow of a plane record
    # by representation.
    mats = {name: _matrix_from_json(name, raw[name], dims) for name in raw}
    heart = _exact_int(data["heart"], "heart") if "heart" in data else None
    return representation(heart, dims, mats, label)


def dumps_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, for a
    payload of dicts with str keys, lists, tuples, strs, ints, bools and None.

    Every report and record the package writes comes from here.  Anything
    else, a float, a ``Fraction`` or a set among them, and any non-str key
    raise ``TypeError``, so no float reaches an output.  The standard library
    runs an indented dump through its pure-Python encoder; this writer makes
    one list of chunks and joins it once, and escapes strings with the same
    ``encode_basestring_ascii``.
    """
    chunks: list[str] = []
    _write_json(obj, chunks.append, "\n")
    return "".join(chunks)


def _write_json(obj, write, newline: str) -> None:
    t = type(obj)
    if t is str:
        write(_escape(obj))
    elif t is int:
        write(repr(obj))
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            write(sep + _escape(key) + ": ")
            _write_json(value, write, inner)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            # A record's entry lists hold thousands of strs: no call for each.
            t = type(value)
            if t is str:
                write(sep + _escape(value))
            elif t is int:
                write(sep + repr(value))
            else:
                write(sep)
                _write_json(value, write, inner)
            sep = "," + inner
        write(newline + "]")
    elif obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def dumps_rep(rep: Representation) -> str:
    return dumps_json(rep_to_dict(rep)) + "\n"


def loads_rep(text: str) -> Representation:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also integer literals beyond the digit limit
        raise InputError(f"invalid JSON: {exc}") from exc
    return rep_from_dict(data)
