"""Determinant-line characters: formal square roots of det RHom as exponent vectors.

A character assigns to each window symbol D_k (the determinant line of the
k-th window space) an exponent that is an integer linear form in the window
dimensions h_k.  Because exponents stay symbolic, each verified identity is a
proof over all dimension vectors, not a sample test.

Parity convention: the determinant of a complex is the alternating product
of term determinants with +1 in even cohomological degrees.  With this
normalization the character of the plane-side complex reproduces the window
character in heart 0, and the full 4-term character is exactly twice the
window character (the square-root property).  The degree-0 and top-degree
terms are mutually dual and never contribute.

Cocycle bookkeeping uses branch-tagged symbols D_k^(1), D_k^(3) for the sub-
and quotient module and the extension rule D^(2) = D^(1) + D^(3).

A character is one sparse integer map on flat keys (symbol branch, symbol
index, variable branch, variable index), (..., None, None) for the constant
term, so each read or write hashes one flat tuple once; exponents are grouped
per symbol only to be rendered (``format_form``) or evaluated.  The Koszul
rewrite and the extension rule each make one direct pass over the flat keys
and build no substitution map: a key whose symbol index or variable index is
the eliminated one (for the extension rule: whose branch is the whole) has
that part replaced by the relation's terms, both parts when both match, and
every other key is carried over as it is.

The characters of the two complexes are read off the very term spaces whose
ranks ``homalg`` computes (``homalg.EXT_TABLES``): each degree's blocks are
grouped by (slot_M, slot_N) with their multiplicity once, at import.  The
tests check these layouts against literal tables and their alternating
pairings against the closed-form Euler forms.  A complex's character reads
one net table, its layout's degrees folded into (slot_M, slot_N) -> sum of
parity times multiplicity, also made once, at import.

The verifiers build and compare every heart of their range exactly; what is
saved is per-key work.  Each operation makes one pass over its keys into one
new dict, building each output key once (the cocycle's two differences are one
sum); a result is copied only to drop a zero, and ``char_diff`` returns at
once when the maps are equal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import InputError, MissingVariableError
from .homalg import EXT_TABLES
from .linalg import MAX_DIM

Branch = str | None
Var = tuple[Branch, int]
# A character key: (symbol branch, index, variable branch, index or None for the constant).
Key = tuple[Branch, int, Branch, int | None]


def _vkey(v: Var):
    return (v[0] or "", v[1])


def _as_var(key) -> Var:
    if isinstance(key, tuple):
        return key
    return (None, int(key))


def format_var(v: Var, letter: str = "h") -> str:
    branch, k = v
    tag = f"^({branch})" if branch is not None else ""
    return f"{letter}{k}{tag}"


def format_form(form: Mapping[Var | None, int]) -> str:
    """Render one exponent ``{variable or None (constant): coefficient}``, constant last."""
    parts = []
    for v in sorted((v for v, c in form.items() if c and v is not None), key=_vkey):
        c, name = form[v], format_var(v)
        parts.append(name if c == 1 else f"-{name}" if c == -1 else f"{c}*{name}")
    if form.get(None):
        parts.append(str(form[None]))
    if not parts:
        return "0"
    out = parts[0]
    for frag in parts[1:]:
        out += f" - {frag[1:]}" if frag.startswith("-") else f" + {frag}"
    return out


@dataclass(frozen=True)
class DetCharacter:
    """Finite-support map from window symbols D_k to integer linear-form exponents.

    Stored flat: ``coeffs[(sb, sk, vb, vk)]`` is the coefficient of variable
    (vb, vk) in the exponent of symbol (sb, sk), with (sb, sk, None, None) for
    the constant term; the constructor refuses a key that is not a flat
    4-tuple, or whose variable index is None but whose variable branch is
    not.  Zero coefficients are dropped once, when a character is built; the
    dict is never mutated afterwards.
    """

    coeffs: Mapping[Key, int] = field(default_factory=dict)

    def __post_init__(self):
        for k in self.coeffs:
            if not isinstance(k, tuple) or len(k) != 4:
                raise InputError(f"a character key is a flat 4-tuple, got {k!r}")
            if k[3] is None and k[2] is not None:
                raise InputError(f"a constant key has variable branch None, got {k!r}")
        object.__setattr__(self, "coeffs", {k: c for k, c in self.coeffs.items() if c})

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def forms(self) -> dict[Var, dict[Var | None, int]]:
        """Each symbol's exponent ``{variable or None (constant): coeff}``, in symbol order."""
        out: dict[Var, dict[Var | None, int]] = {}
        for (sb, sk, vb, vk), c in self.coeffs.items():
            out.setdefault((sb, sk), {})[None if vk is None else (vb, vk)] = c
        return {s: out[s] for s in sorted(out, key=_vkey)}

    def rendered(self) -> dict[str, str]:
        """Display form for reports: ``{"D<k>": "<exponent>"}`` in symbol order."""
        return {format_var(s, "D"): format_form(f) for s, f in self.forms().items()}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "DetCharacter") -> "DetCharacter":
        return _combine(self, 1, other)

    def __neg__(self) -> "DetCharacter":
        return self.scale(-1)

    def __sub__(self, other: "DetCharacter") -> "DetCharacter":
        return _combine(self, -1, other)

    def scale(self, scalar: int) -> "DetCharacter":
        return _fresh({k: scalar * c for k, c in self.coeffs.items()})

    def evaluate(self, assignment: Mapping) -> dict[Var, int]:
        """Substitute integer dimensions into every exponent, in symbol order."""
        values: dict = {_as_var(k): int(x) for k, x in assignment.items()}
        values[None] = 1
        out = {}
        for s, form in self.forms().items():
            missing = [v for v in form if v not in values]
            if missing:
                raise MissingVariableError(f"no value for variable {format_var(missing[0])}")
            out[s] = sum(c * values[v] for v, c in form.items())
        return out


def _fresh(coeffs: dict[Key, int]) -> DetCharacter:
    """A character that takes over ``coeffs``, a dict just built here and held by no one else.

    The public constructor checks and copies its argument; this copies only to drop a zero.
    """
    if 0 in coeffs.values():
        coeffs = {k: c for k, c in coeffs.items() if c}
    return _own(coeffs)


def _own(coeffs: dict[Key, int]) -> DetCharacter:
    """``_fresh`` for a dict known to hold no zero."""
    char = object.__new__(DetCharacter)
    char.__dict__["coeffs"] = coeffs
    return char


def _combine(char: DetCharacter, sign: int, *others: DetCharacter) -> DetCharacter:
    """``char`` plus ``sign`` times each of ``others``, in one new dict that drops cancellations."""
    out = dict(char.coeffs)
    get = out.get
    for other in others:
        for k, c in other.coeffs.items():
            x = get(k, 0) + sign * c
            if x:
                out[k] = x
            else:
                del out[k]
    return _own(out)


def ori_char(heart: int, branch: Branch = None) -> DetCharacter:
    """The window character of the canonical square root in the given heart.

    D_n -> 3(h_{n+2} - h_{n+1}), and cyclically for D_{n+1} and D_{n+2}.
    """
    x, a, b, c = branch, heart, heart + 1, heart + 2
    return _own({(x, a, x, c): 3, (x, a, x, b): -3, (x, b, x, a): 3, (x, b, x, c): -3,
                 (x, c, x, b): 3, (x, c, x, a): -3})


# Koszul relation per direction: (offset of the eliminated index, its replacement).
_KOSZUL = {"up": (0, ((1, 3), (2, -3), (3, 1))), "down": (3, ((0, 1), (1, -3), (2, 3)))}


def koszul_rewrite(char: DetCharacter, k: int, direction: str = "up") -> DetCharacter:
    """Eliminate one window symbol via the 4-term Koszul relation.

    up:   D_k    -> 3 D_{k+1} - 3 D_{k+2} + D_{k+3}
    down: D_{k+3} -> D_k - 3 D_{k+1} + 3 D_{k+2}

    The dimension variable with the same index is rewritten by the identical
    relation inside every exponent form, in every branch and in the same pass.
    """
    if direction not in _KOSZUL:
        raise InputError(f"direction must be 'up' or 'down', got {direction!r}")
    offset, combo = _KOSZUL[direction]
    gone = k + offset
    terms = [(k + j, a) for j, a in combo]
    out: dict[Key, int] = {}
    get = out.get
    for key, c in char.coeffs.items():
        sb, sk, vb, vk = key
        if sk == gone:
            vs = terms if vk == gone else ((vk, 1),)
            for s2, a in terms:
                for v2, b in vs:
                    new = sb, s2, vb, v2
                    out[new] = get(new, 0) + a * b * c
        elif vk == gone:
            for v2, b in terms:
                new = sb, sk, vb, v2
                out[new] = get(new, 0) + b * c
        else:
            out[key] = get(key, 0) + c
    return _fresh(out)


def _layout(spaces) -> tuple:
    """(degree parity, (((slot_M, slot_N), multiplicity), ...)) per degree of a complex.

    A block (label, r, c) of a term space is Hom(M_c, N_r), so it has
    slot_M = c and slot_N = r; blocks with the same slots are counted once
    with their multiplicity.  A block Hom(M_s, N_t) contributes
    det(N_t)^{h^M_s} (x) det(M_s)^{-h^N_t}.
    """
    return tuple(((-1) ** degree, tuple(Counter((c, r) for _, r, c in space).items()))
                 for degree, space in enumerate(spaces))


def _net_blocks(layout) -> tuple[tuple[int, int, int], ...]:
    """(slot_M, slot_N, Σ parity·multiplicity) over the degrees of a layout; zero nets dropped."""
    net: Counter = Counter()
    for parity, blocks in layout:
        for slots, mult in blocks:
            net[slots] += parity * mult
    return tuple((s, t, x) for (s, t), x in net.items() if x)


# The block layouts of the two complexes, read off the Ext term spaces, and
# their net tables, which ``full_complex_char`` and ``geometric_char`` read at
# call time.
_Y_LAYOUT = _layout(EXT_TABLES["y"][0])
_P2_LAYOUT = _layout(EXT_TABLES["p2"][0])
_Y_NET = _net_blocks(_Y_LAYOUT)
_P2_NET = _net_blocks(_P2_LAYOUT)


def _complex_char(net, heart: int, branch_m: Branch, branch_n: Branch) -> DetCharacter:
    """The character of a complex whose net table (``_net_blocks``) is ``net``."""
    out: dict[Key, int] = {}
    get = out.get
    for s, t, x in net:
        m, n = heart + s, heart + t
        key = branch_n, n, branch_m, m
        out[key] = get(key, 0) + x
        key = branch_m, m, branch_n, n
        out[key] = get(key, 0) - x
    return _fresh(out)


def full_complex_char(heart: int, branch_m: Branch = None, branch_n: Branch = None) -> DetCharacter:
    """Alternating determinant character of the 4-term complex for (M, N)."""
    return _complex_char(_Y_NET, heart, branch_m, branch_n)


def geometric_char(heart: int = 0) -> DetCharacter:
    """Determinant character of the plane-side 3-term self-RHom complex."""
    return _complex_char(_P2_NET, heart, None, None)


def expand_extension(char: DetCharacter, whole: str = "2",
                     parts: tuple[str, str] = ("1", "3")) -> DetCharacter:
    """Rewrite branch ``whole`` as the sum of the two part branches (symbols and variables).

    Equal parts give twice the one part: D^(2) -> 2 D^(1).  Each key is
    rewritten once, so a part equal to ``whole`` is not expanded again.
    """
    a, b = parts
    terms = [(a, 2)] if a == b else [(a, 1), (b, 1)]
    out: dict[Key, int] = {}
    get = out.get
    for key, c in char.coeffs.items():
        sb, sk, vb, vk = key
        split_s, split_v = sb == whole, vb == whole and vk is not None
        if not (split_s or split_v):
            out[key] = get(key, 0) + c
            continue
        for b2, x in terms if split_s else ((sb, 1),):
            for b3, y in terms if split_v else ((vb, 1),):
                new = b2, sk, b3, vk
                out[new] = get(new, 0) + x * y * c
    return _fresh(out)


def char_diff(lhs: DetCharacter, rhs: DetCharacter) -> list[dict]:
    """Per-symbol differences, rendered for reports; empty when equal."""
    cl, cr = lhs.coeffs, rhs.coeffs
    if cl == cr:
        return []
    differ = {k[:2] for k in cl.keys() | cr.keys() if cl.get(k, 0) != cr.get(k, 0)}
    if not differ:
        return []
    fl, fr = lhs.forms(), rhs.forms()
    return [{"symbol": format_var(s, "D"), "lhs_form": format_form(fl.get(s, {})),
             "rhs_form": format_form(fr.get(s, {}))} for s in sorted(differ, key=_vkey)]


def _report(identity: str, window: tuple[int, int], diff: list[dict], witness: dict) -> dict:
    return {
        "identity": identity,
        "status": "pass" if not diff else "fail",
        "window": list(window),
        "diff": diff,
        "witness": witness,
    }


def require_hearts(n_min: int, n_max: int, pairs: bool = False) -> None:
    """Refuse a range with no heart (with ``pairs``: no adjacent pair), which
    would pass unchecked, and one of more than ``MAX_DIM`` hearts."""
    if n_max < n_min or (pairs and n_max == n_min):
        raise InputError(f"need n_max {'>' if pairs else '>='} n_min, got [{n_min}, {n_max}]")
    if n_max - n_min >= MAX_DIM:
        raise InputError(f"the range [{n_min}, {n_max}] spans {n_max - n_min + 1} hearts, more "
                         f"than the size bound {MAX_DIM}")


def verify_theorem3(n_min: int = -8, n_max: int = 8) -> dict:
    """Koszul-rewriting the window character of heart n yields the heart n+1 character.

    Coefficient-level equality of the characters for every consecutive pair:
    a proof for all modules lying in the overlapping hearts.
    """
    require_hearts(n_min, n_max, pairs=True)
    witness = {}
    rhs = ori_char(n_min)
    for n in range(n_min, n_max):
        lhs = koszul_rewrite(rhs, n, "up")
        rhs = ori_char(n + 1)
        diff = char_diff(lhs, rhs)
        if diff:
            return _report("theorem3", (n_min, n_max), diff, {"failed_pair": [n, n + 1]})
        if not witness:
            witness = {"pair": [n, n + 1], "character": rhs.rendered()}
    return _report("theorem3", (n_min, n_max), [], witness)


def verify_theorem4(n_min: int = 0, n_max: int = 0) -> dict:
    """The plane-side determinant character equals the heart-0 window character;
    the range is checked as the other identities check theirs, and not used."""
    require_hearts(n_min, n_max)
    lhs = geometric_char(0)
    rhs = ori_char(0)
    diff = char_diff(lhs, rhs)
    return _report("theorem4", (0, 0), diff, {"character": rhs.rendered()})


def verify_square_root(n_min: int = -8, n_max: int = 8) -> dict:
    """The full 4-term character is twice the window character, in every heart checked."""
    require_hearts(n_min, n_max)
    witness = {}
    for n in range(n_min, n_max + 1):
        lhs = full_complex_char(n)
        diff = char_diff(lhs, ori_char(n).scale(2))
        if diff:
            return _report("square-root", (n_min, n_max), diff, {"failed_heart": n})
        witness = witness or {"heart": n_min, "character": lhs.rendered()}
    return _report("square-root", (n_min, n_max), [], witness)


def verify_cocycle(n_min: int = -8, n_max: int = 8) -> dict:
    """Multiplicativity on extensions: the branch-2 character minus the branch
    characters equals the mixed character of the full complex between the
    sub- and quotient branches (a symbolic bilinear identity)."""
    require_hearts(n_min, n_max)
    witness = {}
    for n in range(n_min, n_max + 1):
        lhs = _combine(expand_extension(ori_char(n, "2")), -1, ori_char(n, "1"), ori_char(n, "3"))
        rhs = full_complex_char(n, "1", "3")
        diff = char_diff(lhs, rhs)
        if diff:
            return _report("cocycle", (n_min, n_max), diff, {"failed_heart": n})
        witness = witness or {"heart": n_min, "mixed_character": rhs.rendered()}
    return _report("cocycle", (n_min, n_max), [], witness)


# Identity name -> verifier over hearts (lo, hi); shared by ``localp2 verify``
# and the corpus.  The verifiers are looked up by name at call time, so a
# wrapper installed on a module attribute sees every call.
IDENTITIES: dict[str, Callable[[int, int], dict]] = {
    "theorem3": lambda lo, hi: verify_theorem3(lo, hi),
    "theorem4": lambda lo, hi: verify_theorem4(lo, hi),
    "square-root": lambda lo, hi: verify_square_root(lo, hi),
    "cocycle": lambda lo, hi: verify_cocycle(lo, hi),
}
