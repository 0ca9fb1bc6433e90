"""Outside-in layer tracer for localp2.

The tracer edits no file of the package.  It replaces each traced function at
every module attribute that holds it (``linalg.rank``, ``homalg.rank`` and
``windows.rank`` are one function looked up through three modules), and
traced methods on their class, so every call a caller makes through those
names opens a span.  A span's self time is its duration minus the time of the
spans opened inside it, and it is added to exactly one layer metric; the
layer self times therefore sum to no more than the traced wall time.  Counter
hooks run after their span has closed and their cost is charged to no layer.

A target that no longer exists is skipped.  A metric all of whose targets are
missing, or whose counter hook cannot read its input, is reported in
``absent`` and left out of ``metrics()`` instead of being reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "localp2"


@dataclass(frozen=True, eq=False)
class Layer:
    """One group of traced targets.

    ``metric`` names the self-time metric, or maps a call's arguments to one
    of ``choices``.  ``count`` is incremented on each outermost call into this
    layer (a call not nested inside another call of the same layer).
    ``hook`` runs after each outermost call that returned and writes the
    metrics in ``extra``.
    """

    metric: str | Callable[[tuple, dict], str]
    targets: tuple[str, ...]
    count: str | None = None
    hook: Callable | None = None
    extra: tuple[str, ...] = ()
    choices: tuple[str, ...] = ()

    def metrics(self) -> tuple[str, ...]:
        own = (self.metric,) if isinstance(self.metric, str) else self.choices
        return own + ((self.count,) if self.count else ()) + self.extra


def _rank_metric(args: tuple, kwargs: dict) -> str:
    scalars = args[1] if len(args) > 1 else kwargs.get("scalars")
    return "linalg.rank_prime_s" if getattr(scalars, "p", None) else "linalg.rank_rational_s"


def _rank_stats(tracer: "Tracer", args, kwargs, result, self_time: float) -> None:
    m = args[0]
    # Dense rows share one zero object, so tuple.count and the id-keyed dict
    # below run in C; other zero objects still compare equal and are skipped.
    zero = type(m).zeros(1, 1).data[0][0]
    nnz = bits = 0
    for row in m.data:
        k = len(row) - row.count(zero)
        if k:
            nnz += k
            for x in dict(zip(map(id, row), row)).values():
                if x:
                    bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    tracer.add("linalg.rank_entries", m.rows * m.cols)
    tracer.add("linalg.rank_nnz", nnz)
    tracer.add("linalg.rank_pivots", int(result))
    tracer.peak("linalg.rank_max_entry_bits", bits)


def _elim_entries(tracer: "Tracer", args, kwargs, result, self_time: float) -> None:
    # coords_in_colspace(basis, vectors) eliminates [basis | vectors]; the
    # others eliminate their single matrix argument.
    tracer.add("linalg.elim_entries", sum(a.rows * a.cols for a in args))


def _dd_check(tracer: "Tracer", args, kwargs, result, self_time: float) -> None:
    # Every product taken while an Ext complex is being built is its d.d = 0 check.
    if tracer.depth[BUILD]:
        tracer.add("homalg.dd_check_s", self_time)


def _cells(tracer: "Tracer", args, kwargs, result, self_time: float) -> None:
    cells = result["cells"]
    tracer.add("corpus.cells", len(cells))
    tracer.add("corpus.cells_failed", sum(1 for c in cells if c["status"] != "pass"))


RANK = Layer(_rank_metric, ("linalg.rank",), "linalg.rank_calls", _rank_stats,
             ("linalg.rank_entries", "linalg.rank_nnz", "linalg.rank_pivots",
              "linalg.rank_max_entry_bits"),
             choices=("linalg.rank_rational_s", "linalg.rank_prime_s"))
ELIM = Layer("linalg.elim_s",
             ("linalg.rref", "linalg.nullspace", "linalg.coords_in_colspace",
              "linalg.quotient_projection"),
             "linalg.elim_calls", _elim_entries, ("linalg.elim_entries",))
# matmul_s holds every product; dd_check_s repeats the part taken under a build
# span, so it is a share of matmul_s and not a further layer.
MATMUL = Layer("linalg.matmul_s", ("linalg.Mat.__matmul__",), "linalg.matmul_calls",
               _dd_check, ("homalg.dd_check_s",))
BLOCKMAP = Layer("linalg.blockmap_s",
                 ("linalg.BlockMap.__init__", "linalg.BlockMap.add_left",
                  "linalg.BlockMap.add_right", "linalg.BlockMap.matrix"))
BUILD = Layer("homalg.build_s", ("homalg.build_ext_complex_Y", "homalg.build_ext_complex_P2"),
              "homalg.ext_calls")
CY3 = Layer("homalg.cy3_s", ("homalg.verify_cy3_duality",))
CONSTRUCT = Layer("quiver.construct_s",
                  ("quiver.representation", "quiver.p2_representation", "quiver.point_module",
                   "quiver.pushforward_module", "quiver.simple_module", "quiver.zero_module",
                   "quiver.direct_sum", "quiver.p2_restrict"))
RELATIONS = Layer("quiver.relations_s", ("quiver.check_relations",))
INTERTWINER = Layer("quiver.intertwiner_s", ("quiver.intertwiner_matrix",))
HOM = Layer("quiver.hom_space_s", ("quiver.hom_space",))
JSON = Layer("quiver.json_s",
             ("quiver.dumps_rep", "quiver.loads_rep", "quiver.rep_to_dict",
              "quiver.rep_from_dict"))
MEMBERSHIP = Layer("windows.membership_s",
                   ("windows.window_membership", "windows.koszul_maps", "windows.down_maps",
                    "windows.window_vector"))
TWIST = Layer("windows.twist_s", ("windows.twist_up", "windows.twist_down"),
              "windows.twist_calls")
VERIFY = Layer("characters.verify_s",
               ("characters.verify_theorem3", "characters.verify_theorem4",
                "characters.verify_square_root", "characters.verify_cocycle"))
REWRITE = Layer("characters.verify_s", ("characters.koszul_rewrite",),
                "characters.rewrite_calls")
CORPUS = Layer("corpus.run_s", ("corpus.run_corpus",), None, _cells,
               ("corpus.cells", "corpus.cells_failed"))
CLI = Layer("cli.main_s", ("cli.main",))

LAYERS = (RANK, ELIM, MATMUL, BLOCKMAP, BUILD, CY3, CONSTRUCT, RELATIONS, INTERTWINER, HOM,
          JSON, MEMBERSHIP, TWIST, VERIFY, REWRITE, CORPUS, CLI)


def _package_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Installs span wrappers on ``install()`` and restores the originals on ``uninstall()``."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(int)
        self.depth: dict[Layer, int] = defaultdict(int)
        self.missing: list[str] = []
        self._unreadable: set[str] = set()
        self._found: set[str] = set()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def add(self, metric: str, amount) -> None:
        self.values[metric] += amount

    def peak(self, metric: str, value) -> None:
        self.values[metric] = max(self.values[metric], value)

    def install(self) -> None:
        modules = _package_modules()
        for layer in LAYERS:
            for target in layer.targets:
                if self._patch(target, layer, modules):
                    self._found.update(layer.metrics())
                else:
                    self.missing.append(target)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    @property
    def absent(self) -> list[str]:
        every = {m for layer in LAYERS for m in layer.metrics()}
        return sorted((every - self._found) | self._unreadable)

    def metrics(self) -> dict[str, float]:
        absent = set(self.absent)
        every = [m for layer in LAYERS for m in layer.metrics()]
        return {m: float(self.values[m]) if m.endswith("_s") else self.values[m]
                for m in dict.fromkeys(every) if m not in absent}

    def self_time_sum(self) -> float:
        """Sum of the layer self times; dd_check_s is a share of matmul_s and is not added."""
        names = {m for layer in LAYERS for m in layer.metrics() if m.endswith("_s")}
        return sum(self.values[m] for m in names - {"homalg.dd_check_s"})

    def _patch(self, target: str, layer: Layer, modules: list) -> bool:
        modname, *path = target.split(".")
        try:
            module = importlib.import_module(f"{PACKAGE}.{modname}")
        except ImportError:
            return False
        if len(path) == 2:
            owner = getattr(module, path[0], None)
            original = vars(owner).get(path[1]) if isinstance(owner, type) else None
            if not callable(original):
                return False
            self._replace(owner, path[1], self._wrap(original, layer))
            return True
        original = getattr(module, path[0], None)
        if not callable(original):
            return False
        wrapper = self._wrap(original, layer)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, name, wrapper)
        return True

    def _replace(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap(self, fn, layer: Layer):
        stack, values, depth = self._stack, self.values, self.depth
        metric, count, hook = layer.metric, layer.count, layer.hook
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = metric if isinstance(metric, str) else metric(args, kwargs)
            outer = not depth[layer]
            if outer and count:
                values[count] += 1
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                depth[layer] -= 1
                stack.pop()
                own = span - frame[0]
                values[name] += own
                if stack:
                    stack[-1][0] += span
            if outer and hook:
                hook_start = clock()
                try:
                    hook(self, args, kwargs, result, own)
                except (AttributeError, TypeError, KeyError, IndexError):
                    self._unreadable.update(layer.extra)
                if stack:
                    stack[-1][0] += clock() - hook_start
            return result

        return traced
