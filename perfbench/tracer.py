"""Outside-in tracer: wraps quotlat's public functions from the benchmark's side.

`Tracer.install()` replaces each function named in `LAYERS` with a wrapper in
every loaded quotlat module that holds a reference to it, so names bound by
`from .x import f` (for example `cli.verify_scenario` or
`normality.weight_lookup`) are traced too.  Methods and the constructor of
`PrimeOrderAction` are wrapped on their class.  Each call records a span
(name, start, end, parent) in memory; `summary()` turns the spans into calls,
total time and self time per layer, where self time is the span's duration
minus the part covered by its child spans.  A layer that cannot be found
raises `LayerMissing`, so a rename fails the traced run instead of reading as
zero seconds.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer name -> (module, class or None, attribute); metric names start with a
# letter or digit, so the private module _linalg appears as linalg
LAYERS = {
    "hilb2_ring.h4_gram": ("quotlat.hilb2_ring", "HilbertSquare", "h4_gram"),
    "hilb2_ring.pair_h4": ("quotlat.hilb2_ring", "HilbertSquare", "pair_h4"),
    "hilb2_ring.s_lattice_gram": ("quotlat.hilb2_ring", None, "s_lattice_gram"),
    "scenario.load_catalog": ("quotlat.scenario", None, "load_catalog"),
    "scenario.load_scenario": ("quotlat.scenario", None, "load_scenario"),
    "scenario.verify_scenario": ("quotlat.scenario", None, "verify_scenario"),
    "scenario.run_normality": ("quotlat.scenario", None, "run_normality"),
    "toric_weight.weight_dim2": ("quotlat.toric_weight", None, "weight_dim2"),
    "toric_weight.weight_lookup": ("quotlat.toric_weight", None, "weight_lookup"),
    "gmodule.PrimeOrderAction": ("quotlat.gmodule", "PrimeOrderAction", "__init__"),
    "gmodule.sym2_action": ("quotlat.gmodule", None, "sym2_action"),
    "gmodule.jordan_profile": ("quotlat.gmodule", None, "jordan_profile"),
    "linalg.mat_mul": ("quotlat._linalg", None, "mat_mul"),
    "linalg.rank_mod_p": ("quotlat._linalg", None, "rank_mod_p"),
    "linalg.rank_rational": ("quotlat._linalg", None, "rank_rational"),
    "linalg.solve_in_rowspan": ("quotlat._linalg", None, "solve_in_rowspan"),
    "linalg.smith_normal_form": ("quotlat._linalg", None, "smith_normal_form"),
    "linalg.det_bareiss": ("quotlat._linalg", None, "det_bareiss"),
    "linalg.kernel_basis": ("quotlat._linalg", None, "kernel_basis"),
    "lattice_core.invariant_summary": ("quotlat.lattice_core", None, "invariant_summary"),
    "lattice_core.discriminant_group": ("quotlat.lattice_core", None, "discriminant_group"),
    "quotient_lattice.bb_quotient": ("quotlat.quotient_lattice", None, "bb_quotient"),
    "quotient_lattice.quotient_middle_lattice": ("quotlat.quotient_lattice", None, "quotient_middle_lattice"),
    "quotient_lattice.lattices_match": ("quotlat.quotient_lattice", None, "lattices_match"),
    "quotient_lattice.find_glue": ("quotlat.quotient_lattice", None, "find_glue"),
    "normality.check_surface": ("quotlat.normality", None, "check_surface"),
    "normality.check_theorem_main": ("quotlat.normality", None, "check_theorem_main"),
    "normality.check_th3": ("quotlat.normality", None, "check_th3"),
    "normality.check_maintori": ("quotlat.normality", None, "check_maintori"),
    "normality.check_simple_criteria": ("quotlat.normality", None, "check_simple_criteria"),
}

# The bundled catalog rows, in file order; one per-row metric each.
ROWS = (
    "Y2", "Y3", "Y5", "Y7", "Z3", "Z5", "Z7", "Z11", "Z17", "Z19",
    "Abar", "Mprime", "M3", "M5", "M11a", "M11b", "NS3", "CE2",
)

# Count-valued statistics that must repeat exactly between two traced runs
# of one seed.
EXACT = (
    "linalg.smith_normal_form.max_bits",
    "linalg.mat_mul.mults",
    "hilb2_ring.h4_gram.useful_ratio",
    "toric_weight.weight_dim2.distinct_ratio",
    "scenario.load_scenario.calls",
)


class LayerMissing(RuntimeError):
    """A layer named in LAYERS no longer exists under that name."""


def _dims(a) -> int:
    return max(len(a), len(a[0]) if a else 0)


class Tracer:
    """Spans and counters of the traced calls between install() and uninstall()."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, row label]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.mults = 0
        self.rank_mod_p_max_dim = 0
        self.snf_max_dim = 0
        self.snf_max_bits = 0
        self.h4_builds = 0
        self.h4_cells = 0
        self.dim2_args: set[tuple] = set()

    # ---- per-layer counters, computed outside the timed span ----

    def _after(self, name, args, kwargs, result, fresh):
        if name == "linalg.mat_mul":
            a, b = args[0], args[1]
            if a and b:
                self.mults += len(a) * len(b) * len(b[0])
        elif name == "linalg.rank_mod_p":
            self.rank_mod_p_max_dim = max(self.rank_mod_p_max_dim, _dims(args[0]))
        elif name == "linalg.smith_normal_form":
            self.snf_max_dim = max(self.snf_max_dim, _dims(args[0]))
            bits = max(
                (abs(x).bit_length() for mat in (result.u, result.v) for row in mat for x in row),
                default=0,
            )
            self.snf_max_bits = max(self.snf_max_bits, bits)
        elif name == "hilb2_ring.h4_gram" and fresh:
            size = args[0].h4_rank
            self.h4_builds += 1
            self.h4_cells += size * (size + 1) // 2
        elif name == "toric_weight.weight_dim2":
            call = dict(zip(("p", "q"), args), **kwargs)
            self.dim2_args.add((call["p"], call["q"]))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = self._after
        label_row = name == "scenario.verify_scenario"
        h4 = name == "hilb2_ring.h4_gram"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # the Gram is built only when the instance has no cached copy yet
            fresh = h4 and getattr(args[0], "_h4_gram_cache", None) is None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            if label_row:
                span[4] = args[0].name
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            after(name, args, kwargs, result, fresh)
            return result

        return wrapper

    def install(self) -> None:
        import quotlat  # noqa: F401  (loads every library module)

        for name, (modname, owner, attr) in LAYERS.items():
            module = importlib.import_module(modname)
            holder = module if owner is None else getattr(module, owner, None)
            original = getattr(holder, attr, None)
            if holder is None or original is None:
                raise LayerMissing(f"{name}: {modname}.{owner + '.' if owner else ''}{attr} not found")
            wrapper = self._wrap(name, original)
            if owner is not None:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)
                continue
            for mod in [m for k, m in sys.modules.items() if k == "quotlat" or k.startswith("quotlat.")]:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # ---- aggregation ----

    def summary(self) -> dict:
        """Per-layer calls/total/self and counters; merge() adds summaries."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s[3] >= 0:
                children.setdefault(s[3], []).append((s[1], s[2]))
        layers = {name: [0, 0.0, 0.0] for name in LAYERS}
        rows = {row: 0.0 for row in ROWS}
        for i, (name, start, end, parent, row) in enumerate(self.spans):
            dur = end - start
            covered = 0.0
            reach = start
            for cs, ce in sorted(children.get(i, ())):
                cs = max(cs, reach)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            stat = layers[name]
            stat[0] += 1
            stat[2] += dur - covered
            # total time counts only the outermost span of a recursive layer
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                stat[1] += dur
                if row is not None:
                    rows[row] = rows.get(row, 0.0) + dur
        return {
            "layers": layers,
            "rows": rows,
            "mults": self.mults,
            "rank_mod_p_max_dim": self.rank_mod_p_max_dim,
            "snf_max_dim": self.snf_max_dim,
            "snf_max_bits": self.snf_max_bits,
            "h4_builds": self.h4_builds,
            "h4_cells": self.h4_cells,
            "dim2_distinct": len(self.dim2_args),
        }


def merge(total: dict, part: dict) -> dict:
    """Add the summary of one op into a running total (start from Tracer().summary())."""
    for name, stat in part["layers"].items():
        acc = total["layers"].setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += stat[i]
    for row, t in part["rows"].items():
        total["rows"][row] = total["rows"].get(row, 0.0) + t
    for key in ("mults", "h4_builds", "h4_cells", "dim2_distinct"):
        total[key] += part[key]
    for key in ("rank_mod_p_max_dim", "snf_max_dim", "snf_max_bits"):
        total[key] = max(total[key], part[key])
    return total


def layer_metrics(total: dict, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics by name, as (value, unit)."""
    lay = total["layers"]
    out: dict[str, tuple[float, str]] = {}

    def put(layer, *stats):
        calls, tot, self_s = lay[layer]
        for stat in stats:
            out[f"{layer}.{stat}"] = {"calls": (calls, "count"), "total_s": (tot, "s"), "self_s": (self_s, "s")}[stat]

    put("hilb2_ring.h4_gram", "calls")
    out["hilb2_ring.h4_gram.builds"] = (total["h4_builds"], "count")
    put("hilb2_ring.h4_gram", "self_s")
    pairs = lay["hilb2_ring.pair_h4"][0]
    cells = total["h4_cells"]
    # pairings requested per Gram cell built; 1.0 when pairings need no Gram
    useful = pairs / cells if cells else (1.0 if pairs else 0.0)
    out["hilb2_ring.h4_gram.useful_ratio"] = (useful, "ratio")
    for layer in ("hilb2_ring.s_lattice_gram", "hilb2_ring.pair_h4"):
        put(layer, "calls", "total_s")
    for layer in ("scenario.load_catalog", "scenario.load_scenario", "scenario.verify_scenario", "scenario.run_normality"):
        put(layer, "calls", "total_s")
    for layer in ("toric_weight.weight_dim2", "toric_weight.weight_lookup"):
        put(layer, "calls", "total_s")
    dim2_calls = lay["toric_weight.weight_dim2"][0]
    out["toric_weight.weight_dim2.distinct_ratio"] = (
        total["dim2_distinct"] / dim2_calls if dim2_calls else 0.0,
        "ratio",
    )
    put("linalg.solve_in_rowspan", "self_s")
    for layer in ("gmodule.PrimeOrderAction", "gmodule.sym2_action", "gmodule.jordan_profile"):
        put(layer, "calls", "total_s", "self_s")
    for layer in ("linalg.mat_mul", "linalg.rank_mod_p", "linalg.rank_rational"):
        put(layer, "calls", "self_s")
    out["linalg.mat_mul.mults"] = (total["mults"], "count")
    out["linalg.rank_mod_p.max_dim"] = (total["rank_mod_p_max_dim"], "count")
    put("linalg.smith_normal_form", "calls", "self_s")
    out["linalg.smith_normal_form.max_dim"] = (total["snf_max_dim"], "count")
    out["linalg.smith_normal_form.max_bits"] = (total["snf_max_bits"], "bits")
    for layer in ("linalg.det_bareiss", "linalg.kernel_basis"):
        put(layer, "calls", "self_s")
    for layer in ("lattice_core.invariant_summary", "lattice_core.discriminant_group"):
        put(layer, "total_s")
    for layer in (
        "quotient_lattice.bb_quotient",
        "quotient_lattice.quotient_middle_lattice",
        "quotient_lattice.lattices_match",
        "quotient_lattice.find_glue",
        "normality.check_surface",
        "normality.check_theorem_main",
        "normality.check_th3",
        "normality.check_maintori",
        "normality.check_simple_criteria",
    ):
        put(layer, "total_s")
    for row in ROWS:
        out[f"scenario.verify_scenario.{row}.total_s"] = (total["rows"].get(row, 0.0), "s")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
