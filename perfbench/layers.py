"""Per-layer call counts and self time, from wrappers the benchmark installs.

The library is not edited.  For the length of a traced run each listed
function is replaced by a timing wrapper in every place it is looked up:
its own module, every `ietsaf` module that bound it with
`from .polys import ...`, and every alias on its class
(`AlgNum.__rmul__` is `AlgNum.__mul__`).  Self time is a span's time
minus the time of the wrapped spans it called.

Besides calls and self time, a few counts are taken from outside at the
same boundaries:
  polys.certify_irreducible.hit_ratio  calls that return a prime / calls
  field.bisections                     log2(interval width at construction
                                       / width at job end), summed over fields
  field.bisections_per_sign            field.bisections / AlgNum.sign calls
  iet.compose.kept_ratio               output pieces / n*m piece pairs tested
  iet.rotation_conjugacy.candidates    IET.rotation calls under rotation_conjugacy
"""

from __future__ import annotations

import importlib
import sys
import time

LAYERS = {
    "cli": ("main", "build_parser"),
    "polys": ("sturm_chain", "count_real_roots", "isolate_real_roots",
              "is_squarefree", "poly_xgcd", "Poly.eval_interval",
              "certify_irreducible"),
    "field": ("NumberField.__init__", "NumberField.__eq__", "AlgNum.sign",
              "AlgNum.__mul__", "AlgNum.inverse", "AlgNum.min_poly"),
    "iet": ("IET.__init__", "IET.from_pieces", "IET.compose", "IET.first_return",
            "IET.canonical", "IET.saf", "rotation_conjugacy"),
    "gf2": ("factor", "mul"),
    "certificates": ("vanishing_by_reciprocity", "vanishing_by_field_degree",
                     "nonlift_certificate"),
    "arnoux_yoccoz": ("AYSystem.build", "ay_self_similarity_witness"),
    "ietfile": ("loads_iet", "dumps_iet"),
}

DERIVED_UNITS = {
    "polys.certify_irreducible.hit_ratio": "ratio",
    "field.bisections": "count",
    "field.bisections_per_sign": "ratio",
    "iet.compose.kept_ratio": "ratio",
    "iet.rotation_conjugacy.candidates": "count",
}

CONJUGACY = "iet.rotation_conjugacy"


def targets():
    """(key, owner, attribute, function) for every traced function."""
    out = []
    for module_name, names in LAYERS.items():
        module = importlib.import_module(f"ietsaf.{module_name}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            owner = getattr(module, owner) if owner else module
            function = vars(owner)[attr]
            if isinstance(function, classmethod):
                function = function.__func__
            out.append((f"{module_name}.{name}", owner, attr, function))
    return out


def metric_units():
    """Name -> unit of every per-layer metric."""
    units = {}
    for module_name, names in LAYERS.items():
        for name in names:
            units[f"{module_name}.{name}.calls"] = "count"
            units[f"{module_name}.{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.hits = self.pairs = self.kept = self.candidates = self.bisections = 0
        self._stack = []      # [child seconds, key] for each open span
        self._fields = []     # (field, width at construction) in this job
        self._patches = []    # (owner, attribute, original value)

    # -- installing ------------------------------------------------------------

    def install(self):
        hooks = {
            "polys.certify_irreducible": self._on_certify,
            "field.NumberField.__init__": self._on_field,
            "iet.IET.compose": self._on_compose,
        }
        for key, owner, attr, function in targets():
            self.calls.setdefault(key, 0)
            self.self_s.setdefault(key, 0.0)
            wrapper = self._span(key, function, hooks.get(key))
            self._replace(owner, attr, wrapper)
        iet = importlib.import_module("ietsaf.iet")
        rotation = vars(iet.IET)["rotation"].__func__
        self._replace(iet.IET, "rotation", self._candidate(rotation))

    def _replace(self, owner, attr, wrapper):
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(wrapper)
        if isinstance(owner, type):
            places = [owner]
        else:
            places = [m for name, m in sys.modules.items()
                      if name == "ietsaf" or name.startswith("ietsaf.")]
        for place in places:
            for name, value in list(vars(place).items()):
                if value is original:
                    self._patches.append((place, name, value))
                    setattr(place, name, wrapper)

    def uninstall(self):
        for place, name, value in reversed(self._patches):
            setattr(place, name, value)
        self._patches.clear()

    # -- wrappers --------------------------------------------------------------

    def _span(self, key, function, hook):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[key] += 1
            frame = [0.0, key]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[key] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook:
                hook(args, result)
            return result

        return wrapper

    def _candidate(self, function):
        def wrapper(*args, **kwargs):
            if any(frame[1] == CONJUGACY for frame in self._stack):
                self.candidates += 1
            return function(*args, **kwargs)

        return wrapper

    def _on_certify(self, args, prime):
        self.hits += prime is not None

    def _on_field(self, args, _):
        lo, hi = args[0].interval
        self._fields.append((args[0], hi - lo))

    def _on_compose(self, args, result):
        outer, inner = args[0], args[1]
        self.pairs += outer.n * inner.n
        self.kept += result.n

    # -- jobs and results ------------------------------------------------------

    def begin_job(self):
        self._fields.clear()

    def end_job(self):
        for field, width in self._fields:
            lo, hi = field.interval
            ratio = width / (hi - lo)   # a power of two: bisection halves
            self.bisections += ratio.numerator.bit_length() - ratio.denominator.bit_length()
        self._fields.clear()

    def metrics(self, rounds: int) -> dict:
        """Per-round values of every per-layer metric."""
        out = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key] / rounds
            out[f"{key}.self_s"] = self.self_s[key] / rounds
        sign_calls = self.calls["field.AlgNum.sign"]
        certify_calls = self.calls["polys.certify_irreducible"]
        out["polys.certify_irreducible.hit_ratio"] = (
            self.hits / certify_calls if certify_calls else 0.0)
        out["field.bisections"] = self.bisections / rounds
        out["field.bisections_per_sign"] = (
            self.bisections / sign_calls if sign_calls else 0.0)
        out["iet.compose.kept_ratio"] = self.kept / self.pairs if self.pairs else 0.0
        out["iet.rotation_conjugacy.candidates"] = self.candidates / rounds
        return out
