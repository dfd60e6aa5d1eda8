"""Outside-in tracer: times calls into homcart's public functions.

homcart's modules import each other's functions by name (`from .intmat
import smith_normal_form`), so one function object is bound in several
module namespaces.  `Tracer.install` rebinds every binding of each traced
function, in every loaded `homcart.*` module, to a wrapper that records a
span; `uninstall` restores the originals.  The package source is not
touched, and an untraced run installs nothing.

A span is (name, start, end, cover_end, parent index).  Counters read from
a call's return value are updated between `end` and `cover_end`: that time
is charged to neither the call nor its caller.  Self time is a span's
duration minus the intervals its child spans cover.
"""

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

# module -> public functions (or classes, whose construction is timed)
TRACED = {
    "intmat": ("smith_normal_form", "solve_linear", "cokernel"),
    "modp": ("rref", "kernel", "solve", "diagonalize"),
    "complexes": (
        "homotopic",
        "is_contractible",
        "homology",
        "hom_group",
        "cone",
        "end_structure_mod_p",
        "random_complex",
        "random_chain_map",
    ),
    "triangles": (
        "standard_triangle",
        "rotate",
        "verify_distinguished_with_witness",
        "verify_triangle_morphism",
    ),
    "squares": ("is_homotopy_cartesian", "fits_vertical_iso", "find_compatible_equivalence"),
    "unitlemma": ("find_alpha", "FiniteAlgebra"),
    "suite": ("fuzz_prop2", "prop2_replay", "build_star", "lemma2"),
    "jsonio": ("substitute", "triangle_from_json", "chain_map_from_json"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# counters read from returned objects: name -> unit
COUNTERS = {
    "intmat.smith_normal_form.max_digits": "digits",
    "squares.classes_exhausted": "count",
    "squares.hint_hit_ratio": "ratio",
    "suite.perturbation_accept_ratio": "ratio",
}


def metric_units() -> dict:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    return units


def decimal_digits(n: int) -> int:
    """Exact count without str(), which refuses ints over 4300 digits."""
    n = abs(n)
    if n == 0:
        return 1
    digits = int((n.bit_length() - 1) * math.log10(2)) + 1
    return digits + 1 if 10**digits <= n else digits


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.max_digits = 0
        self.classes_exhausted = 0
        self.yes_verdicts = 0
        self.candidate_yes = 0
        self.perturb_attempted = 0
        self.perturb_accepted = 0
        self._observers = {
            "intmat.smith_normal_form": self._observe_smith,
            "squares.find_compatible_equivalence": self._observe_verdict,
            "suite.fuzz_prop2": self._observe_trial,
        }

    # -- counters read from returned objects

    def _observe_smith(self, snf):
        for m in (snf.u, snf.v):
            if m.array.size:
                self.max_digits = max(self.max_digits, decimal_digits(abs(m.array).max()))

    def _observe_verdict(self, verdict):
        self.classes_exhausted += verdict.exhausted or 0
        if verdict.is_yes:
            self.yes_verdicts += 1
            self.candidate_yes += verdict.details.get("source") == "candidate"

    def _observe_trial(self, trial):
        self.perturb_attempted += trial.perturbation_attempted
        self.perturb_accepted += trial.perturbed

    # -- spans

    def _timed(self, name, observe, fn, args, kwargs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        end = None
        start = clock()
        try:
            result = fn(*args, **kwargs)
            end = clock()
            if observe is not None:
                observe(result)
            return result
        finally:
            cover_end = clock()
            stack.pop()
            spans[idx] = (name, start, cover_end if end is None else end, cover_end, parent)

    def _wrap(self, name, fn):
        observe = self._observers.get(name)
        if inspect.isgeneratorfunction(fn):
            # a generator's work happens in next(): one span per item

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    try:
                        item = self._timed(name, observe, next, (items,), {})
                    except StopIteration:
                        return
                    yield item

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._timed(name, observe, fn, args, kwargs)

        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        loaded = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "homcart" or n.startswith("homcart."))
        ]
        for mod, names in TRACED.items():
            home = sys.modules[f"homcart.{mod}"]
            for fn_name in names:
                name = f"{mod}.{fn_name}"
                orig = getattr(home, fn_name)
                if isinstance(orig, type):
                    init = orig.__dict__["__init__"]
                    self._undo.append((orig, "__init__", init))
                    setattr(orig, "__init__", self._wrap(name, init))
                    continue
                traced = self._wrap(name, orig)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._undo.append((m, attr, orig))
                            setattr(m, attr, traced)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def metrics(self) -> dict:
        """Per-function calls and self time, plus the returned-object counters."""
        covered = [0.0] * len(self.spans)
        for _, start, _, cover_end, parent in self.spans:
            if parent >= 0:
                covered[parent] += cover_end - start
        calls = Counter()
        self_s = defaultdict(float)
        for (name, start, end, _, _), child_time in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += (end - start) - child_time
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["intmat.smith_normal_form.max_digits"] = self.max_digits
        out["squares.classes_exhausted"] = self.classes_exhausted
        out["squares.hint_hit_ratio"] = (
            self.candidate_yes / self.yes_verdicts if self.yes_verdicts else 0.0
        )
        out["suite.perturbation_accept_ratio"] = (
            self.perturb_accepted / self.perturb_attempted if self.perturb_attempted else 0.0
        )
        return out
