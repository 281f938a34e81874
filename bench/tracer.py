"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces the public functions and methods listed in
``LAYERS`` with wrappers that time each call as a span.  Every binding of a
function is replaced, including names that other modules imported by value
(``cli.parse_model``, ``line.invert_unit``, ``poisson.exact_rank``, ...), so
calls through them are counted too.  A span's self time is its duration minus
the time covered by the wrapped spans it encloses.  Spans are folded into
per-layer totals in memory as they close; ``uninstall()`` restores the
original objects.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

from momentkit import algebra, cli, instances, line, modelfile, moment, poisson


def _poly_pairs(args, result) -> dict:
    left, right = args[0], args[1]
    width = len(right.terms) if isinstance(right, algebra.Poly) else 1
    return {"term_pairs": len(left.terms) * width}


def _lift_sizes(args, result) -> dict:
    terms = 0
    bits = 0
    for lift in result.lifts.values():
        for slot in lift.coeffs:
            terms += len(slot.terms)
            for c in slot.terms.values():
                bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return {"lift_terms": terms, "coeff_bits_max": bits}


# layer -> ((owner, attribute) bindings of one function, work counter or None,
# reported counters).  Metric names are "<layer>.<counter>".
LAYERS = {
    "algebra.poly_mul": (
        ((algebra.Poly, "__mul__"), (algebra.Poly, "__rmul__")),
        _poly_pairs,
        ("calls", "self_s", "term_pairs"),
    ),
    "algebra.tpoly_mul": (
        ((algebra.TPoly, "__mul__"), (algebra.TPoly, "__rmul__")),
        None,
        ("calls", "self_s"),
    ),
    "algebra.tpoly_substitute": (((algebra.TPoly, "substitute"),), None, ("calls", "self_s")),
    "algebra.invert_unit": (((algebra, "invert_unit"), (line, "invert_unit")), None, ("self_s",)),
    "algebra.exact_rank": (
        ((algebra, "exact_rank"), (poisson, "exact_rank"), (moment, "exact_rank")),
        None,
        ("calls", "self_s"),
    ),
    "algebra.render_terms": (((algebra, "render_terms"),), None, ("self_s",)),
    "poisson.bracket": (((poisson.PoissonStructure, "bracket"),), None, ("calls", "self_s")),
    "poisson.hamiltonian_field": (
        ((poisson.PoissonStructure, "hamiltonian_field"),),
        None,
        ("self_s",),
    ),
    "poisson.verify_jacobi": (((poisson.PoissonStructure, "verify_jacobi"),), None, ("self_s",)),
    "line.alpha_apply": (((line.LineData, "alpha_apply"),), None, ("calls", "self_s")),
    "line.tot_bracket": (((line.LineData, "tot_bracket"),), None, ("calls", "self_s")),
    "line.partial_alpha": (((line.LineData, "partial_alpha"),), None, ("self_s",)),
    "line.verify_cocycle": (((line.LineData, "verify_cocycle"),), None, ("self_s",)),
    "line.change_trivialization": (
        ((line.LineData, "change_trivialization"),),
        None,
        ("self_s",),
    ),
    "moment.invert_generator_map": (((moment, "invert_generator_map"),), None, ("self_s",)),
    "moment.twist": (((moment.MomentSystem, "twist"),), None, ("self_s",)),
    "moment.trivialize": (
        ((moment.MomentSystem, "trivialize"),),
        _lift_sizes,
        ("self_s", "lift_terms", "coeff_bits_max"),
    ),
    "moment.verify": (((moment.MomentSystem, "verify"),), None, ("calls",)),
    "moment.extend_conformal": (((moment.MomentSystem, "extend_conformal"),), None, ("self_s",)),
    "modelfile.parse_model": (
        ((modelfile, "parse_model"), (cli, "parse_model")),
        None,
        ("self_s",),
    ),
    "modelfile.parse_tot_expression": (
        ((modelfile, "parse_tot_expression"), (cli, "parse_tot_expression")),
        None,
        ("self_s",),
    ),
    "modelfile.ModelFile.render": (((modelfile.ModelFile, "render"),), None, ("self_s",)),
    "modelfile.build_system": (((modelfile.ModelFile, "build_system"),), None, ("self_s",)),
    "instances.random_instance": (
        ((instances, "random_instance"), (cli, "random_instance")),
        None,
        ("self_s",),
    ),
    "instances.random_gauge_twist": (
        ((instances, "random_gauge_twist"), (cli, "random_gauge_twist")),
        None,
        ("self_s",),
    ),
    "cli.RunReport.to_json": (((cli.RunReport, "to_json"),), None, ("self_s",)),
}

# Counters that report the largest value seen rather than a sum.
MAXIMA = {"coeff_bits_max"}

UNITS = {"calls": "count", "self_s": "s", "term_pairs": "count", "lift_terms": "count",
         "coeff_bits_max": "bits"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, with its unit."""
    return [
        (f"{layer}.{counter}", UNITS[counter])
        for layer, (_, _, counters) in LAYERS.items()
        for counter in counters
    ]


class Tracer:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._open: list[float] = []  # time covered by the children of each open span
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.work: Counter[str] = Counter()

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.work.clear()

    def _wrap(self, layer: str, fn, count):
        opened = self._open
        calls, self_s, work = self.calls, self.self_s, self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = opened.pop()
                if opened:
                    opened[-1] += duration
                calls[layer] += 1
                self_s[layer] += duration - children
            if count is not None:
                for name, value in count(args, result).items():
                    key = f"{layer}.{name}"
                    work[key] = max(work[key], value) if name in MAXIMA else work[key] + value
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, (bindings, _, _) in LAYERS.items():
            if len({id(vars(owner)[attr]) for owner, attr in bindings}) != 1:
                raise RuntimeError(f"bindings of {layer} name different functions")
        self.reset()
        for layer, (bindings, count, _) in LAYERS.items():
            owner, attr = bindings[0]
            wrapper = self._wrap(layer, vars(owner)[attr], count)
            for owner, attr in bindings:
                self._saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def snapshot(self) -> dict[str, float]:
        """Every per-layer metric for the spans recorded since ``install``."""
        out: dict[str, float] = {}
        for layer, (_, _, counters) in LAYERS.items():
            for counter in counters:
                name = f"{layer}.{counter}"
                if counter == "calls":
                    out[name] = self.calls[layer]
                elif counter == "self_s":
                    out[name] = self.self_s[layer]
                else:
                    out[name] = self.work[name]
        return out
