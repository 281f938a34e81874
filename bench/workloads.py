"""Seeded inputs for the benchmark workloads.

A workload is a fixed list of operations, each one ``momentkit`` CLI call
with ``--json``.  ``generate(name, seed, workdir)`` writes the model files the
operations read and returns the list; the same seed always gives the same
files and the same list, byte for byte.

Why these workloads:

* ``roundtrip`` -- the documented recovery suite, one case per operation, on
  consecutive case seeds starting at the workload seed.  Many tiny
  polynomials, so per-object overhead (``Poly.__init__``, ``Fraction``)
  dominates; asymptotic changes to t-order loops barely show here.
* ``ladder`` -- the catalog bases ``symplectic-plane`` and ``so3`` at orders
  2, 4, 6 and 8: twist, then verify and trivialize the twisted model.  This is
  the deep-t-order regime (generator-map inversion, ``alpha_apply``, large
  ``Poly`` products, model render and parse).
* ``totspace`` -- the README model and two so3 models: total-space brackets
  of growing degree, ranks and conformal extension.  Twist and trivialize do
  no work here.  The bracket operands have a fixed shape; only coefficients
  and the choice of generators come from the seed.

Sizes are pinned so that the work of a workload does not jump with the seed:
a twist is drawn once at ``TOP_ORDER`` with one linear term per t-slot on a
fixed generator rotation, only the coefficients come from the seed, and every
lower order uses its truncation.  Drawing the twist at each order separately
made so3 at order 6 slower than at order 8 for some seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from momentkit.algebra import PolyRing, TPoly
from momentkit.instances import CATALOG, MAX_ORDER, random_instance, random_point
from momentkit.line import LineData
from momentkit.modelfile import ConformalDecl, model_from_system
from momentkit.moment import GaugeTwist, MomentSystem
from momentkit.poisson import PoissonStructure

WORKLOADS = ("roundtrip", "ladder", "totspace")

ROUNDTRIP_CASES = 200
TOP_ORDER = 8
LADDER_ORDERS = (2, 4, 6, 8)
LADDER_BASES = ("symplectic-plane", "so3")
TOT_DEGREES = range(2, 13, 2)

# Generic coefficients: with few distinct values, products cancel by accident
# and the work of a seed drops by up to a quarter.
COEFFS = tuple(Fraction(p, q) for p in range(-9, 10) if p for q in (1, 2, 3, 4))

README_MODEL = """\
ring x, y;
order 2;
bracket {x, y} = 1 + t*x;
alpha y = x;
conformal euler: x -> x y -> y; weight -2;
point p0 = (x = 1 y = -2/3 s = 1/2 t = 0);
twist g: y -> y + t*x^2; unit 2 + t*x;
"""


@dataclass(frozen=True)
class Operation:
    """One CLI call and what a correct answer looks like.

    ``key`` names the operation in the digest store; ``top`` marks the
    operations that make up the workload's top-order group (``top_order_s``);
    ``check`` returns a failure reason for a parsed ``--json`` report, or None.
    """

    key: str
    argv: tuple[str, ...]
    expect_exit: int
    top: bool = False
    check: Callable[[dict], str | None] | None = None


def generate(name: str, seed: int, workdir: Path) -> list[Operation]:
    """Write the inputs of workload ``name`` under ``workdir`` and list its operations."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if seed < 0:
        raise ValueError("the workload seed must be nonnegative")
    workdir.mkdir(parents=True, exist_ok=True)
    return {"roundtrip": _roundtrip, "ladder": _ladder, "totspace": _totspace}[name](
        seed, workdir
    )


def pinned_twist(rng: random.Random, ring: PolyRing, top: int = TOP_ORDER) -> GaugeTwist:
    """A twist at order ``top``: phi(x_i) gets c * x_(i+k) at t^k, the unit is
    1 + sum c_k t^k x_k, with seeded coefficients c from ``COEFFS``."""
    gens = ring.gens

    def slot(i: int, k: int):
        return ring.var(gens[(i + k) % len(gens)]) * rng.choice(COEFFS)

    phi = {
        g: TPoly(ring, top, [ring.var(g)] + [slot(i, k) for k in range(1, top + 1)])
        for i, g in enumerate(gens)
    }
    unit = TPoly(ring, top - 1, [ring.one()] + [slot(0, k) for k in range(1, top)])
    return GaugeTwist(phi, unit)


def truncate_twist(twist: GaugeTwist, n: int) -> GaugeTwist:
    return GaugeTwist(
        {g: v.truncate(n) for g, v in twist.phi.items()}, twist.unit.truncate(n - 1)
    )


def _base(name: str) -> PoissonStructure:
    return dict(CATALOG)[name]()


def _write(workdir: Path, filename: str, text: str) -> str:
    path = workdir / filename
    path.write_text(text, encoding="utf-8")
    return path.as_posix()


# -- checks on parsed reports ---------------------------------------------------


def _passed(report: dict) -> str | None:
    return None if report.get("passed") is True else "report did not pass"


def _recovered(report: dict) -> str | None:
    details = report.get("details", {})
    if details.get("recovered") != "1/1" or details.get("failures"):
        return f"recovered {details.get('recovered')!r}, failures {details.get('failures')!r}"
    return None


def _has_bracket(report: dict) -> str | None:
    return None if "bracket" in report.get("details", {}) else "no bracket in report"


def _even_rank(report: dict) -> str | None:
    rank = report.get("details", {}).get("rank")
    if not isinstance(rank, int) or rank % 2:
        return f"rank {rank!r} is not an even integer"
    return None


def _failed_with_findings(report: dict) -> str | None:
    if report.get("passed") is not False:
        return "expected a failed report"
    if not any(check["findings"] for check in report.get("checks", [])):
        return "failed report carries no findings"
    return None


# -- workloads --------------------------------------------------------------------


def _roundtrip(seed: int, workdir: Path) -> list[Operation]:
    ops = []
    for case in range(seed, seed + ROUNDTRIP_CASES):
        model, _ = random_instance(case)
        ops.append(
            Operation(
                f"case/{case}",
                ("roundtrip", "--cases", "1", "--seed", str(case), "--json"),
                0,
                top=model.order == MAX_ORDER,
                check=_recovered,
            )
        )
    return ops


def _ladder(seed: int, workdir: Path) -> list[Operation]:
    ops = []
    for base_name in LADDER_BASES:
        base = _base(base_name)
        twist = pinned_twist(random.Random(f"ladder/{seed}/{base_name}"), base.ring)
        for n in LADDER_ORDERS:
            model = model_from_system(
                MomentSystem.trivial(base, n), twists={"g": truncate_twist(twist, n)}
            )
            stem = f"{base_name}-o{n}"
            path = _write(workdir, f"{stem}.mks", model.render())
            emitted = (workdir / f"{stem}-twisted.mks").as_posix()
            top = base_name == "so3" and n == TOP_ORDER
            prefix = f"{seed}/{stem}"
            ops.append(
                Operation(
                    f"{prefix}/twist",
                    ("twist", path, "--name", "g", "--emit", emitted, "--json"),
                    0,
                    top,
                    _passed,
                )
            )
            ops.append(Operation(f"{prefix}/verify", ("verify", emitted, "--json"), 0, top, _passed))
            ops.append(
                Operation(f"{prefix}/trivialize", ("trivialize", emitted, "--json"), 0, top, _passed)
            )
    return ops


def _euler(ring: PolyRing, weight: int) -> ConformalDecl:
    return ConformalDecl("euler", {g: ring.var(g) for g in ring.gens}, Fraction(weight))


def _so3_inner(rng: random.Random, n: int):
    """so3 at order n with inner module data alpha = H_h, h a seeded quadratic."""
    base = _base("so3")
    ring = base.ring
    trivial = MomentSystem.trivial(base, n)
    h = ring.zero()
    for a in range(3):
        for b in range(a, 3):
            h = h + ring.var(ring.gens[a]) * ring.var(ring.gens[b]) * rng.choice(COEFFS)
    field = trivial.structure.hamiltonian_field(TPoly.from_poly(h, n))
    alpha = {g: field.value(g).truncate(n - 1) for g in ring.gens}
    return MomentSystem(trivial.structure, LineData(trivial.structure, alpha))


def _so3_twisted(rng: random.Random, n: int):
    base = _base("so3")
    return MomentSystem.trivial(base, n).twist(pinned_twist(rng, base.ring, n))


def _tot_ops(
    rng: random.Random, prefix: str, path: str, ring: PolyRing, points, conformal_exit: int, top: bool
) -> list[Operation]:
    gens = ring.gens
    ops = []
    linear = " + ".join(gens)
    for k in TOT_DEGREES:
        a, b = rng.sample(gens, 2)
        c1, c2 = rng.choice(COEFFS), rng.choice(COEFFS)
        left = f"({linear} + 1)^{k}*s^-1"
        right = f"({c1})*{a}*{b}*s^2 + ({c2})*{rng.choice(gens)}"
        ops.append(
            Operation(
                f"{prefix}/tot{k}",
                ("tot", path, "--left", left, "--right", right, "--json"),
                0,
                top,
                _has_bracket,
            )
        )
    for point in points:
        for space in ("tot", "base"):
            ops.append(
                Operation(
                    f"{prefix}/rank-{point}-{space}",
                    ("rank", path, "--point", point, "--space", space, "--json"),
                    0,
                    top,
                    _even_rank,
                )
            )
    ops.append(
        Operation(
            f"{prefix}/conformal",
            ("conformal", path, "--json"),
            conformal_exit,
            top,
            _passed if conformal_exit == 0 else _failed_with_findings,
        )
    )
    return ops


def _totspace(seed: int, workdir: Path) -> list[Operation]:
    rng = random.Random(f"totspace/{seed}")
    ops = []
    readme = _write(workdir, "readme.mks", README_MODEL)
    # The README model fails its cocycle check, so conformal stops at verify.
    ops += _tot_ops(rng, f"{seed}/readme", readme, PolyRing(["x", "y"]), ["p0"], 1, False)
    for name, system, conformal_exit, top in (
        ("so3-inner-o6", _so3_inner(rng, 6), 0, True),
        ("so3-twisted-o4", _so3_twisted(rng, 4), 1, False),
    ):
        ring = system.ring
        points = {f"p{i}": random_point(rng, ring) for i in range(2)}
        model = model_from_system(system, conformal=_euler(ring, -1), points=points)
        path = _write(workdir, f"{name}.mks", model.render())
        ops += _tot_ops(rng, f"{seed}/{name}", path, ring, list(points), conformal_exit, top)
    return ops
