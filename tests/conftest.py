from fractions import Fraction

import pytest

from momentkit import algebra
from momentkit.algebra import PolyRing, TPoly
from momentkit.poisson import PoissonStructure


@pytest.fixture
def plane_ring():
    return PolyRing(["x", "y"])


@pytest.fixture
def plane(plane_ring):
    """The constant symplectic plane {x,y} = 1 at order 0."""
    return PoissonStructure(plane_ring, 0, {("x", "y"): 1})


@pytest.fixture
def so3_ring():
    return PolyRing(["x", "y", "z"])


@pytest.fixture
def so3(so3_ring):
    """Linear Lie-Poisson table {x,y}=z, {y,z}=x, {z,x}=y at order 0."""
    return PoissonStructure(
        so3_ring,
        0,
        {
            ("x", "y"): so3_ring.var("z"),
            ("y", "z"): so3_ring.var("x"),
            ("z", "x"): so3_ring.var("y"),
        },
    )


@pytest.fixture
def zero_bracket(plane_ring):
    return PoissonStructure(plane_ring, 0, {})


def tfree(ring, poly, order):
    return TPoly.from_poly(poly, order)


@pytest.fixture
def half():
    return Fraction(1, 2)


@pytest.fixture
def kernel_pairs(monkeypatch):
    """``kernel_pairs(*modules)`` patches the product kernel where each of
    ``modules`` reaches it and returns a list that collects the term pairs of
    each call from then on, within the kept slots."""
    kernel = algebra.add_truncated_product

    def start(*modules):
        pairs = []

        def counting(slots, a, b, shift=0):
            top = len(slots) - 1
            pairs.append(
                sum(
                    len(pa.nums) * len(pb.nums)
                    for i, pa in enumerate(a)
                    for j, pb in enumerate(b)
                    if i + j + shift <= top
                )
            )
            kernel(slots, a, b, shift)

        for module in modules:
            monkeypatch.setattr(module, "add_truncated_product", counting)
        return pairs

    return start
