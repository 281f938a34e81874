"""Independent oracles used to freeze expected values.

Everything here recomputes results along a different path than the library:
rank via minor enumeration and the Pfaffian, brackets via full ordered-pair
summation, the graded bracket via a free Laurent expansion that keeps the
separate multiplication by s, flat lifts by a sweep that recomputes the
whole residual from the derivation formula at every order, truncated
products by plain ``Fraction`` accumulation, and the inverse of a generator
map by error correction.  Keep these independent of the
code under test.
"""

from fractions import Fraction
from operator import add

from momentkit.algebra import TPoly


def det(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det(minor)
    return total


def rank_by_minors(rows):
    """Largest k with a nonsingular k x k submatrix (exponential; tiny inputs)."""
    from itertools import combinations

    n = len(rows)
    m = len(rows[0]) if rows else 0
    for size in range(min(n, m), 0, -1):
        for rsel in combinations(range(n), size):
            for csel in combinations(range(m), size):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                if det(sub) != 0:
                    return size
    return 0


def pfaffian(rows):
    """Pfaffian of an even-dimensional antisymmetric matrix, by expansion."""
    n = len(rows)
    assert n % 2 == 0
    if n == 0:
        return Fraction(1)
    if n == 2:
        return rows[0][1]
    total = Fraction(0)
    for j in range(1, n):
        if rows[0][j] == 0:
            continue
        keep = [r for r in range(1, n) if r != j]
        minor = [[rows[r][c] for c in keep] for r in keep]
        sign = -1 if j % 2 == 0 else 1
        total += sign * rows[0][j] * pfaffian(minor)
    return total


def bracket_by_pairs(structure, f, g):
    """{f,g} summed over all ordered generator pairs (i != j).

    The production code sums antisymmetrized terms over i < j; this variant
    uses the full table and single products.
    """
    gens = structure.ring.gens
    result = TPoly.constant(structure.ring, 0, structure.order)
    for a in gens:
        for b in gens:
            if a == b:
                continue
            entry = structure.gen_bracket(a, b)
            if entry.is_zero():
                continue
            result = result + entry * f.diff(a) * g.diff(b)
    return result


def laurent_add(a, b):
    out = dict(a)
    for d, v in b.items():
        out[d] = out.get(d, 0) + v if d in out else v
    return {d: v for d, v in out.items() if not v.is_zero()}


def tot_bracket_free_laurent(line, p, f, q, g):
    """{f s^p, g s^q} with the explicit step at s^(p+q-1) times a final s.

    Expansion in the free Laurent algebra: the base-bracket part lands at
    s^(p+q) directly, while the module parts are first placed at s^(p+q-1)
    and then multiplied by one more power of s.  Coefficients are handled at
    the module order throughout except for a pure degree-0 pair.
    """
    low = line.module_order
    if p == 0 and q == 0:
        return {0: line.base.bracket(f, g)}
    base_low = line.base.restrict(low)
    f_low = f.truncate(low) if f.order > low else f
    g_low = g.truncate(low) if g.order > low else g
    alpha_f = line.alpha_apply(f) if p == 0 else line.partial_alpha(f)
    alpha_g = line.alpha_apply(g) if q == 0 else line.partial_alpha(g)
    direct = {p + q: base_low.bracket(f_low, g_low)}
    lower = {p + q - 1: g_low * alpha_f * q - f_low * alpha_g * p}
    # multiply the lower part by s: shift every degree up by one
    shifted = {d + 1: v for d, v in lower.items() if not v.is_zero()}
    out = dict(direct)
    for d, v in shifted.items():
        out[d] = out.get(d, TPoly.constant(line.ring, 0, low)) + v
    return {d: v for d, v in out.items() if not v.is_zero()}


def alpha_by_derivation(line, f):
    """alpha(f) = df/dt + sum_g alpha(g) * df/dg at the module order.

    alpha(t) = 1 makes the extension a derivation in t as well; the library
    instead bumps slot by slot with alpha(t^k c) = k t^(k-1) c + t^k alpha(c).
    """
    low = line.module_order
    total = TPoly(line.ring, low, [f.coefficient(k + 1) * (k + 1) for k in range(low + 1)])
    for g in line.ring.gens:
        total = total + line.alpha_of(g) * f.diff(g).truncate(low)
    return total


def trivialize_by_full_recompute(system):
    """Flat lifts by the plain sweep: at each order k recompute the whole
    residual alpha(lift) and cancel its t^(k-1) slot r by subtracting t^k r/k."""
    lifts = {}
    for g in system.ring.gens:
        lift = TPoly.generator(system.ring, g, system.n)
        for k in range(1, system.n + 1):
            r = alpha_by_derivation(system.line, lift).coefficient(k - 1)
            if not r.is_zero():
                lift = lift - TPoly.from_poly(r * Fraction(1, k), system.n).t_shift(k)
        lifts[g] = lift
    return lifts


def substitute_by_terms(f, assignment):
    """f with each generator replaced by its assigned TPoly, term by term.

    Every term c*t^k*x^e becomes a constant TPoly times the powers of the
    assigned values (each power built by repeated multiplication), shifted
    by t^k and added to the running sum; the library instead accumulates
    cached monomials into per-slot dicts.
    """
    ring, order = f.ring, f.order
    values = [assignment[g] for g in ring.gens]
    result = TPoly.constant(ring, 0, order)
    for k, poly in enumerate(f.coeffs):
        for expo, coeff in poly.terms.items():
            term = TPoly.constant(ring, coeff, order)
            for value, e in zip(values, expo):
                for _ in range(e):
                    term = term * value
            result = result + term.t_shift(k)
    return result


def invert_generator_map_by_error_correction(ring, order, phi):
    """Inverse of a substitution phi = id mod t by error correction: start
    from psi = id and subtract the error psi(phi) - id, which gains one
    t-order per pass; the library instead solves psi = x - (phi - id)(psi)."""
    psi = {g: TPoly.generator(ring, g, order) for g in ring.gens}
    for _ in range(order + 1):
        errors = {
            g: psi[g].substitute(phi) - TPoly.generator(ring, g, order)
            for g in ring.gens
        }
        if all(e.is_zero() for e in errors.values()):
            return psi
        psi = {g: psi[g] - errors[g] for g in ring.gens}
    raise ValueError("generator map is not invertible (not the identity mod t?)")


def accumulate_product(out, a, b):
    """out += a * b on ``{exponent: Fraction}`` maps, one Fraction
    multiply-add per term pair; cancelled terms stay in ``out`` as 0."""
    for ea, ca in a.items():
        for eb, cb in b.items():
            expo = tuple(map(add, ea, eb))
            out[expo] = out.get(expo, Fraction(0)) + ca * cb


def truncated_product_slots(slots, a, b, shift=0):
    """Reference for ``add_truncated_product`` on ``{exponent: Fraction}``
    slots: every slot pair, with the powers past the last slot dropped."""
    for i, pa in enumerate(a):
        for j, pb in enumerate(b):
            k = i + j + shift
            if k < len(slots):
                accumulate_product(slots[k], pa.terms, pb.terms)
