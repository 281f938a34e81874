"""Independent oracles used to freeze expected values.

Everything here recomputes results along a different path than the library:
rank via minor enumeration and the Pfaffian, brackets via full ordered-pair
summation over a table mirrored here from the declared pairs, the graded
bracket via a free Laurent expansion that keeps the separate multiplication
by s, term pair by term pair, the module bracket via the whole Hamiltonian
field, the total-space matrix entry by entry from the declared items, the
value of a polynomial at a point by summing ``Fraction`` terms, a vector
field that moves t by a sum over whole ``TPoly`` products, a structure at a
lower order by a copy with every entry truncated, flat lifts by a sweep
that recomputes the whole residual from the derivation formula at every
order, the t-linear conformal extension slot by slot from partial
derivatives, truncated products by plain ``Fraction`` accumulation, the
inverse of a generator map by error correction, the inverse of a unit by
its geometric series of whole ``TPoly`` products, the cocycle defect as
three subtracted parts, the composite and inverse of gauge twists by
term-by-term substitution, a gauge twist with the trivialization changed
first, in the source coordinates, model-file expressions by a flat
``Fraction`` term map, the canonical text by sorting ``Fraction`` terms,
model-file tokens one character at a time, and partial derivatives term by
term from the public ``terms`` view.  Keep these independent of the code under test.

Two checks of identities that hold by construction live here too, because
only tests call them: the Jacobiator of the graded bracket, equivalent to
the cocycle condition, and the grading action of t on the total space.  So
does ``random_line_data``, seeded module data that only tests draw.  The
Jacobiator of either bracket is summed from six nested brackets, the
reference for ``PoissonStructure.verify_jacobi``, which applies the
generator fields to the table entries instead.
"""

import random
from fractions import Fraction
from itertools import combinations
from operator import add

from momentkit.algebra import MAX_TOTAL_DEGREE, Derivation, Poly, PolyRing, TPoly, invert_unit
from momentkit.instances import (
    CATALOG,
    MAX_ORDER,
    _random_alpha,
    _random_poly,
    _random_t_tail,
    catalog_structure,
    random_gauge_twist,
)
from momentkit.line import LineData, TotElement
from momentkit.moment import GaugeTwist, MomentSystem
from momentkit.modelfile import MAX_NESTING, ModelError, _kind, _Parser
from momentkit.poisson import PoissonStructure
from momentkit.reporting import Check


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


def diff(f, gen):
    """d/d``gen`` of a ``Poly``, or of a ``TPoly`` slot by slot, term by
    term from the public ``terms`` view; the library lowers packed keys."""
    if isinstance(f, TPoly):
        return TPoly(f.ring, f.order, [diff(c, gen) for c in f.coeffs])
    i = f.ring.index(gen)
    out = {}
    for expo, c in f.terms.items():
        if expo[i]:
            out[expo[:i] + (expo[i] - 1,) + expo[i + 1 :]] = c * expo[i]
    return Poly(f.ring, out)


def mirrored_table(structure):
    """{(a, b): {a, b}} for every ordered pair with a nonzero entry, built
    from the declared pairs of ``table_items()`` by setting {b, a} = -{a, b}
    here, not read from the library's stored orientations."""
    table = {}
    for (a, b), entry in structure.table_items():
        table[(a, b)] = entry
        table[(b, a)] = -entry
    return table


def bracket_by_pairs(structure, f, g):
    """{f,g} summed over all ordered generator pairs (i != j).

    The production code contracts the table with the derivatives of g only;
    this variant sums single products over the whole mirrored table.
    """
    result = TPoly.constant(structure.ring, 0, structure.order)
    for (a, b), entry in mirrored_table(structure).items():
        result = result + entry * diff(f, a) * diff(g, b)
    return result


def tot_bracket_free_laurent(line, p, f, q, g):
    """{f s^p, g s^q} with the explicit step at s^(p+q-1) times a final s.

    Expansion in the free Laurent algebra: the base-bracket part lands at
    s^(p+q) directly, while the module parts are first placed at s^(p+q-1)
    and then multiplied by one more power of s.  Coefficients are handled at
    the module order throughout except for a pure degree-0 pair.  Brackets
    are summed over ordered pairs, alpha by the derivation formula (with the
    t-power bump in degree 0, t-linear elsewhere).
    """
    low = line.module_order
    if p == 0 and q == 0:
        return {0: bracket_by_pairs(line.base, f, g)}
    base_low = restrict(line.base, low)
    f_low = f.truncate(low) if f.order > low else f
    g_low = g.truncate(low) if g.order > low else g
    alpha_f = alpha_by_derivation(line, f) if p == 0 else alpha_t_linear(line, f)
    alpha_g = alpha_by_derivation(line, g) if q == 0 else alpha_t_linear(line, g)
    direct = {p + q: bracket_by_pairs(base_low, f_low, g_low)}
    lower = {p + q - 1: g_low * alpha_f * q - f_low * alpha_g * p}
    # multiply the lower part by s: shift every degree up by one
    shifted = {d + 1: v for d, v in lower.items() if not v.is_zero()}
    out = dict(direct)
    for d, v in shifted.items():
        out[d] = out.get(d, TPoly.constant(line.ring, 0, low)) + v
    return {d: v for d, v in out.items() if not v.is_zero()}


def tot_bracket_by_term_pairs(line, u, v):
    """{u, v} as the sum of ``tot_bracket_free_laurent`` over every pair of
    terms.  A module-order value in degree 0 enters by its zero-padded lift,
    so the t^N slot there holds only the brackets of degree-0 terms."""
    out = {}
    for p, f in u.coeffs.items():
        for q, g in v.coeffs.items():
            for d, value in tot_bracket_free_laurent(line, p, f, q, g).items():
                value = zero_padded(value, line.coefficient_order(d))
                out[d] = out[d] + value if d in out else value
    return TotElement(line, out)


def module_bracket_by_field(line, a, m):
    """The coefficient of e in {a, m*e} as H_a(m) + m*alpha(a): the whole
    Hamiltonian field of a, its values cut to the module order, applied to m."""
    low = line.module_order
    values = line.base.hamiltonian_field(a).values
    field = Derivation(line.ring, low, {g: v.truncate(low) for g, v in values.items()})
    return field.apply(m) + m * alpha_by_derivation(line, a)


def jacobi_sum(bracket, a, b, c):
    """{a,{b,c}} + {b,{c,a}} + {c,{a,b}} for an antisymmetric bracket, summed
    as {{c,b},a} + ..: {u, a} = -H_a(u) contracts the table with the
    derivatives of a (a generator in every check), not of the inner result."""
    return bracket(bracket(c, b), a) + bracket(bracket(a, c), b) + bracket(bracket(b, a), c)


def jacobiator(structure, f, g, h):
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}} of the base bracket, exactly, from
    six nested ``bracket`` calls."""
    return jacobi_sum(structure.bracket, f, g, h)


def restrict(structure, order):
    """``structure`` with every table entry truncated to ``order``, as a new
    ``PoissonStructure``: the reference for taking a field, a bracket or a
    conformal check at the order of its arguments."""
    return PoissonStructure(
        structure.ring,
        order,
        {pair: value.truncate(order) for pair, value in structure.table_items()},
    )


def random_table(rng, min_order=0):
    """A seeded bracket table drawn with no Jacobi constraint, so it almost
    always breaks the identity: 3-5 generators, order ``min_order``..4, each
    pair left off the table with probability 1/3, else a random entry of
    degree <= 2 in each t-slot it keeps."""
    ring = PolyRing(["v", "w", "x", "y", "z"][: rng.randint(3, 5)])
    n = rng.randint(min_order, 4)
    table = {}
    for a, b in combinations(ring.gens, 2):
        if rng.random() < 2 / 3:
            head = TPoly.from_poly(_random_poly(rng, ring, 2), n)
            table[(a, b)] = head + _random_t_tail(rng, ring, n, 2)
    return PoissonStructure(ring, n, table)


def changed_alpha_by_generators(line, u):
    """alpha'(x_a) = alpha(x_a) + u^-1 {x_a, u} for each generator, with the
    bracket summed over ordered pairs of the base cut to the module order."""
    low = line.module_order
    base_low = restrict(line.base, low)
    u_inv = invert_unit(u)
    return {
        g: line.alpha_of(g)
        + u_inv * bracket_by_pairs(base_low, TPoly.generator(line.ring, g, low), u)
        for g in line.ring.gens
    }


def zero_padded(f, order):
    """``f`` at a truncation order at least its own, the new t-slots zero."""
    return TPoly(f.ring, order, [*f.coeffs, *[f.ring.zero()] * (order - f.order)])


def t_shifted(f, k):
    """t^k * f for ``k >= 0``, truncated at the order of ``f``: the slots move
    up by k over zeros."""
    slots = [*[f.ring.zero()] * k, *f.coeffs]
    return TPoly(f.ring, f.order, slots[: f.order + 1])


def tot_product_by_truncate_and_lift(u, v):
    """Product of two TotElements with every factor first brought to the
    coefficient order of the product's degree (truncated or zero-padded),
    then multiplied as whole TPolys.  The library has no such product: it
    depends on the zero padding, so it is not well defined on the quotient;
    tests use it where the padding does not matter."""
    line = u.line
    out = {}
    for p, f in u.coeffs.items():
        for q, g in v.coeffs.items():
            order = line.coefficient_order(p + q)
            f_at = f.truncate(order) if f.order >= order else zero_padded(f, order)
            g_at = g.truncate(order) if g.order >= order else zero_padded(g, order)
            prev = out.get(p + q)
            out[p + q] = f_at * g_at if prev is None else prev + f_at * g_at
    return TotElement(line, out)


def derivation_by_sum(values, dt, f):
    """D(f) = dt * df/dt + sum_g values[g] * df/dg over whole TPolys.

    ``dt`` and every value share one order, and D(f) is taken at the lower
    of that order and the order of f, with no drop for a ``dt`` that has a
    t^0 slot: a caller cuts the result itself.  df/dt is read off the slots
    of f as sum_k k c_k t^(k-1) and multiplied as a whole TPoly; the library
    instead adds D(t) times the slots k*c_k, unreduced, into its slots as
    one kernel product, beside one product per generator.
    """
    ring = f.ring
    order = min(f.order, dt.order)
    df_dt = [
        f.coefficient(k + 1) * (k + 1) if k < f.order else ring.zero() for k in range(order + 1)
    ]
    total = dt.truncate(order) * TPoly(ring, order, df_dt)
    for g in ring.gens:
        total = total + values[g].truncate(order) * diff(f, g).truncate(order)
    return total


def alpha_by_derivation(line, f):
    """alpha(f) = df/dt + sum_g alpha(g) * df/dg at the module order:
    alpha(t) = 1 makes the extension a derivation in t as well.  The
    argument lives at the base order."""
    low = line.module_order
    alpha = {g: line.alpha_of(g) for g in line.ring.gens}
    return derivation_by_sum(alpha, TPoly.constant(line.ring, 1, low), f)


def alpha_t_linear(line, f):
    """sum_g alpha(g) * df/dg: the t-linear extension of alpha (no t-power
    bump) to a module-order f."""
    low = line.module_order
    alpha = {g: line.alpha_of(g) for g in line.ring.gens}
    return derivation_by_sum(alpha, TPoly.constant(line.ring, 0, low), f)


def cocycle_defect_by_parts(line, a, b):
    """H_a(alpha(b)) - H_b(alpha(a)) - alpha({a,b}) as three finished TPolys,
    then subtracted.  H_g(m) = {g, m} is summed over ordered pairs at the
    module order and alpha by the derivation formula; the library adds all
    three terms into one slot set instead."""
    low = restrict(line.base, line.module_order)

    def hamiltonian(g, m):
        return bracket_by_pairs(low, TPoly.generator(line.ring, g, low.order), m)

    entry = mirrored_table(line.base).get((a, b), TPoly.constant(line.ring, 0, line.order))
    return (
        hamiltonian(a, line.alpha_of(b))
        - hamiltonian(b, line.alpha_of(a))
        - alpha_by_derivation(line, entry)
    )


def evaluate_by_terms(tp, values, t_value):
    """The value of a TPoly at a point, summed as ``Fraction`` terms of the
    public ``terms`` view of each t-slot."""
    total = Fraction(0)
    for k, c in enumerate(tp.coeffs):
        for expo, coeff in c.terms.items():
            term = coeff * Fraction(t_value) ** k
            for g, e in zip(tp.ring.gens, expo):
                term *= Fraction(values[g]) ** e
            total += term
    return total


def tot_matrix_by_items(system, pt):
    """The bracket matrix in the coordinates (x_1..x_k, s, t), written entry
    by entry from the declared pairs of ``table_items()`` and from
    ``alpha_items()``: {x_i, x_j} = B_ij, {x_i, s} = alpha(x_i)*s and
    {t, s} = s, each mirrored here with the opposite sign."""
    gens = system.ring.gens
    k = len(gens)
    at = {g: i for i, g in enumerate(gens)}
    matrix = [[Fraction(0)] * (k + 2) for _ in range(k + 2)]

    def put(i, j, value):
        matrix[i][j] = value
        matrix[j][i] = -value

    for (a, b), entry in system.structure.table_items():
        put(at[a], at[b], evaluate_by_terms(entry, pt.values, pt.t))
    for g, value in system.line.alpha_items():
        put(at[g], k, evaluate_by_terms(value, pt.values, pt.t) * pt.s)
    put(k + 1, k, pt.s)
    return matrix


def tot_field_t_linear(line, xi, mu, w):
    """The t-linear extension of a base field to the total space, with
    xi(t) = mu*t and xi(s) = 0: on c*t^k*s^p it gives (xi(c) + k*mu*c)*t^k*s^p,
    where xi(c) = sum_g dc/dg * xi[g] is summed slot by slot from the partial
    derivatives of each ``Poly`` slot, not through a ``Derivation``."""
    out = {}
    for p, coeff in w.coeffs.items():
        slots = []
        for k, c in enumerate(coeff.coeffs):
            term = c * (mu * k)
            for g in line.ring.gens:
                term = term + diff(c, g) * xi[g]
            slots.append(term)
        out[p] = TPoly(line.ring, coeff.order, slots)
    return TotElement(line, out)


def trivialize_by_full_recompute(system):
    """Flat lifts by the plain sweep: at each order k recompute the whole
    residual alpha(lift) and cancel its t^(k-1) slot r by subtracting t^k r/k."""
    lifts = {}
    for g in system.ring.gens:
        lift = TPoly.generator(system.ring, g, system.n)
        for k in range(1, system.n + 1):
            r = alpha_by_derivation(system.line, lift).coefficient(k - 1)
            if not r.is_zero():
                lift = lift - t_shifted(TPoly.from_poly(r * Fraction(1, k), system.n), k)
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
            result = result + t_shifted(term, k)
    return result


def invert_unit_by_geometric_series(u):
    """Inverse of a unit u = c0*(1 + v), v in t*A[t], as c0^-1 * sum_j (-v)^j
    of whole ``TPoly`` products; the library solves u*w = 1 slot by slot."""
    c0 = u.coeffs[0].constant_value()
    if not c0:
        raise ValueError(f"{u} is not a unit")
    v = u * (1 / c0) - 1
    result = TPoly.constant(u.ring, 1, u.order)
    term = TPoly.constant(u.ring, 1, u.order)
    for _ in range(u.order):
        term = term * (-v)
        if term.is_zero():
            break
        result = result + term
    return result * (1 / c0)


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


def random_line_data(seed, corrupt=False):
    """A seeded LineData over a (possibly twisted, hence t-dependent) base.

    With ``corrupt`` the module datum is perturbed until the cocycle condition
    actually breaks; the base table keeps satisfying the Jacobi identity
    either way.  Corruption needs a base with at least one nonzero bracket
    (over the zero bracket every datum satisfies the cocycle), so the zero
    catalog entry is skipped in that mode.
    """
    rng = random.Random(seed)
    index = rng.randrange(2) if corrupt else rng.randrange(len(CATALOG))
    base = catalog_structure(index)
    n = rng.randint(1, MAX_ORDER)
    system = MomentSystem.trivial(base, n)
    alpha = _random_alpha(rng, system)
    system = MomentSystem(system.structure, LineData(system.structure, alpha))
    if rng.random() < 0.6:
        system = system.twist(random_gauge_twist(rng, base.ring, n))
    line = system.line
    if not corrupt:
        return line
    gens = line.ring.gens
    attempts = [
        (rng.choice(gens), TPoly.from_poly(_random_poly(rng, line.ring, 1), line.module_order))
        for _ in range(8)
    ]
    # Exhaustive generator bumps guarantee a break when no generator is
    # central: adding x_l to alpha(x_j) moves the (i,j) defect by {x_i, x_l}.
    attempts.extend(
        (g, TPoly.generator(line.ring, b, line.module_order)) for g in gens for b in gens
    )
    for g, bump in attempts:
        perturbed = {h: line.alpha_of(h) for h in gens}
        perturbed[g] = perturbed[g] + bump
        candidate = LineData(line.base, perturbed)
        if not candidate.verify_cocycle().passed:
            return candidate
    raise AssertionError(f"could not corrupt the cocycle for seed {seed}")


def compose_twists(g1, g2, n):
    """The twist g1 * g2 with ``S.twist(g1).twist(g2) == S.twist(g1 * g2)``:
    phi(x) = phi2[x](phi1) and unit = u1 * u2(phi1 mod t^n), substituted
    term by term."""
    low = {x: v.truncate(n - 1) for x, v in g1.phi.items()}
    phi = {x: substitute_by_terms(v, g1.phi) for x, v in g2.phi.items()}
    return GaugeTwist(phi, g1.unit * substitute_by_terms(g2.unit, low))


def twist_by_change_then_transport(system, g):
    """``system.twist(g)`` in the other order: the trivialization changes by
    the unit first, in the source coordinates (``changed_alpha_by_generators``),
    and the table and the changed datum are then transported along
    psi = phi^-1, found by error correction.  alpha'(phi_x) is summed from
    the changed values on generators, and every substitution is term by
    term; the library substitutes the unit instead and changes the
    trivialization in the target coordinates."""
    ring, n = system.ring, system.n
    psi = invert_generator_map_by_error_correction(ring, n, g.phi)
    low = {x: v.truncate(n - 1) for x, v in psi.items()}
    table = {
        (a, b): substitute_by_terms(bracket_by_pairs(system.structure, g.phi[a], g.phi[b]), psi)
        for a, b in combinations(ring.gens, 2)
    }
    structure = PoissonStructure(ring, n, table)
    changed = changed_alpha_by_generators(system.line, g.unit)
    bump = TPoly.constant(ring, 1, n - 1)
    alpha = {
        x: substitute_by_terms(derivation_by_sum(changed, bump, g.phi[x]), low)
        for x in ring.gens
    }
    return MomentSystem(structure, LineData(structure, alpha))


def invert_twist(g, n):
    """The twist g^-1 = (psi, u^-1(psi mod t^n)), with psi = phi^-1 by error
    correction and the unit substituted term by term."""
    ring = g.unit.ring
    psi = invert_generator_map_by_error_correction(ring, n, g.phi)
    low = {x: v.truncate(n - 1) for x, v in psi.items()}
    return GaugeTwist(psi, substitute_by_terms(invert_unit(g.unit), low))


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


# -- model-file expressions by a flat term map ----------------------------------


class _PastBound(Exception):
    """A product or power made a nonzero kept term of total degree past
    ``MAX_TOTAL_DEGREE``; its argument is the token where that factor starts."""


class _Terms:
    """A parsed expression as one flat map of terms ``c * s^d * t^k * x^e``.

    ``terms`` maps ``(d, k, e)`` to a nonzero ``Fraction``.  Terms whose
    t-power exceeds the parse order are not kept; ``over`` maps each s-degree
    at which one arose to the index of the token where it arose and its
    t-power.  A product with an over-order term is over-order too, so such a
    term never comes back into range, but a power of s can move it to another
    s-degree: products carry ``over`` along.  A kept product term of total
    degree past ``MAX_TOTAL_DEGREE`` raises ``_PastBound`` at the factor that
    made it, after each product of a power.
    """

    __slots__ = ("terms", "over")

    def __init__(self, terms, over):
        self.terms = terms
        self.over = over

    @classmethod
    def term(cls, d, k, expo, coeff):
        return cls({(d, k, expo): Fraction(coeff)} if coeff else {}, {})

    def add(self, other, sign):
        """In place: self += sign * other."""
        terms = self.terms
        for key, c in other.terms.items():
            value = terms.get(key, 0) + sign * c
            if value:
                terms[key] = value
            else:
                del terms[key]
        for d, where in other.over.items():
            self.over.setdefault(d, where)

    def mul(self, other, at, limit):
        terms = {}
        lowest = {}
        b_items = list(other.terms.items())
        for (da, ka, ea), ca in self.terms.items():
            for (db, kb, eb), cb in b_items:
                k = ka + kb
                if k > limit:
                    lowest[da + db] = min(k, lowest.get(da + db, k))
                    continue
                key = (da + db, k, tuple(map(add, ea, eb)))
                terms[key] = terms.get(key, 0) + ca * cb
        terms = {key: c for key, c in terms.items() if c}
        if any(sum(e) > MAX_TOTAL_DEGREE for _, _, e in terms):
            raise _PastBound(at)
        over = {d: (at, lowest[d]) for d in sorted(lowest)}
        for mine, theirs in ((self, other), (other, self)):
            if mine.over:
                degrees = {d for d, _, _ in theirs.terms} | set(theirs.over)
                for d, where in mine.over.items():
                    for e in degrees:
                        over.setdefault(d + e, where)
        return _Terms(terms, over)

    def power(self, exponent, at, limit, zero):
        if not self.terms and not self.over:
            return _Terms({}, {}) if exponent else _Terms.term(0, 0, zero, 1)
        if len(self.terms) == 1 and not self.over:
            # A single term: scale its exponents (a negative exponent only
            # reaches here on a bare s).
            ((d, k, expo), c), = self.terms.items()
            if k * exponent > limit:
                return _Terms({}, {d * exponent: (at, k * exponent)})
            if sum(expo) * exponent > MAX_TOTAL_DEGREE:
                raise _PastBound(at)
            return _Terms.term(
                d * exponent, k * exponent, tuple(e * exponent for e in expo), c**exponent
            )
        result = _Terms.term(0, 0, zero, 1)
        for _ in range(exponent):
            result = result.mul(self, at, limit)
        return result

    def negate(self):
        for key, c in self.terms.items():
            self.terms[key] = -c

    def coefficient(self, ring, degree, order):
        slots = [{} for _ in range(order + 1)]
        for (d, k, expo), c in self.terms.items():
            if d == degree and k <= order:
                slots[k][expo] = c
        return TPoly(ring, order, [Poly(ring, s) for s in slots])


class _TermMapParser(_Parser):
    """The model parser's token plumbing with expressions evaluated into a
    ``_Terms`` map, one ``Fraction`` product per term pair."""

    def _parse_expr(self):
        value = self._parse_term()
        while self.peek() in ("+", "-"):
            sign = 1 if self.peek() == "+" else -1
            self.pos += 1
            value.add(self._parse_term(), sign)
        return value

    def _parse_term(self):
        value = self._parse_factor()
        while self.at_punct("*"):
            self.pos += 1
            at = self.pos
            value = value.mul(self._parse_factor(), at, self.limit)
        return value

    def _parse_factor(self):
        negative = False
        while self.at_punct("-"):
            self.pos += 1
            negative = not negative
        at = self.pos
        value, is_s = self._parse_atom()
        if self.at_punct("^"):
            caret = self.pos
            self.pos += 1
            sign = 1
            if self.at_punct("-"):
                if not is_s:
                    raise self.error("negative exponents are only allowed on s", caret)
                self.pos += 1
                sign = -1
            zero = (0,) * self._ring().arity
            value = value.power(sign * self.expect_int(), at, self.limit, zero)
        if negative:
            value.negate()
        return value

    def _parse_atom(self):
        ring = self._ring()
        zero = (0,) * ring.arity
        at = self.pos
        text = self.peek()
        kind = _kind(text)
        if kind == "int":
            return _Terms.term(0, 0, zero, self._parse_signed_rational()), False
        if kind == "ident":
            self.pos += 1
            if text == "t":
                return _Terms.term(0, 1, zero, 1), False
            if text == "s":
                if not self.allow_s:
                    raise self.error("s is not allowed in this expression", at)
                return _Terms.term(1, 0, zero, 1), True
            if text not in ring.gens:
                raise self.error(f"undeclared generator {text!r}", at)
            expo = [0] * ring.arity
            expo[ring.index(text)] = 1
            return _Terms.term(0, 0, tuple(expo), 1), False
        if text == "(":
            self.pos += 1
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise self.error(f"expression nested deeper than {MAX_NESTING} parentheses", at)
            value = self._parse_expr()
            self.expect(")")
            self.depth -= 1
            return value, False
        raise self.error(f"expected an expression, got {text!r}")


def evaluate_by_term_map(text, ring, order, line=None):
    """``parse_polynomial(text, ring, order)``, or with ``line`` given
    ``parse_tot_expression(text, line)``, through a flat ``Fraction`` term map.

    The library folds atoms into integer monomials and multiplies kernel
    slots instead.  Where several over-order term pairs of one product land
    on the same s-degree, this map reports the lowest t-power among them, as
    the library does.  A bare ``t`` at order 0 is kept as a term here and
    dropped, so compare at orders >= 1.
    """
    parser = _TermMapParser(text)
    try:
        if line is None:
            value = parser.parse_entry(ring, order, allow_s=False)
        else:
            value = parser.parse_entry(line.ring, line.order, allow_s=True)
    except _PastBound as past:
        raise parser.error(f"total degree exceeds {MAX_TOTAL_DEGREE}", *past.args) from None
    if line is None:
        return value.coefficient(ring, 0, order)
    degrees = {d for d, _, _ in value.terms}
    return TotElement(
        line, {d: value.coefficient(line.ring, d, line.coefficient_order(d)) for d in degrees}
    )


# -- canonical text by sorting Fraction terms ----------------------------------------


def _monomial_key(expo):
    return (-sum(expo), tuple(-e for e in expo))


def render_terms_by_fractions(ring, triples):
    """The canonical text of ``(t-power, exponent, Fraction)`` triples,
    sorted together; the library reads integer forms slot by slot."""
    ordered = sorted(triples, key=lambda it: (it[0], _monomial_key(it[1])))
    if not ordered:
        return "0"
    chunks = []
    for pos, (t_pow, expo, coeff) in enumerate(ordered):
        negative = coeff < 0
        mag = -coeff if negative else coeff
        pieces = []
        if t_pow == 1:
            pieces.append("t")
        elif t_pow > 1:
            pieces.append(f"t^{t_pow}")
        for name, e in zip(ring.gens, expo):
            if e == 1:
                pieces.append(name)
            elif e > 1:
                pieces.append(f"{name}^{e}")
        if mag != 1 or not pieces:
            pieces.insert(0, str(mag))
        body = "*".join(pieces)
        if pos == 0:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks)


# -- checks of identities that hold by construction ---------------------------------


def verify_tot_jacobi(line):
    """Jacobiator of the graded bracket on triples from {x_i, s, s^-1, t}.

    Equivalent to the cocycle condition; a failing triple is reported with
    its residual element.
    """
    elements = [
        (g, line.tot_term(0, TPoly.generator(line.ring, g, line.order)))
        for g in line.ring.gens
    ]
    elements.append(("s", line.s_power(1)))
    elements.append(("s^-1", line.s_power(-1)))
    elements.append(("t", line.tot_t()))
    return Check.of(
        "tot-jacobi",
        (
            ((na, nb, nc), jacobi_sum(line.tot_bracket, a, b, c))
            for (na, a), (nb, b), (nc, c) in combinations(elements, 3)
        ),
    )


def verify_gm_hamiltonian(system):
    """The bracket with t acts on degree-p elements as multiplication by
    p, checked for -3 <= p <= 3: t is the moment map of the G_m-action."""
    line = system.line
    t_elem = line.tot_t()

    def defects():
        for p in range(-3, 4):
            order = line.coefficient_order(p)
            witnesses = [(f"s^{p}", line.s_power(p))] + [
                (f"{g}*s^{p}", line.tot_term(p, TPoly.generator(system.ring, g, order)))
                for g in system.ring.gens
            ]
            for label, w in witnesses:
                yield ("t", label), line.tot_bracket(t_elem, w) - w * Fraction(p)

    return Check.of("gm-hamiltonian", defects())


# -- model-file tokens ------------------------------------------------------------

_DIGITS = "0123456789"
_PUNCTUATION = ";,{}()=+-*^/:"


def lex_by_characters(text):
    """``(text, line, col)`` of every token of a model file, then
    ``("", line, col)`` for the end of input, read one character at a time:
    blanks are space, tab, carriage return and newline, ``#`` starts a
    comment up to the newline, an integer is a run of ASCII digits, an
    identifier starts with a letter (``str.isalpha``) or ``_`` and continues
    with ``str.isalnum`` or ``_``, and ``->`` and each of ``;,{}()=+-*^/:``
    are punctuation.  Any other character is a ``ModelError`` there."""
    tokens = []
    line, col, i = 1, 1, 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if c in " \t\r":
            col, i = col + 1, i + 1
            continue
        if c == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        j = i + 1
        if c in _DIGITS:
            while j < len(text) and text[j] in _DIGITS:
                j += 1
        elif c.isalpha() or c == "_":
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
        elif text.startswith("->", i):
            j = i + 2
        elif c not in _PUNCTUATION:
            raise ModelError(f"unexpected character {c!r}", line, col)
        tokens.append((text[i:j], line, col))
        col, i = col + j - i, j
    tokens.append(("", line, col))
    return tokens
