"""Jet spaces of affine schemes made explicit.

Given a closed subscheme of affine n-space cut out by polynomials, the jet
space of d-dimensional order-r jets is again an affine scheme, cut out
inside the space of coefficient tuples by one polynomial equation per
(equation, monomial of degree <= r) pair; likewise a polynomial map
prolongs to a polynomial map between jet spaces.  Two constructions are
provided:

* the direct route substitutes a generic coefficient series into each
  polynomial and reads off the monomial coefficients;
* the universal route builds the order-r Taylor expansion of each
  polynomial at the symbolic base point and composes it with the
  positive-valuation offset of the generic jet.

The generic jet and its Taylor weights w_q = offsets^q / q! depend on the
shape (n, d, r) alone, so both are built once per shape and kept in a
bounded table that every call of either route reads, for shapes of a few
dozen jet coordinates; the weights are formed lazily, only those of a
nonzero partial of some polynomial.  The direct route's monomials stay per
call.

Both return the same `AffineScheme` or `AffineMap` after normalization;
the equality is checked in the test suite.
Jet coordinates are ordered with the ambient component outside and the
monomial (graded-lex) inside.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import (ArityMismatch, BasepointNotOnScheme, OrderMismatch,
                     OrderTooLow)
from .poly import Polynomial, default_names, graded_monomials
from .ratfunc import RationalFunction
from .series import (JetPoint, TruncatedSeries, series_compose,
                     series_compose_all, taylor_weights)


class AffineScheme:
    """A closed subscheme of affine n-space: polynomial equations in n named
    variables.  A jet space is one too, in the jet coordinates."""

    __slots__ = ("n", "equations", "names")

    def __init__(self, n, equations, names=None):
        equations = tuple(equations)
        names = tuple(names or default_names(n, "x"))
        if len(names) != n:
            raise ArityMismatch(f"{len(names)} variable names, ambient "
                                f"dimension {n}")
        for g in equations:
            if g.arity != n:
                raise ArityMismatch(
                    f"equation in {g.arity} variables, ambient dimension {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "equations", equations)
        object.__setattr__(self, "names", names)

    def __setattr__(self, name, value):
        raise AttributeError("AffineScheme is immutable")

    def contains_point(self, point):
        return all(g.evaluate(point) == 0 for g in self.equations)

    def normalized(self):
        return AffineScheme(self.n, [g.normalized() for g in self.equations],
                            self.names)

    def __eq__(self, other):
        if not isinstance(other, AffineScheme):
            return NotImplemented
        return self.names == other.names and self.equations == other.equations


class AffineMap:
    """A polynomial map between affine spaces, one Polynomial per target slot."""

    __slots__ = ("n", "m", "components")

    def __init__(self, n, m, components):
        components = tuple(components)
        if len(components) != m:
            raise ArityMismatch(f"expected {m} components, got {len(components)}")
        for g in components:
            if g.arity != n:
                raise ArityMismatch(
                    f"component in {g.arity} variables, source dimension {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("AffineMap is immutable")

    @classmethod
    def identity(cls, n):
        return cls(n, n, [Polynomial.variable(i, n) for i in range(n)])

    def compose(self, other):
        """self after other (source arity = other.n)."""
        if other.m != self.n:
            raise ArityMismatch("arities do not chain")
        one = Polynomial.const(1, other.n)
        comps = [g.evaluate_in(other.components, one) for g in self.components]
        return AffineMap(other.n, self.m, comps)

    def apply(self, point):
        if len(point) != self.n:
            raise ArityMismatch(
                f"expected {self.n} coordinates, got {len(point)}")
        return tuple(g.evaluate(point) for g in self.components)

    def normalized(self):
        return AffineMap(self.n, self.m,
                         [g.normalized() for g in self.components])

    def __eq__(self, other):
        if not isinstance(other, AffineMap):
            return NotImplemented
        return (self.n == other.n and self.m == other.m
                and self.components == other.components)


# -- jet coordinates ---------------------------------------------------------

def jet_variable_names(n, d, r, names=None):
    """Names of the n*ell jet coordinates, component outside, monomial inside."""
    mons = graded_monomials(d, r)
    names = names or default_names(n, "x")
    out = []
    for i in range(n):
        for p in mons:
            out.append("a_" + names[i] + "_" + "_".join(str(e) for e in p))
    return out


def jet_to_coords(jet):
    """Flatten a jet into its coordinate vector (component outer, monomial inner)."""
    mons = graded_monomials(jet.dims, jet.order)
    out = []
    for s in jet.series:
        for p in mons:
            out.append(s.coefficient(p))
    return out


def coords_to_jet(values, n, d, r):
    mons = graded_monomials(d, r)
    ell = len(mons)
    if len(values) != n * ell:
        raise ArityMismatch(f"expected {n * ell} coordinates, got {len(values)}")
    series = []
    for i in range(n):
        block = values[i * ell:(i + 1) * ell]
        series.append(TruncatedSeries(d, r, dict(zip(mons, block))))
    return JetPoint(series)


def generic_jet(n, d, r):
    """The jet whose coefficients are the jet coordinate variables themselves."""
    mons = graded_monomials(d, r)
    ell = len(mons)
    total = n * ell
    series = []
    for i in range(n):
        coeffs = {p: Polynomial.variable(i * ell + k, total)
                  for k, p in enumerate(mons)}
        series.append(TruncatedSeries(d, r, coeffs))
    return JetPoint(series)


# -- the two construction routes ---------------------------------------------

# more than the shapes a caller cycles through, such as the 30 of n <= 3,
# d <= 2, r <= 4
_SHAPES = 45
# the most jet coordinates n * C(d + r, d) of a kept shape: the 45 of the
# largest of those 30, n = 3, d = 2, r = 4.  A larger shape builds its jet
# and weights for the call alone; kept, its weights could hold megabytes
# (10.8 MB for x1^3 - 1 at d = 1, r = 100).
_COORDINATES = 45


@functools.lru_cache(maxsize=_SHAPES)
def _generic(n, d, r):
    """The generic jet of shape (n, d, r) and `taylor_weights` of its
    offsets, built once per shape and shared by every call: the jet is
    immutable and the weights are formed when first read, into a table
    that only grows."""
    sigma = generic_jet(n, d, r)
    return sigma, taylor_weights(sigma.offsets())


def _expand_generic(polys, n, d, r, expand):
    """The coefficients of each series of expand(polys, sigma, weight), one
    per f in polys, as polynomials in the n*ell jet coordinates: f outside,
    monomial inside.  sigma is the generic jet of shape (n, d, r) and
    weight its Taylor weights, both kept per shape (see `_generic`) when
    the shape has at most `_COORDINATES` jet coordinates."""
    mons = graded_monomials(d, r)
    total = n * len(mons)
    build = _generic if total <= _COORDINATES else _generic.__wrapped__
    expansions = expand(polys, *build(n, d, r))
    out = []
    for k in range(len(expansions)):
        # one pass over the expansion's table builds all its coefficients;
        # dropping it then keeps one expansion alive beside them, not all
        coeffs = expansions[k].coeffs
        expansions[k] = None
        for p in mons:
            c = coeffs.get(p, 0)
            out.append(c if isinstance(c, Polynomial)
                       else Polynomial.const(c, total))
    return out


def _compose_all(polys, sigma, weight):
    """The direct route: `series_compose_all` on sigma, which reads no
    weight and forms its monomials afresh for each call."""
    return series_compose_all(polys, sigma)


def _taylor_compose_all(polys, sigma, weight):
    """`_taylor_compose` of each f in polys, all reading the one weight map
    of sigma, so that a weight is formed once per shape, not once per
    polynomial."""
    return [_taylor_compose(f, sigma, weight) for f in polys]


def _taylor_compose(f, sigma, weight):
    """Order-r Taylor expansion of f at the symbolic base point of the
    generic jet sigma, evaluated on its positive-valuation offsets: the sum
    of d_q f (base point) w_q over the multi-degrees q, formed as one
    `TruncatedSeries.combination`.  `weight` is `taylor_weights` of those
    offsets; only the w_q of a nonzero d_q f are read."""
    n, r = sigma.n, sigma.order
    ell = math.comb(sigma.dims + r, r)
    # the base-point symbols are the constant-monomial coordinates
    base_index = [i * ell for i in range(n)]
    terms = []
    # d_q f is one derivative of d_p f, p = q - e_l with l the lowest index
    # where q_l > 0; graded order reaches p first
    partials = {}
    for q in graded_monomials(n, r):
        if any(q):
            l = next(i for i, e in enumerate(q) if e)
            prev = q[:l] + (q[l] - 1,) + q[l + 1:]
            part = partials[prev].derivative(l)
        else:
            part = f
        partials[q] = part
        if part:
            terms.append((part.rename_into(n * ell, base_index), weight(q)))
    return TruncatedSeries.combination(sigma.dims, r, terms)


def jet_space_equations(scheme, d, r):
    """The jet space as an affine scheme in the jet coordinates, by direct
    substitution.

    Has one equation per (equation of the scheme, monomial) pair, scheme
    equation outside and monomial graded-lex inside; for r = 0 these are
    the scheme's own equations read in the jet coordinates.
    """
    names = jet_variable_names(scheme.n, d, r, scheme.names)
    return AffineScheme(len(names), _expand_generic(
        scheme.equations, scheme.n, d, r, _compose_all), names)


def jet_space_equations_universal(scheme, d, r):
    """Same contract as jet_space_equations, via the Taylor-expansion route."""
    names = jet_variable_names(scheme.n, d, r, scheme.names)
    return AffineScheme(len(names), _expand_generic(
        scheme.equations, scheme.n, d, r, _taylor_compose_all), names)


def jet_prolong(g, d, r):
    """The induced map on jet coordinates, by direct substitution.

    Applying the returned map to the coordinates of a jet agrees with
    composing each component of g with the jet and truncating; this is
    functorial in g.
    """
    ell = math.comb(d + r, r)
    return AffineMap(g.n * ell, g.m * ell,
                     _expand_generic(g.components, g.n, d, r,
                                     _compose_all))


def jet_prolong_universal(g, d, r):
    """Same contract as jet_prolong, via the Taylor-expansion route."""
    ell = math.comb(d + r, r)
    return AffineMap(g.n * ell, g.m * ell,
                     _expand_generic(g.components, g.n, d, r,
                                     _taylor_compose_all))


def apply_prolonged(pmap, jet, m):
    """Apply a prolonged map to a jet, returning the image jet."""
    values = pmap.apply(jet_to_coords(jet))
    return coords_to_jet(values, m, jet.dims, jet.order)


# -- membership and non-degeneracy -------------------------------------------

def jet_membership(scheme, jet):
    """Whether every equation vanishes identically on the jet."""
    if jet.n != scheme.n:
        raise ArityMismatch(
            f"jet with {jet.n} components on a scheme in dimension {scheme.n}")
    return all(series_compose(f, jet).is_zero() for f in scheme.equations)


def tangent_rows(jet):
    """The d x n matrix of degree-one coefficients of a jet: entry (a, i)
    is the coefficient of t_a in component i."""
    rows = [[Fraction(0)] * jet.n for _ in range(jet.dims)]
    for i, s in enumerate(jet.series):
        for p, c in s.homogeneous(1).items():
            rows[p.index(1)][i] = c
    return rows


def is_nondegenerate(jet):
    """Whether the d induced tangent vectors are linearly independent."""
    if jet.order < 1:
        raise OrderTooLow("non-degeneracy needs order at least 1")
    return linalg.rank(tangent_rows(jet)) == jet.dims


def is_compatible(jet_hi, jet_lo):
    """Whether the higher-order jet restricts exactly to the lower one."""
    if jet_hi.dims != jet_lo.dims or jet_hi.n != jet_lo.n:
        raise ArityMismatch("jets live on different spaces")
    if jet_hi.order < jet_lo.order:
        raise OrderMismatch(
            f"first jet has order {jet_hi.order} < {jet_lo.order}")
    return jet_hi.restrict(jet_lo.order) == jet_lo


# -- dimension witnesses ------------------------------------------------------

@dataclass
class WitnessReport:
    """Per-order record of non-degenerate jets found above a point.

    A found witness at every order up to r_max is evidence (not proof) that
    the scheme has dimension at least d at the point; absence of a witness
    is never a negative certificate.
    """

    d: int
    r_max: int
    tangent_dim: int
    witnesses: dict = field(default_factory=dict)

    def found_through(self):
        r = 0
        while r + 1 <= self.r_max and self.witnesses.get(r + 1) is not None:
            r += 1
        return r


def _jacobian_at(scheme, point):
    return [[g.derivative(i).evaluate(point) for i in range(scheme.n)]
            for g in scheme.equations]


def _lift_once(scheme, jet):
    """Extend a jet on the scheme by one order, solving the linear top-degree
    conditions; returns the lifted jet or None if the system is inconsistent."""
    d, r = jet.dims, jet.order
    lifted = jet.zero_extended(r + 1)
    jac = _jacobian_at(scheme, jet.basepoint())
    top_monomials = [p for p in graded_monomials(d, r + 1) if sum(p) == r + 1]
    residuals = series_compose_all(scheme.equations, lifted)
    corrections = [dict() for _ in range(scheme.n)]
    for mu in top_monomials:
        if not scheme.equations:
            continue
        rhs = [-res.coefficient(mu) for res in residuals]
        sol = linalg.solve(jac, rhs)
        if sol is None:
            return None
        for i, v in enumerate(sol):
            if v:
                corrections[i][mu] = v
    series = [s + TruncatedSeries(d, r + 1, corrections[i])
              for i, s in enumerate(lifted.series)]
    return JetPoint(series)


def _prolong_parametrization(param, d, r, point):
    """Jet of a rational parametrization (n rational functions of d formal
    variables, regular at 0 with value `point`)."""
    disk = JetPoint([TruncatedSeries.variable(a, d, r) for a in range(d)])
    series = RationalFunction.eval_all_on_jet(param, disk)
    if any(s.constant_term() != point[i] for i, s in enumerate(series)):
        return None
    return JetPoint(series)


def dimension_witness(scheme, point, d, r_max, parametrizations=()):
    """Search for non-degenerate jets on the scheme above a point.

    Deterministic: supplied parametrizations are prolonged exactly, and
    tangent vectors from the Jacobian kernel are lifted order by order
    through the linear top-degree conditions.  The report never claims a
    negative certificate.
    """
    point = tuple(Fraction(v) for v in point)
    if not scheme.contains_point(point):
        raise BasepointNotOnScheme(f"{point} does not satisfy the equations")
    kernel = linalg.kernel_basis(_jacobian_at(scheme, point)) if scheme.equations \
        else [[Fraction(1 if j == i else 0) for j in range(scheme.n)]
              for i in range(scheme.n)]
    report = WitnessReport(d=d, r_max=r_max, tangent_dim=len(kernel))
    # each parametrization is prolonged once, at r_max, and restricted to r
    prolonged = [_prolong_parametrization(param, d, r_max, point)
                 for param in parametrizations if r_max >= 1]
    prolonged = [jet for jet in prolonged if jet is not None]
    # the kernel jet is lifted once per order, as far as some r needs it
    lifted = None
    if len(kernel) >= d:
        lifted = JetPoint([
            TruncatedSeries(d, 1, {
                (0,) * d: point[i],
                **{tuple(1 if b == a else 0 for b in range(d)):
                   kernel[a][i] for a in range(d)},
            }) for i in range(scheme.n)])
        if not is_nondegenerate(lifted):
            lifted = None
    for r in range(1, r_max + 1):
        found = None
        for full in prolonged:
            jet = full.restrict(r)
            if jet_membership(scheme, jet) and is_nondegenerate(jet):
                found = jet
                break
        if found is None:
            while lifted is not None and lifted.order < r:
                lifted = _lift_once(scheme, lifted)
            found = lifted
        report.witnesses[r] = found
    return report
