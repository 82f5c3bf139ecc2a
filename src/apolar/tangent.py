"""Tangent spaces to G- and G+-orbits, their perps, and orbit dimensions.

The tangent space at f is S f + sum_i m (x_i f); the unipotent variant is
m f + sum_i m^2 (x_i f).  Both are spanned by finitely many explicit
contractions since everything is truncated at N = deg f.  Perps are computed
twice -- once as the orthogonal complement of the tangent basis, once from
the direct degree conditions on sigma and its partial derivatives -- and the
two results must agree.
"""

import math
from dataclasses import dataclass

from .dp import DPPoly, Operator, contract, monomials, monomials_upto
from .errors import CrossCheckFailed, IndexOutOfRange, ZeroPolynomial
from .fields import char_guard
from .linalg import Basis, Window, nullspace, span


def _tangent_generators(f, min_sigma, min_tau):
    """Contractions sigma -| f and tau -| (x_i f) spanning a tangent space."""
    n, field = f.n, f.field
    d = max(f.degree, 0)
    vecs = []
    for e in monomials_upto(n, d):
        if sum(e) < min_sigma:
            continue
        g = contract(Operator.monomial(n, field, e, d), f)
        if not g.is_zero():
            vecs.append(g)
    shifted = [DPPoly.variable(n, field, i + 1) * f for i in range(n)]
    for e in monomials_upto(n, d + 1):
        if sum(e) < min_tau:
            continue
        sigma = Operator.monomial(n, field, e, d + 1)
        for xf in shifted:
            g = contract(sigma, xf)
            if not g.is_zero():
                vecs.append(g)
    return vecs


def tangent_space(f):
    """Canonical basis of S f + sum_i m (x_i f) inside P_{<= deg f}."""
    if f.is_zero():
        raise ZeroPolynomial("tangent space of the zero polynomial")
    win = Window.P_upto(f.n, max(f.degree, 0), f.field)
    return span(_tangent_generators(f, 0, 1), win)


def unip_tangent_space(f):
    """Canonical basis of m f + sum_i m^2 (x_i f) inside P_{<= deg f}."""
    if f.is_zero():
        raise ZeroPolynomial("tangent space of the zero polynomial")
    win = Window.P_upto(f.n, max(f.degree, 0), f.field)
    return span(_tangent_generators(f, 1, 2), win)


def _perp_direct(f, unipotent, max_degree):
    """Perp from the conditions on sigma -| f and its partial derivatives.

    Full:      sigma -| f = 0          and deg(sigma^(i) -| f) <= 0;
    unipotent: deg(sigma -| f) <= 0    and deg(sigma^(i) -| f) <= 1.
    """
    n, field = f.n, f.field
    win = Window.S_upto(n, max_degree, field)
    d = max(f.degree, 0)
    min_m = 1 if unipotent else 0
    min_m_deriv = 2 if unipotent else 1
    eqs = []
    for m in monomials_upto(n, d):
        row = None
        if sum(m) >= min_m:
            row = [
                f.coeff(tuple(a + b for a, b in zip(e, m))) for e in win.columns
            ]
            eqs.append(row)
        if sum(m) >= min_m_deriv:
            for i in range(n):
                row = []
                for e in win.columns:
                    if e[i] == 0:
                        row.append(field.zero())
                        continue
                    shifted = tuple(
                        a - (1 if j == i else 0) + b
                        for j, (a, b) in enumerate(zip(e, m))
                    )
                    row.append(field.mul(field.from_int(e[i]), f.coeff(shifted)))
                eqs.append(row)
    rows = nullspace(eqs, field, win.dim)
    return Basis(win, rows, reduced=True)


def perp_tangent(f, unipotent=False, max_degree=None):
    """Perp of the (unipotent) tangent space inside S_{<= max_degree}.

    Computed both from the tangent basis and from the direct degree
    conditions; raises CrossCheckFailed if the two disagree.
    """
    if f.is_zero():
        raise ZeroPolynomial("perp of the zero polynomial's tangent space")
    d = max(f.degree, 0)
    if max_degree is None:
        max_degree = d
    tang = unip_tangent_space(f) if unipotent else tangent_space(f)
    via_perp = tang.perp(degrees=range(max_degree + 1))
    direct = _perp_direct(f, unipotent, max_degree)
    if via_perp != direct:
        raise CrossCheckFailed(
            "tangent-perp mismatch: %d vs %d dims" % (via_perp.dim, direct.dim)
        )
    return direct


@dataclass
class TangentReport:
    tangent: Basis
    perp: Basis
    orbit_dim: int


def tangent_report(f, unipotent=False):
    tang = unip_tangent_space(f) if unipotent else tangent_space(f)
    perp = perp_tangent(f, unipotent)
    return TangentReport(tangent=tang, perp=perp, orbit_dim=tang.dim)


def orbit_dimension(f):
    """dim G f = dim tangent_space(f); valid in char 0 or > deg f."""
    if f.is_zero():
        raise ZeroPolynomial("orbit of the zero polynomial")
    char_guard(f.field, max(f.degree, 0))
    return tangent_space(f).dim


def dense_orbit_test(F):
    """True iff P_{<= d-1} is contained in the tangent space of F."""
    d = F.degree
    if F.is_zero() or F.tdf() != F:
        raise ZeroPolynomial("dense orbit test needs a nonzero homogeneous form")
    if d == 0:
        return True
    return perp_tangent(F, unipotent=False, max_degree=d - 1).dim == 0


def cangrad_pair_filter(n, d):
    """Does (n, d) survive the dimension-count obstruction?

    False exactly when n * binom(n+1, 2) < binom(n+d-2, d-1), i.e. when the
    orbit of a general degree-d form in n variables cannot contain
    P_{<= d-1} for dimension reasons.
    """
    if n < 1 or d < 1:
        raise IndexOutOfRange("need n >= 1 and d >= 1, got n=%d d=%d" % (n, d))
    return not (n * math.comb(n + 1, 2) < math.comb(n + d - 2, d - 1))
