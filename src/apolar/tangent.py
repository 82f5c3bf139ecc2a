"""Tangent spaces to G- and G+-orbits, their perps, and orbit dimensions.

The tangent space at f is S f + sum_i m (x_i f); the unipotent variant is
m f + sum_i m^2 (x_i f).  Contraction by a_j is a derivation of the divided
power ring, so the product rule

    tau -| (x_i f) = x_i (tau -| f) + (d tau / d a_i) -| f

shows that its last term already lies in S f (in m f when tau is in m^2),
so with k = 1 (full) or k = 2 (unipotent) the space is

    m^{k-1} f + sum_i x_i (m^k f).

Here m^{k-1} f is spanned by m^k f and the contractions of f by the
degree-(k-1) monomials (f itself, or the a_j -| f).  With B the canonical
rows of m^k f, the tangent space is spanned by those contractions, B and
the n shifts x_i B: (n + 1) dim(m^k f) + binom(n+k-2, k-1) rows in place of
the n binom(n+d+1, n) + binom(n+d, n) contractions tau -| (x_i f) and
sigma -| f of the defining formula.  Everything is truncated at N = deg f.

All these rows are sparse integer rows, {column: int} dicts of their
nonzero entries, handed to the elimination in ``linalg`` as lazy batches
(``linalg._sweep``): each batch has a column range fixed before any of its
rows is built, and a row after its block is full is never built.  The
contractions are filled from D f, f's stored numerators (D = f._den,
``apolarity._contraction_batches``), B comes from one sweep of the rows
x^e -| D f, |e| >= k (``apolarity._module_rows``), and x_i x^[u] =
(u_i + 1) x^[u + e_i] shifts its rows (``apolarity._shift_table``), each
shift with its exact range (``apolarity._image_batches``).  The unit rows
of B -- a degree that m^k f fills holds only unit rows -- are swept first,
so no shift into such a degree is built; the other rows of B come after the
shifts.  None of this goes through ``contract`` or the DPPoly product.
``orbit_dimension`` reads the rank of these rows off one forward sweep,
with no canonical tangent rows.

Perps are computed twice -- once as the orthogonal complement of the
tangent basis, once from the direct degree conditions on sigma and its
partial derivatives -- and the two results must agree.  The direct route
hands its kernel only the equations that a forward sweep does not show to
be implied: the condition rows of sigma^(i) are the shifts x_i of the rows
of sigma, restricted to S_{<= max_degree}, and shifting commutes with that
restriction, so a row of sigma that depends on earlier ones is dropped with
its n shifts (``_perp_direct``).  For max_degree >= deg f - k no column of
the rows of sigma with |m| >= k is cut, so they are the rows of m^k f: the
sweep that gives B decides the drops too, so ``perp_tangent`` builds and
sweeps them once for both routes.  The equations are built column-reversed,
the order their kernel is read in, and an equation after its block is full
is never built.  Dropping equations can only make the kernel larger, so a
wrong drop fails the cross-check instead of passing a wrong perp.  Their
column-reversed maps depend on n and max_degree alone and are built once
per process (``_reversed_maps``, a bounded ``functools.lru_cache`` like
the shape tables of ``linalg`` and ``apolarity``).

A perp inside S_{<= max_degree} with max_degree < deg f pairs only with
the tangent space's part in P_{<= max_degree}, and restriction is linear:
it maps the span of the tangent rows onto the span of the restricted rows.
So ``perp_tangent`` builds ``_tangent_batches`` on P_{<= max_degree}: the
contractions on those degrees, the rows of B cut there, and the shifts
from the degrees below it (the shift of a row cut at degree N - 1 is the
shift of the row cut at N).  No tangent block above the bound is built,
swept or back-substituted.
"""

import math
from functools import lru_cache

from .apolarity import (
    _contraction_batches,
    _contraction_rows,
    _image_batches,
    _module_rows,
    _shift_table,
)
from .dp import monomials
from .errors import CrossCheckFailed, IndexOutOfRange, TdfMismatch, ZeroPolynomial
from .fields import char_guard
from .linalg import Basis, Window, _rank, _reversed_kernel, _row_batches, _sweep, _window_table


def _tangent_batches(f, k, module=None, top=None):
    """(window, batches) spanning m^{k-1} f + sum_i x_i (m^k f) restricted
    to P_{<= top} (P_{<= deg f} when top is not given or not below deg f),
    as lazy batches for ``linalg._sweep``.

    The rows are sparse integer rows, in this order: the contractions of
    D f by the degree-(k-1) monomials (``_contraction_batches``), the rows
    of B with one entry, the shifts x_i x^[u] = (u_i + 1) x^[u + e_i] of
    every row of B (``_image_batches``), each built only when the sweep
    takes it, and the other rows of B.  B are the canonical rows of m^k f
    from ``module`` (``apolarity._module_rows(f, k)``, built here when not
    given), each with its exact range.  A block that m^k f fills holds unit
    rows only, so it is full before any shift into it is built; in the
    other blocks the shifts are stored before the longer rows of B, which
    takes fewer reduction steps than the other way round.

    Below deg f every row is cut to P_{<= top}: restriction is linear, so
    it maps the span of the rows onto the span of the cut rows.  The
    contractions are built on degrees <= top, the rows of B cut there, and
    the shifts taken from degrees < top, so no row above top is built.
    """
    if f.is_zero():
        raise ZeroPolynomial("tangent space of the zero polynomial")
    d = max(f.degree, 0)
    top = d if top is None else min(top, d)
    win = Window.P_upto(f.n, top, f.field)
    gs = (module or _module_rows(f, k))[1]
    if top < d:
        gs = [cut for g in gs if (cut := {j: x for j, x in g.items() if j < win.dim})]
    batches = _contraction_batches(f, monomials(f.n, k - 1), range(top + 1))
    # m^k f lies in P_{<= d-1} and top <= d, so its rows are shifted from degrees < top
    shifts = _image_batches(gs, _shift_table(f.n, range(top), range(top + 1)))
    return win, batches + _row_batches(g for g in gs if len(g) == 1) + shifts + _row_batches(
        g for g in gs if len(g) > 1)


def tangent_space(f):
    """Canonical basis of S f + sum_i m (x_i f) inside P_{<= deg f}."""
    return Basis._of_batches(*_tangent_batches(f, 1))


def unip_tangent_space(f):
    """Canonical basis of m f + sum_i m^2 (x_i f) inside P_{<= deg f}."""
    return Basis._of_batches(*_tangent_batches(f, 2))


def _perp_direct(f, unipotent, max_degree, module):
    """Perp from the conditions on sigma -| f and its partial derivatives.

    Full:      sigma -| f = 0          and deg(sigma^(i) -| f) <= 0;
    unipotent: deg(sigma -| f) <= 0    and deg(sigma^(i) -| f) <= 1.

    The coefficient of x^[m] in sigma -| f is sum_t sigma_{t-m} f_t over the
    terms t >= m of f, and in sigma^(i) -| f it is
    sum_t (t_i - m_i + 1) sigma_{t-m+e_i} f_t.  Read as elements of P, the
    base row of m is a^m -| f restricted to degrees <= max_degree, the
    contraction row of ``_contraction_batches`` (filled from f's stored
    numerators, the coefficients of D f, D = f._den), and the row of
    sigma^(i) is its shift x_i (row), x_i x^[u] = (u_i + 1) x^[u + e_i],
    of its part in degrees < max_degree (``_shift_table``).

    The shift is linear and commutes with the restriction (the restriction
    of x_i g to degrees <= N is x_i times that of g to degrees <= N - 1), so
    a base row that is a combination of earlier base rows has shifts that
    are the same combination of theirs.  The base rows with |m| >= k
    (k = 1 full, 2 unipotent) go through one forward sweep, and one that
    adds no pivot is dropped together with its n shifts.  The rows of
    |m| = k - 1 have no shifts and are all kept, outside the sweep: a row
    that their rows imply would still need its own shifts.  Dropping
    equations can only make the kernel larger, never smaller, so a wrong
    drop would show as a mismatch in ``_checked_perp``, never as a wrong
    perp that passes.

    The base rows with |m| >= k lie in degrees <= deg f - k, so for
    max_degree >= deg f - k no column is cut: they are the rows of m^k f
    that ``module`` (``apolarity._module_rows(f, k)``) has swept already,
    and its kept rows are the ones that stay.  Below that bound the
    restricted rows are swept here (``_module_rows`` over the degrees
    <= max_degree): restriction can add dependencies, so their drops
    differ.

    The equations are built column-reversed (column j of S_{<= max_degree}
    keyed last - j), as lazy batches (``_image_batches``, each equation with
    its exact range): the rows of |m| = k - 1, then each kept row followed
    by its n shifts.  So the kernel is read off one sweep of them
    (``linalg._reversed_kernel``) with no reversal pass, and an equation
    after its block is full is never built.
    """
    n, p = f.n, f.field.p
    d, k = max(f.degree, 0), 2 if unipotent else 1
    win = Window.S_upto(n, max_degree, f.field)
    kept = module[0] if max_degree >= d - k else _module_rows(f, k, range(max_degree + 1))[0]
    base = [row for row in _contraction_rows(f, monomials(n, k - 1), range(max_degree + 1)) if row]
    table = _reversed_maps(n, max_degree)
    eqs = _image_batches(base, table[:1]) + _image_batches(kept, table)
    return Basis._of_canonical(win, _reversed_kernel(_sweep(eqs, p)[0], p, win.dim))


@lru_cache(maxsize=32)
def _reversed_maps(n, max_degree):
    """The maps (keys, weights) of ``_perp_direct``'s equations over
    S_{<= max_degree} in n variables, column-reversed (column j at
    last - j): each row itself, then its n shifts (``_shift_table``)."""
    last = len(_window_table(n, range(max_degree + 1))[1]) - 1
    return ((range(last, -1, -1), (1,) * (last + 1)),) + tuple(
        (tuple(last - c for c in keys), weights)
        for keys, weights in _shift_table(n, range(max_degree), range(max_degree + 1)))


def _checked_perp(f, tang, unipotent, max_degree, module):
    """Perp of ``tang`` in S_{<= max_degree}, cross-checked by _perp_direct."""
    via_perp = tang.perp(degrees=range(max_degree + 1))
    direct = _perp_direct(f, unipotent, max_degree, module)
    if via_perp != direct:
        raise CrossCheckFailed(
            "tangent-perp mismatch: %d vs %d dims" % (via_perp.dim, direct.dim)
        )
    return direct


def perp_tangent(f, unipotent=False, max_degree=None):
    """Perp of the (unipotent) tangent space inside S_{<= max_degree}.

    Computed both from the tangent basis and from the direct degree
    conditions; raises CrossCheckFailed if the two disagree.  One sweep of
    the rows of m^k f (``apolarity._module_rows``) serves both routes, and
    the tangent basis is built on P_{<= max_degree} when that is below
    P_{<= deg f} (``_tangent_batches``).
    """
    if f.is_zero():
        raise ZeroPolynomial("perp of the zero polynomial's tangent space")
    if max_degree is None:
        max_degree = max(f.degree, 0)
    if max_degree < 0:
        raise IndexOutOfRange("perp degree bound must be >= 0, got %d" % max_degree)
    k = 2 if unipotent else 1
    module = _module_rows(f, k)
    tang = Basis._of_batches(*_tangent_batches(f, k, module, max_degree))
    return _checked_perp(f, tang, unipotent, max_degree, module)


def orbit_dimension(f):
    """dim G f = dim tangent_space(f); valid in char 0 or > deg f.

    The rank of the tangent rows (``_tangent_batches``): the rows one
    ``_sweep`` of them stores.  No canonical tangent rows are needed.
    """
    if f.is_zero():
        raise ZeroPolynomial("orbit of the zero polynomial")
    char_guard(f.field, max(f.degree, 0))
    return _rank(_tangent_batches(f, 1)[1], f.field.p)


def dense_orbit_test(F):
    """True iff P_{<= d-1} is contained in the tangent space of F."""
    if F.is_zero():
        raise ZeroPolynomial("dense orbit test of the zero polynomial")
    if F.tdf() != F:
        raise TdfMismatch("dense orbit test needs a homogeneous form")
    d = F.degree
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
