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

Perps are read twice off one sweep of m^k f, and the two must agree.  A
perp inside S_{<= max_degree} pairs only with the tangent space's part in
P_{<= max_degree}; restriction is linear and commutes with the shifts (the
shift of a row cut at degree N - 1 is the shift of the row cut at N), so
``perp_tangent`` sweeps the rows of m^k f restricted there once
(``apolarity._module_rows``) and hands one equation builder (``_perp_of``)
two sets of them: B, which makes its equations the restricted tangent rows,
and the rows at which the sweep adds a pivot, which makes them the direct
degree conditions on sigma and its partial derivatives, each implied
condition dropped with its n shifts.  Dropping equations can only make the
kernel larger, so a wrong drop fails the cross-check instead of passing a
wrong perp.  The equations are built column-reversed, the order their
kernel is read in (``linalg._reversed_kernel``), so each route is one
sweep and no tangent basis is formed: three sweeps in all.  Their
column-reversed maps depend on n and max_degree alone and are built once
per process (``_reversed_maps``, a bounded ``functools.lru_cache`` like the
shape tables of ``linalg`` and ``apolarity``).
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


def _tangent_batches(f, k):
    """(window, batches) for m^{k-1} f + sum_i x_i (m^k f) in P_{<= deg f}:
    the window and the tangent rows as lazy batches for ``linalg._sweep``.

    The window and its size check come first, before any layout or row.
    One sweep of the rows x^e -| D f, |e| >= k (``apolarity._module_rows``)
    gives B, the canonical rows of m^k f.

    The rows are sparse integer rows, in this order: the contractions of
    D f by the degree-(k-1) monomials (``_contraction_batches``), the rows
    of B with one entry, the shifts x_i x^[u] = (u_i + 1) x^[u + e_i] of
    every row of B from the degrees below deg f (``_image_batches``), each
    built only when the sweep takes it, and the other rows of B.  A block
    that m^k f fills holds unit rows only, so it is full before any shift
    into it is built; in the other blocks the shifts are stored before the
    longer rows of B, which takes fewer reduction steps than the other way
    round.
    """
    if f.is_zero():
        raise ZeroPolynomial("tangent space of the zero polynomial")
    top = max(f.degree, 0)
    win, degrees = Window.P_upto(f.n, top, f.field), range(top + 1)
    gs = _module_rows(f, k, degrees)[1]
    batches = _contraction_batches(f, monomials(f.n, k - 1), degrees)
    shifts = _image_batches(gs, _shift_table(f.n, range(top), degrees))
    return win, batches + _row_batches(g for g in gs if len(g) == 1) + shifts + _row_batches(
        g for g in gs if len(g) > 1)


def tangent_space(f):
    """Canonical basis of S f + sum_i m (x_i f) inside P_{<= deg f}."""
    return Basis._of_batches(*_tangent_batches(f, 1))


def unip_tangent_space(f):
    """Canonical basis of m f + sum_i m^2 (x_i f) inside P_{<= deg f}."""
    return Basis._of_batches(*_tangent_batches(f, 2))


def _perp_of(f, k, win, rows):
    """The perp in ``win`` = S_{<= top} of the span of the contractions of
    f by the degree-(k-1) monomials (``_contraction_rows``, filled from D f,
    D = f._den) and of each row g of ``rows``, rows of m^k f restricted to
    P_{<= top}, with its n shifts x_i g, x_i x^[u] = (u_i + 1) x^[u + e_i],
    of g's part in degrees < top (``_shift_table``).

    Given B, the canonical rows of m^k f, these are the tangent rows of
    ``_tangent_batches`` restricted to P_{<= top}, in another order:
    restriction is linear and commutes with the shifts (the restriction of
    x_i g to degrees <= top is x_i times that of g to degrees <= top - 1).

    Given the rows of m^k f at which a sweep adds a pivot, they are the
    direct conditions on sigma -| f and its partial derivatives:

    Full:      sigma -| f = 0          and deg(sigma^(i) -| f) <= 0;
    unipotent: deg(sigma -| f) <= 0    and deg(sigma^(i) -| f) <= 1.

    The coefficient of x^[m] in sigma -| f is sum_t sigma_{t-m} f_t over the
    terms t >= m of f, and in sigma^(i) -| f it is
    sum_t (t_i - m_i + 1) sigma_{t-m+e_i} f_t.  Read as elements of P, the
    base row of m is a^m -| f restricted to degrees <= top, and the row of
    sigma^(i) is its shift x_i (row).  A base row with |m| >= k that is a
    combination of earlier ones has shifts that are the same combination of
    theirs, so it is dropped together with its n shifts.  The rows of
    |m| = k - 1 have no shifts and are all kept: a row that their rows imply
    would still need its own shifts.  Dropping equations can only make the
    kernel larger, never smaller, so a wrong drop shows as a mismatch with
    the tangent route in ``perp_tangent``, never as a wrong perp that passes.

    The equations are built column-reversed (column j of S_{<= top} keyed
    last - j), as lazy batches (``_image_batches``, each equation with its
    exact range): the contraction rows, then each row of ``rows`` followed
    by its n shifts.  So the kernel is read off one sweep of them
    (``linalg._reversed_kernel``) with no reversal pass, and an equation
    after its block is full is never built.
    """
    n, p, top = f.n, f.field.p, win.degrees[-1]
    base = [row for row in _contraction_rows(f, monomials(n, k - 1), range(top + 1)) if row]
    table = _reversed_maps(n, top)
    eqs = _image_batches(base, table[:1]) + _image_batches(rows, table)
    return Basis._of_canonical(win, _reversed_kernel(_sweep(eqs, p)[0], p, win.dim))


@lru_cache(maxsize=32)
def _reversed_maps(n, max_degree):
    """The maps (keys, weights) of ``_perp_of``'s equations over
    S_{<= max_degree} in n variables, column-reversed (column j at
    last - j): each row itself, then its n shifts (``_shift_table``)."""
    last = len(_window_table(n, range(max_degree + 1))[1]) - 1
    return ((range(last, -1, -1), (1,) * (last + 1)),) + tuple(
        (tuple(last - c for c in keys), weights)
        for keys, weights in _shift_table(n, range(max_degree), range(max_degree + 1)))


def perp_tangent(f, unipotent=False, max_degree=None):
    """Perp of the (unipotent) tangent space inside S_{<= max_degree}.

    The window's size check comes first.  One sweep of the rows of m^k f
    over P_{<= max_degree} (``apolarity._module_rows``) gives its canonical
    rows B and the rows at which it adds a pivot.  The perp is read off
    each (``_perp_of``): B with its shifts is the tangent route, the pivot
    rows with theirs the direct route.  Raises CrossCheckFailed if the two
    disagree; the direct perp is returned.
    """
    if f.is_zero():
        raise ZeroPolynomial("perp of the zero polynomial's tangent space")
    if max_degree is None:
        max_degree = max(f.degree, 0)
    if max_degree < 0:
        raise IndexOutOfRange("perp degree bound must be >= 0, got %d" % max_degree)
    win, k = Window.S_upto(f.n, max_degree, f.field), 2 if unipotent else 1
    kept, canonical = _module_rows(f, k, range(max_degree + 1))
    via_tangent, direct = _perp_of(f, k, win, canonical), _perp_of(f, k, win, kept)
    if via_tangent != direct:
        raise CrossCheckFailed(
            "tangent-perp mismatch: %d vs %d dims" % (via_tangent.dim, direct.dim)
        )
    return direct


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
