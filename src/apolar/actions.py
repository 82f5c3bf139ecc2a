"""The group G = Aut(S) x| S^* and its Lie data acting dually on P.

Conventions fixed here (and tested):

* ``apply_group_element((phi, u), f) = u -| (phi_dual f)``;
* ``compose(g, h)`` satisfies ``apply(compose(g, h), f) = apply(h, apply(g, f))``;
  concretely ``compose((phi,u), (psi,v)) = (phi o psi, v * psi^{-1}(u))``;
* ``exp_group_element(D, tau)`` realises the exponential of the Lie algebra
  element f |-> D_dual(f) + tau -| f as an honest group element.

How the costly maps are computed -- each job one way:

* One power table, ``_power_table(images, trunc)``, holds phi(a)^b for
  phi(a_i) = images[i], truncated at trunc, and builds an entry when it
  is first read: the entry of b is the entry of b - e_i times phi(a_i),
  i the last index with b_i > 0.  ``subst`` and ``_substituted`` (so
  ``compose``) read one table per call, for every term of every operator
  they substitute into; ``Automorphism._preimage`` reads one table of
  phi's images (and one of L^{-1}'s) for all its rounds;
  ``apply_automorphism_dual`` reads one table truncated at deg f.
* ``apply_automorphism_dual`` uses the adjunction <sigma, phi_dual f> =
  <phi(sigma), f>: the coefficient of x^[b] in phi_dual(f) is
  <phi(a)^b, f>, one pairing per monomial b with |b| <= d = deg f.  Let
  s + 1 be the lowest degree of a term of any phi(a_i) - a_i (s = d if
  there is none).  For |b| > d - s, phi(a)^b truncated at d is a^b, so
  the coefficient of x^[b] is f's own; the table is read only for
  |b| <= d - s.  A reduction step is the identity modulo m^{s+1} with
  s >= 1, and a homogeneous step at degree e has s = d - e: it pays for
  the degrees <= e it changes.
* The ``Automorphism`` constructor is the one invertibility check: one
  capped forward sweep (``linalg._fill``) of the numerators of the
  images' linear parts, n rows over n columns.  ``apply_linear_map``
  turns its failure into ``SingularMatrix``.
* ``Automorphism._preimage`` is the one solver for phi(x) = u.  It goes
  one degree at a time: the residual u - phi(x_{<r}) has order >= r, x_r
  is L^{-1} applied to its degree-r part, and round r substitutes only
  the new piece x_r into phi.  L, the linear part of phi, is the identity
  for every unipotent reduction step, and then L^{-1} is skipped.  L^{-1}
  otherwise comes from ``Automorphism._linear_inverse``, read off
  rref([L | 1]) = [1 | L^{-1}].  Every automorphism fixes constants, so a
  constant u, or zero, is returned as it is, at phi's truncation, with no
  table built and no round run (after the arity and field check).
* ``compose`` needs psi^{-1}(u) only, and takes it from
  ``psi._preimage(u)``; no inverse is built.  It substitutes all n images
  of psi into phi through one table of phi's images.  A reduction trace
  folds its steps from the last, compose(g, accumulated), so phi is a
  sparse step, and u is the step's unit, mostly the constant 1.
* ``Automorphism.inverse`` has no caller inside the library; it serves
  callers outside it.  phi^{-1}(a_j) is the preimage of a_j.
* One series loop, ``_series``, sums the three exponentials: exp(w) for w
  in m, the images exp(D)(a_i) for a derivation D with every D(a_i) in
  m^2, and the unit part of ``exp_group_element``.  Under these
  hypotheses each step raises the order of the term, so the terms vanish
  past the truncation and the loop ends.  Outside them the loop need not
  end, so no loop starts: ``exp_automorphism`` (and ``exp_group_element``
  first of all) raises InvalidAutomorphism for such a D, and
  ``exp_operator`` NotAUnit for w outside m (so ``exp_group_element``
  for tau outside m).

These maps run on the stored integer form of ``dp``: numerators over one
common denominator, (``_den``, ``_num``).  The table keeps its entries as
such pairs; a substitution sums its terms' entries, scaled, over the lcm
of their denominators, and the dual action pairs each entry with f's
numerators.  ``dp._ints_mul`` takes its right factor sorted by degree
(``dp._by_degree``): a table sorts each image once, and each entry is one
product of an earlier entry and one image.  Each result is reduced once,
by ``_make``.  Units that are only re-truncated go through
``Operator._at``, which does not check their exponent keys again.  The
images of an automorphism or a derivation share one truncation, and a
unit is truncated at least at its automorphism's: a lower truncation
leaves terms up to that degree unknown, so it raises FieldMismatch, as
``subst`` does.
"""

from math import lcm

from .dp import Operator, _by_degree, _check_pair, _ints_mul, contract, monomials
from .errors import (
    AmbientMismatch,
    ArityMismatch,
    FieldMismatch,
    InvalidAutomorphism,
    NotAUnit,
    SingularMatrix,
)
from .fields import char_guard
from .linalg import _check_matrix, _fill, rref


def _power_table(images, trunc):
    """The function b -> phi(a)^b for phi(a_i) = images[i], a (den, num)
    pair truncated at ``trunc``.  An entry is built when it is first read:
    the entry of b - e_i times images[i], i the last index with b_i > 0."""
    n = len(images)
    right = [_by_degree(im._den, im._num) for im in images]  # each sorted once
    table = {(0,) * n: (1, {(0,) * n: 1})}  # the monomial 1 maps to 1

    def power(b):
        entry = table.get(b)
        if entry is None:
            i = n - 1
            while not b[i]:
                i -= 1
            prev = power(b[:i] + (b[i] - 1,) + b[i + 1 :])
            entry = table[b] = _ints_mul(prev, right[i], trunc)
        return entry

    return power


def _read_off(op, power, like):
    """``op`` with each monomial a^e replaced by power(e), a table of
    ``_power_table``: an operator like ``like`` (its truncation the
    table's)."""
    scaled = [(power(e), c) for e, c in op._num.items()]
    L = lcm(*(den for (den, _), _ in scaled))
    num = {}
    for (den, prod), c in scaled:
        s = c * (L // den)
        for m, v in prod.items():
            num[m] = num.get(m, 0) + s * v
    return like._make(L * op._den, num)


def subst(op, images):
    """Substitute a_i -> images[i] into the operator ``op``, truncated at the
    images' common truncation."""
    return _substituted([op], images)[0]


def _substituted(ops, images):
    """[subst(op, images) for op in ops], every op read through one power
    table of the images."""
    for op in ops:
        if len(images) != op.n:
            raise ArityMismatch("need %d images, got %d" % (op.n, len(images)))
    trunc = images[0].trunc
    for im in images:
        for op in ops:
            _check_pair(op, im)
        if im.trunc != trunc:
            raise FieldMismatch("truncation %d vs %d" % (trunc, im.trunc))
    power = _power_table(images, trunc)
    return [_read_off(op, power, images[0]) for op in ops]


def _check_images(images):
    """(n, field, trunc) of the first of ``images``, the images of a_1..a_n
    under an automorphism or a derivation.  InvalidAutomorphism when there
    is no image, or an image is not an Operator or has a constant term,
    ArityMismatch unless there is one image per variable, FieldMismatch
    unless every image has the first one's arity, field and truncation."""
    if not images:
        raise InvalidAutomorphism("no images")
    if not all(isinstance(im, Operator) for im in images):
        raise InvalidAutomorphism("image is not an Operator")
    n, field, trunc = images[0].n, images[0].field, images[0].trunc
    if len(images) != n:
        raise ArityMismatch("need %d images, got %d" % (n, len(images)))
    for im in images:
        if im.n != n or im.field != field:
            raise FieldMismatch("inconsistent images")
        if im.trunc != trunc:
            raise FieldMismatch("truncation %d vs %d" % (trunc, im.trunc))
        if im.order < 1:
            raise InvalidAutomorphism("image has a constant term")
    return n, field, trunc


class Automorphism:
    """phi: S -> S given by its images phi(a_i), all truncated at one
    ``trunc``."""

    def __init__(self, images):
        self.n, self.field, self.trunc = _check_images(images)
        self.images = list(images)
        # row i holds the numerators of the linear part of phi(a_i): the rows
        # of linear_matrix's transpose, so their rank is below n iff L is singular
        rows = [
            {j: v for j, a in enumerate(monomials(self.n, 1)) if (v := im._num.get(a))}
            for im in self.images
        ]
        stored = {}
        _fill(stored, rows, 0, self.n - 1, self.field.p, self.n)
        if len(stored) < self.n:
            raise InvalidAutomorphism("linear parts are dependent")

    def linear_matrix(self):
        """L[j][i] = coefficient of a_j in phi(a_i)."""
        unit_vecs = list(monomials(self.n, 1))
        return [
            [self.images[i].coeff(unit_vecs[j]) for i in range(self.n)]
            for j in range(self.n)
        ]

    def _lowest_change(self):
        """The lowest degree of a term of any phi(a_i) - a_i, trunc + 1 if
        there is none: phi is the identity modulo m^that."""
        # in canonical form the coefficient 1 is the numerator _den
        return min(
            1 if im._num.get(a) != im._den
            else min((sum(e) for e in im._num if e != a), default=self.trunc + 1)
            for a, im in zip(monomials(self.n, 1), self.images)
        )

    def is_unipotent(self):
        """Every phi(a_i) - a_i lies in m^2: the linear part is the identity."""
        return self._lowest_change() > 1

    def __call__(self, op):
        return subst(op, self.images)

    def _linear_inverse(self):
        """The linear parts of phi^-1(a_j), read off rref([lin | 1]) =
        [1 | lin^-1], lin = ``linear_matrix()``, invertible (checked at
        construction): phi^-1(a_j) = sum_i lin^-1[i][j] a_i."""
        n, field = self.n, self.field
        aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(self.linear_matrix())]
        red, _ = rref(aug, field, 2 * n)
        return [Operator(n, field, dict(zip(monomials(n, 1), (row[n + j] for row in red))), self.trunc)
                for j in range(n)]

    def inverse(self):
        """psi with phi(psi(a_i)) = a_i: psi(a_i) is the preimage of a_i."""
        n, field, trunc = self.n, self.field, self.trunc
        return Automorphism(
            [self._preimage(Operator.variable(n, field, i + 1, trunc)) for i in range(n)]
        )

    def _preimage(self, u):
        """The operator x with phi(x) = u, one degree per round.

        The degree-r part of phi(x) is L x_r plus terms from x below degree
        r.  So with rest = u - phi(x_{<r}) of order >= r, x_r is L^-1 of the
        degree-r part of rest, and each round substitutes only the new piece
        x_r into phi.  For unipotent phi, L^-1 is the identity.  Every round
        reads one power table of phi's images, and one of L^-1's unless phi
        is unipotent.  phi fixes
        constants, so a constant u, or zero, is its own preimage: it comes
        back as it is, at phi's truncation, with no table built and no
        round run.
        """
        _check_pair(self.images[0], u)
        if u.degree <= 0:
            return u._at(self.trunc)
        like = self.images[0]
        power = _power_table(self.images, self.trunc)
        linv = None if self.is_unipotent() else _power_table(self._linear_inverse(), self.trunc)
        x = Operator.zero(self.n, self.field, self.trunc)
        rest = u
        for r in range(self.trunc + 1):
            if rest.order > r:  # no degree-r part (the zero rest has order trunc + 1)
                continue
            part = rest.homogeneous_part(r)
            if linv is not None:
                part = _read_off(part, linv, like)
            x = x + part
            if r < self.trunc:
                rest = rest - _read_off(part, power, like)  # its degree-r part cancels
        return x

    def __repr__(self):
        return "<Automorphism %s>" % (self.images,)


def identity_automorphism(n, field, trunc):
    return Automorphism([Operator.variable(n, field, i + 1, trunc) for i in range(n)])


class Derivation:
    """D: S -> S with D(a_i) = images[i]; extended by the Leibniz rule."""

    def __init__(self, images):
        self.n, self.field, self.trunc = _check_images(images)
        self.images = list(images)

    def __call__(self, op):
        out = Operator.zero(self.n, self.field, self.trunc)
        for j in range(self.n):
            out = out + op.partial_derivative(j + 1) * self.images[j]
        return out


def apply_automorphism_dual(phi, f):
    """phi_dual(f) = sum_b <phi(a)^b, f> x^[b], the adjoint of phi."""
    _check_pair(phi, f)
    d = max(f.degree, 0)
    if phi.trunc < d:
        raise ArityMismatch("truncation %d below deg f = %d" % (phi.trunc, f.degree))
    get = f._num.get
    # the products stop at degree d, so the images need no truncation
    power = _power_table(phi.images, d)
    k = phi._lowest_change()
    vals = {}
    for deg in range(d + 1):
        for b in monomials(f.n, deg):
            if deg > d - k + 1:
                # a term of phi(a)^b with a factor from some phi(a_i) - a_i
                # has degree >= deg - 1 + k > d, so phi(a)^b is a^b here
                vals[b] = 1, get(b, 0)
                continue
            den, prod = power(b)
            # den * f._den * <phi(a)^b, f>
            vals[b] = den, sum(c * get(a, 0) for a, c in prod.items())
    L = lcm(*(den for den, _ in vals.values()))
    # keys from monomials(n, <= deg f)
    return f._make(L * f._den, {b: v * (L // den) for b, (den, v) in vals.items()})


def apply_unit(u, f):
    if not u.is_unit():
        raise NotAUnit("operator has zero constant term")
    return contract(u, f)


class GroupElement:
    """(phi, u) in Aut(S) x| S^*, acting by f |-> u -| phi_dual(f).  The
    unit is cut to phi's truncation; FieldMismatch if it is truncated below
    it, since its terms up to that degree are then unknown."""

    def __init__(self, aut, unit):
        if not unit.is_unit():
            raise NotAUnit("unit part has zero constant term")
        if unit.trunc < aut.trunc:
            raise FieldMismatch("truncation %d vs %d" % (aut.trunc, unit.trunc))
        self.aut = aut
        self.unit = unit._at(aut.trunc)

    @property
    def n(self):
        return self.aut.n

    @property
    def field(self):
        return self.aut.field

    @property
    def trunc(self):
        return self.aut.trunc

    def is_unipotent(self):
        one = (0,) * self.n
        return (
            self.aut.is_unipotent()
            and self.unit.coeff(one) == self.field.one()
        )

    def __repr__(self):
        return "<GroupElement aut=%r unit=%r>" % (self.aut.images, self.unit)


def identity_group_element(n, field, trunc):
    return GroupElement(
        identity_automorphism(n, field, trunc), Operator.one(n, field, trunc)
    )


def apply_group_element(g, f):
    return apply_unit(g.unit, apply_automorphism_dual(g.aut, f))


def compose(g, h):
    """apply(compose(g, h), f) == apply(h, apply(g, f))."""
    if g.trunc != h.trunc:
        raise FieldMismatch("truncation %d vs %d" % (g.trunc, h.trunc))
    chi = Automorphism(_substituted(h.aut.images, g.aut.images))
    unit = h.unit * h.aut._preimage(g.unit)
    return GroupElement(chi, unit)


def apply_linear_map(M, f):
    """Dual action of the linear substitution x_j -> sum_i M[j][i] x_i.

    M is n rows of n field elements (else AmbientMismatch, FieldMismatch),
    and SingularMatrix when it is singular."""
    n, field = f.n, f.field
    if len(M) != n:
        raise AmbientMismatch("matrix of %d rows, expected %d" % (len(M), n))
    _check_matrix(M, field, n)
    trunc = max(f.degree, 1)
    images = [Operator(n, field, {e: M[j][i] for j, e in enumerate(monomials(n, 1))}, trunc)
              for i in range(n)]
    try:
        phi = Automorphism(images)
    except InvalidAutomorphism:  # its one failure here: the linear parts are dependent
        raise SingularMatrix("linear map is singular") from None
    return apply_automorphism_dual(phi, f)


# ---------------------------------------------------------------------------
# Exponentials (characteristic 0 or > trunc)


def _series(term, step, k):
    """sum_{j >= 0} step^j(term) / (k + j)!, summed until a term vanishes:
    each caller's step raises the order of every term, so this ends."""
    field = term.field
    acc = Operator.zero(term.n, field, term.trunc)
    while not term.is_zero():
        acc = acc + term.scale(field.div(field.one(), field.factorial(k)))
        term = step(term)
        k += 1
    return acc


def exp_operator(w):
    """exp(w) = sum w^k / k! for w in m (else NotAUnit)."""
    char_guard(w.field, w.trunc)
    if w.order < 1:
        raise NotAUnit("exp(w) needs w in m: w has a constant term")
    return _series(Operator.one(w.n, w.field, w.trunc), w.__mul__, 0)


def exp_automorphism(D):
    """exp(D) as an automorphism, for D with every D(a_i) in m^2 (else
    InvalidAutomorphism): exp(D)(a_i) = sum D^k(a_i) / k!."""
    n, field, trunc = D.n, D.field, D.trunc
    char_guard(field, trunc)
    if any(im.order < 2 for im in D.images):
        raise InvalidAutomorphism("exp(D) needs every D(a_i) in m^2")
    return Automorphism([_series(Operator.variable(n, field, i + 1, trunc), D, 0) for i in range(n)])


def exp_group_element(D, tau):
    """The group element whose dual action is exp(f |-> D_dual f + tau -| f),
    for D with every D(a_i) in m^2 (else InvalidAutomorphism) and tau in m
    (else NotAUnit).

    The unit part is exp(sum_k (-D)^k(tau) / (k+1)!), the automorphism part
    exp(D); the tests check its action against the series of the Lie action
    summed directly on P.
    """
    aut = exp_automorphism(D)  # checks D before the series of -D runs
    minus_one = D.field.from_int(-1)
    return GroupElement(aut, exp_operator(_series(tau, lambda t: D(t).scale(minus_one), 1)))
