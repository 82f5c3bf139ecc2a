import random

import pytest

from apolar import GF, QQ, DPPoly, Operator, rref
from apolar.dp import monomials_upto


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture(scope="session")
def run_once():
    """Run each suite once per session; later calls re-raise its failure.

    The property suites are collected as tests and also make up acceptance
    criterion 11; this lets both report every suite without running its
    cases twice.
    """
    outcomes = {}

    def run(suite):
        if suite not in outcomes:
            try:
                suite()
            except Exception as exc:
                outcomes[suite] = exc
            else:
                outcomes[suite] = None
        if outcomes[suite] is not None:
            raise outcomes[suite]

    return run


def reference_solve(rows, rhs, field, ncols):
    """The particular solution of M x = rhs with the free variables 0, as
    field elements, or None when inconsistent: read off the last column of
    ``rref`` of the augmented matrix [M | rhs], the whole reduced matrix
    decoded."""
    red, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)], field, ncols + 1)
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def random_poly(rng, n, field, dmax, density=0.5, force_top=True):
    terms = {}
    for e in monomials_upto(n, dmax):
        if rng.random() < density:
            terms[e] = field.from_int(rng.randint(-4, 4))
    if force_top:
        top = tuple(dmax if i == 0 else 0 for i in range(n))
        if field.is_zero(terms.get(top, field.zero())):
            terms[top] = field.one()
    return DPPoly(n, field, terms)


def random_form(rng, n, field, d, density=0.8):
    """Random nonzero homogeneous polynomial of degree exactly d."""
    from apolar.dp import monomials

    while True:
        terms = {
            e: field.from_int(rng.randint(-4, 4))
            for e in monomials(n, d)
            if rng.random() < density
        }
        f = DPPoly(n, field, terms)
        if f.degree == d:
            return f


def with_fractions(rng, f):
    """f (a DPPoly or an Operator) over Q with each coefficient multiplied by
    1, 1/2, -3/4 or 5/3."""
    from fractions import Fraction

    scales = [Fraction(1), Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]
    terms = {e: c * rng.choice(scales) for e, c in f.terms.items()}
    if isinstance(f, Operator):
        return Operator(f.n, f.field, terms, f.trunc)
    return DPPoly(f.n, f.field, terms)


def random_operator(rng, n, field, trunc, min_order=0, density=0.5):
    terms = {}
    for e in monomials_upto(n, trunc):
        if sum(e) >= min_order and rng.random() < density:
            terms[e] = field.from_int(rng.randint(-4, 4))
    return Operator(n, field, terms, trunc)


def random_unipotent(rng, n, field, trunc):
    """A random element of the unipotent group G+."""
    from apolar import Automorphism, GroupElement

    images = []
    for i in range(n):
        terms = {tuple(1 if j == i else 0 for j in range(n)): field.one()}
        for e in monomials_upto(n, trunc):
            if sum(e) >= 2 and rng.random() < 0.4:
                terms[e] = field.from_int(rng.randint(-2, 2))
        images.append(Operator(n, field, terms, trunc))
    unit_terms = {(0,) * n: field.one()}
    for e in monomials_upto(n, trunc):
        if sum(e) >= 1 and rng.random() < 0.4:
            unit_terms[e] = field.from_int(rng.randint(-2, 2))
    return GroupElement(Automorphism(images), Operator(n, field, unit_terms, trunc))


def random_group_element(rng, n, field, trunc):
    """A random element of the full group (invertible linear part, unit)."""
    from apolar import Automorphism, GroupElement
    from apolar.errors import InvalidAutomorphism

    while True:
        images = []
        for i in range(n):
            terms = {}
            for e in monomials_upto(n, trunc):
                if 1 <= sum(e) and rng.random() < 0.4:
                    terms[e] = field.from_int(rng.randint(-2, 2))
            terms[tuple(1 if j == i else 0 for j in range(n))] = field.from_int(
                rng.choice([1, 1, 2, -1])
            )
            images.append(Operator(n, field, terms, trunc))
        unit_terms = {(0,) * n: field.from_int(rng.choice([1, 2, -1]))}
        for e in monomials_upto(n, trunc):
            if sum(e) >= 1 and rng.random() < 0.4:
                unit_terms[e] = field.from_int(rng.randint(-2, 2))
        try:
            return GroupElement(
                Automorphism(images), Operator(n, field, unit_terms, trunc)
            )
        except InvalidAutomorphism:
            continue
