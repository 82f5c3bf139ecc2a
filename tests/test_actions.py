from fractions import Fraction as Q
from math import lcm

import pytest

from apolar import (
    GF,
    QQ,
    Automorphism,
    Derivation,
    DPPoly,
    GroupElement,
    Operator,
    apply_automorphism_dual,
    apply_group_element,
    apply_linear_map,
    apply_unit,
    compose,
    contract,
    identity_group_element,
    pair,
    reduce_toward,
    subst,
)
from apolar import actions
from apolar.actions import (
    _substituted,
    exp_automorphism,
    exp_group_element,
    exp_operator,
    identity_automorphism,
)
from apolar.dp import _by_degree, _ints_mul, monomials, monomials_upto
from apolar.errors import (
    AmbientMismatch,
    ArityMismatch,
    FieldMismatch,
    InvalidAutomorphism,
    NotAUnit,
    SingularMatrix,
)
from apolar.fields import char_guard
from apolar.linalg import rref
from apolar.parsing import parse_poly

from conftest import (
    random_group_element,
    random_operator,
    random_poly,
    random_unipotent,
    reference_solve,
    with_fractions,
)
from test_dp import _reference_opmul


def V(n, i, trunc):
    return Operator.variable(n, QQ, i, trunc)


def test_dual_automorphism_additive_shear():
    # phi(a1) = a1, phi(a2) = a1 + a2 pushes x^[3] to the full symmetric tail
    phi = Automorphism([V(2, 1, 3), V(2, 1, 3) + V(2, 2, 3)])
    F = DPPoly(2, QQ, {(3, 0): Q(1)})
    expect = DPPoly(2, QQ, {(3, 0): Q(1), (2, 1): Q(1), (1, 2): Q(1), (0, 3): Q(1)})
    assert apply_automorphism_dual(phi, F) == expect


def test_dual_automorphism_quadratic_shear():
    # phi(a2) = a2 + a1^2 on x^[4]: picks up x^[2]y and y^[2], no factorials
    phi = Automorphism([V(2, 1, 4), V(2, 2, 4) + V(2, 1, 4) * V(2, 1, 4)])
    F = DPPoly(2, QQ, {(4, 0): Q(1)})
    expect = DPPoly(2, QQ, {(4, 0): Q(1), (2, 1): Q(1), (0, 2): Q(1)})
    assert apply_automorphism_dual(phi, F) == expect


def test_identity_acts_trivially(rng):
    f = random_poly(rng, 2, QQ, 4)
    e = identity_group_element(2, QQ, 4)
    assert apply_group_element(e, f) == f


def test_automorphism_requires_invertible_linear_part():
    with pytest.raises(InvalidAutomorphism):
        Automorphism([V(2, 1, 3), V(2, 1, 3)])
    with pytest.raises(InvalidAutomorphism):
        Automorphism([V(2, 1, 3), Operator.one(2, QQ, 3)])
    # a1 + a2 and 3 a1 + 10 a2: the determinant 7 vanishes mod 7 only
    for field in (QQ, GF(7), GF(101)):
        images = [Operator(2, field, {(1, 0): 1, (0, 1): 1}, 3),
                  Operator(2, field, {(1, 0): 3, (0, 1): 10, (2, 0): 1}, 3)]
        if field == GF(7):
            with pytest.raises(InvalidAutomorphism, match="dependent"):
                Automorphism(images)
        else:
            assert Automorphism(images).linear_matrix() == [[1, 3], [1, 10]]
    # Fraction coefficients, not unipotent: det 1/2 * -3/4 - 2/3 * 5/3 != 0,
    # and a1 / 2 + a2 / 3 against 3/2 a1 + a2 has det 0
    phi = Automorphism([Operator(2, QQ, {(1, 0): Q(1, 2), (0, 1): Q(5, 3)}, 3),
                        Operator(2, QQ, {(1, 0): Q(2, 3), (0, 1): Q(-3, 4), (1, 1): Q(7, 2)}, 3)])
    assert not phi.is_unipotent()
    with pytest.raises(InvalidAutomorphism, match="dependent"):
        Automorphism([Operator(2, QQ, {(1, 0): Q(1, 2), (0, 1): Q(1, 3)}, 3),
                      Operator(2, QQ, {(1, 0): Q(3, 2), (0, 1): Q(1), (0, 2): Q(1, 5)}, 3)])
    for field in (QQ, GF(2), GF(7)):
        for n in (1, 2, 3):
            assert identity_automorphism(n, field, 3).is_unipotent()


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(7), QQ], ids=repr)
def test_automorphism_rejects_exactly_the_singular_linear_parts(rng, field):
    # random small linear parts, often singular over a small field: the
    # check agrees with the rank of linear_matrix under rref
    singular = 0
    for n in (1, 2, 3):
        for _ in range(40):
            images = [
                Operator(n, field, {**{e: field.from_int(rng.randint(-2, 2)) for e in monomials(n, 1)},
                                    **_sparse_terms(rng, n, field, [2], 1)}, 2)
                for _ in range(n)
            ]
            lin = [[im.coeff(e) for im in images] for e in monomials(n, 1)]
            rank = len(rref(lin, field, n)[0])
            if rank < n:
                singular += 1
                with pytest.raises(InvalidAutomorphism, match="dependent"):
                    Automorphism(images)
            else:
                Automorphism(images)
    assert singular > 10


def test_automorphism_inverse(rng):
    for _ in range(5):
        g = random_group_element(rng, 2, QQ, 4)
        phi = g.aut
        psi = phi.inverse()
        for i in range(2):
            assert subst(psi.images[i], phi.images) == V(2, i + 1, 4)
            assert subst(phi.images[i], psi.images) == V(2, i + 1, 4)


def test_compose_contract(rng):
    for n in (2, 3):
        for _ in range(3):
            g = random_group_element(rng, n, QQ, 4)
            h = random_group_element(rng, n, QQ, 4)
            f = random_poly(rng, n, QQ, 4)
            assert apply_group_element(compose(g, h), f) == apply_group_element(
                h, apply_group_element(g, f)
            )


def test_group_inverse(rng):
    g = random_group_element(rng, 2, QQ, 4)
    f = random_poly(rng, 2, QQ, 4)
    assert apply_group_element(_reference_group_inverse(g), apply_group_element(g, f)) == f


def test_unit_action_is_contraction():
    u = Operator(2, QQ, {(0, 0): Q(1), (1, 0): Q(2)}, 3)
    f = DPPoly(2, QQ, {(2, 1): Q(1)})
    assert apply_unit(u, f) == f + contract(Operator.variable(2, QQ, 1, 3), f).scale(Q(2))
    with pytest.raises(NotAUnit):
        apply_unit(Operator.variable(2, QQ, 1, 3), f)


def test_unipotent_detection(rng):
    g = random_unipotent(rng, 2, QQ, 4)
    assert g.is_unipotent()
    shear = GroupElement(
        Automorphism([V(2, 1, 3), V(2, 1, 3) + V(2, 2, 3)]),
        Operator.one(2, QQ, 3),
    )
    assert not shear.is_unipotent()


def test_apply_linear_map_permutation():
    # x1 <-> x2 swap
    M = [[Q(0), Q(1)], [Q(1), Q(0)]]
    f = DPPoly(2, QQ, {(3, 1): Q(5)})
    assert apply_linear_map(M, f) == DPPoly(2, QQ, {(1, 3): Q(5)})
    with pytest.raises(SingularMatrix):
        apply_linear_map([[Q(1), Q(1)], [Q(1), Q(1)]], f)


def test_apply_linear_map_preserves_degree(rng):
    M = [[Q(1), Q(2)], [Q(0), Q(1)]]
    F = DPPoly(2, QQ, {(2, 2): Q(1)})
    out = apply_linear_map(M, F)
    assert out.tdf() == out and out.degree == 4


def test_apply_linear_map_requires_n_rows_of_n_field_elements():
    # a third row was ignored, so the map was applied as the identity; a
    # 3 x 2 matrix with dependent first rows raised InvalidAutomorphism and
    # a 1 x 2 one SingularMatrix
    f = DPPoly(2, QQ, {(3, 1): Q(5), (0, 2): Q(1)})
    for M in ([[1, 0], [0, 1], [5, 7]], [[1, 0], [1, 0], [0, 1]], [[1, 0]], [[1, 0], [0]], []):
        with pytest.raises(AmbientMismatch):
            apply_linear_map(M, f)
    with pytest.raises(FieldMismatch):
        apply_linear_map([[1, 0], [0, 1.0]], f)
    with pytest.raises(FieldMismatch):
        apply_linear_map([[Q(1, 2), 0], [0, 1]], DPPoly(2, GF(7), {(1, 1): 1}))
    # the determinant 7 vanishes mod 7 only
    M = [[1, 3], [1, 10]]
    with pytest.raises(SingularMatrix):
        apply_linear_map(M, DPPoly(2, GF(7), {(1, 1): 1}))
    assert apply_linear_map(M, DPPoly(2, GF(101), {(1, 0): 1})) == DPPoly(2, GF(101), {(1, 0): 1, (0, 1): 3})


def test_derivation_checks_its_images_as_automorphism_does():
    # Derivation([]) raised IndexError, and a derivation with fewer images
    # than variables was accepted and raised IndexError when applied
    a1 = V(2, 1, 4)
    cases = [
        ([], InvalidAutomorphism),
        ([a1 * a1], ArityMismatch),  # one image in two variables
        ([a1 * a1, a1, a1], ArityMismatch),
        ([a1 * a1, V(3, 1, 4)], FieldMismatch),  # mixed arity
        ([a1 * a1, Operator.variable(2, GF(7), 2, 4)], FieldMismatch),  # mixed field
        ([a1 * a1, Operator.one(2, QQ, 4)], InvalidAutomorphism),  # a constant term
    ]
    for images, error in cases:
        for cls in (Automorphism, Derivation):
            with pytest.raises(error):
                cls(images)
    D = Derivation([a1 * a1, Operator.zero(2, QQ, 4)])
    assert D(V(2, 2, 4)).is_zero() and D(a1) == a1 * a1


def test_images_must_be_operators():
    # a DPPoly image raised AttributeError from reading its order
    f = DPPoly(2, QQ, {(1, 0): 1})
    for images in ([f, f], [V(2, 1, 3), f], [V(2, 1, 3), None]):
        for cls in (Automorphism, Derivation):
            with pytest.raises(InvalidAutomorphism, match="not an Operator"):
                cls(images)


def test_derivation_leibniz():
    D = Derivation([V(2, 2, 4) * V(2, 2, 4), Operator.zero(2, QQ, 4)])
    s = V(2, 1, 4) * V(2, 1, 4)
    # D(a1^2) = 2 a1 D(a1)
    assert D(s) == (V(2, 1, 4) * V(2, 2, 4) * V(2, 2, 4)).scale(Q(2))


def test_exp_operator():
    w = Operator(1, QQ, {(1,): Q(1)}, 3)
    e = exp_operator(w)
    assert e.terms == {(0,): Q(1), (1,): Q(1), (2,): Q(1, 2), (3,): Q(1, 6)}


def test_exp_automorphism_is_automorphism():
    D = Derivation([Operator.zero(2, QQ, 4), V(2, 1, 4) * V(2, 1, 4)])
    phi = exp_automorphism(D)
    assert phi.images[0] == V(2, 1, 4)
    # exp of a nilpotent-ish derivation: a2 + a1^2 + ...
    assert phi.images[1].coeff((2, 0)) == Q(1)


def test_exp_group_element_matches_lie_exponential(rng):
    for n in (2, 3):
        for _ in range(3):
            trunc = 4
            imgs = []
            for i in range(n):
                a = Operator.variable(n, QQ, i + 1, trunc)
                imgs.append(a * a)  # something in m^2
            D = Derivation(imgs)
            tau = Operator(
                n,
                QQ,
                {tuple(1 if j == 0 else 0 for j in range(n)): Q(rng.randint(1, 3))},
                trunc,
            )
            f = random_poly(rng, n, QQ, trunc)
            g = exp_group_element(D, tau)
            assert apply_group_element(g, f) == _reference_exp_lie_apply(D, tau, f)
            assert g.is_unipotent()


def test_exponentials_check_their_hypotheses():
    # D(a_1) = a_2 is not in m^2 and exp(D) was returned all the same; for
    # w = 1 + a1 exp_operator returned a partial sum of exp(1) exp(a1)
    n, trunc = 2, 4
    a1, a2 = V(n, 1, trunc), V(n, 2, trunc)
    zero = Operator.zero(n, QQ, trunc)
    D = Derivation([a2, zero])
    with pytest.raises(InvalidAutomorphism, match="m\\^2"):
        exp_automorphism(D)
    with pytest.raises(InvalidAutomorphism, match="m\\^2"):
        exp_group_element(D, a1)
    one = Operator.one(n, QQ, trunc)
    with pytest.raises(NotAUnit, match="in m"):
        exp_operator(one + a1)
    with pytest.raises(NotAUnit, match="in m"):
        exp_group_element(Derivation([a2 * a2, zero]), one + a1)


def test_lie_apply_lowers_degree_for_unipotent_data():
    n, trunc = 2, 5
    a1 = Operator.variable(n, QQ, 1, trunc)
    D = Derivation([a1 * a1, a1 * a1 * a1])
    tau = a1
    f = DPPoly(n, QQ, {(3, 2): Q(1)})
    out = _reference_lie_apply(D, tau, f)
    assert out.degree <= f.degree  # D in m^2 keeps degree, tau lowers


def test_dual_adjunction_spot(rng):
    # <phi(sigma), f> = <sigma, phi_dual(f)>
    g = random_group_element(rng, 2, QQ, 4)
    phi = g.aut
    f = random_poly(rng, 2, QQ, 4)
    sigma = Operator(2, QQ, {(2, 1): Q(3), (1, 0): Q(-1)}, 4)
    assert pair(phi(sigma), f) == pair(sigma, apply_automorphism_dual(phi, f))


def test_compose_rejects_mixed_truncations():
    one = Operator.one(1, QQ, 4)
    g = GroupElement(Automorphism([V(1, 1, 4)]), one + V(1, 1, 4).power(4))
    h = identity_group_element(1, QQ, 3)
    with pytest.raises(FieldMismatch, match="truncation 4 vs 3"):
        compose(g, h)


def test_images_and_units_share_their_automorphism_truncation():
    # an image or unit truncated below the automorphism's truncation was
    # raised to it, its unknown terms of degree 2..4 reading as zero, and a
    # derivation raised only when applied
    a1, a2 = V(2, 1, 4), V(2, 2, 4)
    with pytest.raises(FieldMismatch, match="truncation 4 vs 1"):
        Automorphism([a1, V(2, 2, 1)])
    with pytest.raises(FieldMismatch, match="truncation 4 vs 2"):
        Derivation([a1 * a1, Operator.zero(2, QQ, 2)])
    with pytest.raises(FieldMismatch, match="truncation 1 vs 4"):
        Automorphism([V(2, 1, 1), a2])
    phi = identity_automorphism(2, QQ, 4)
    with pytest.raises(FieldMismatch, match="truncation 4 vs 1"):
        GroupElement(phi, Operator.one(2, QQ, 1) + V(2, 1, 1))
    # a unit truncated above phi's is cut to phi's truncation, as before
    g = GroupElement(phi, Operator.one(2, QQ, 6) + V(2, 1, 6).power(5) + V(2, 2, 6))
    assert g.unit == Operator.one(2, QQ, 4) + a2 and g.unit.trunc == 4


def test_subst_checks_its_images():
    op = V(2, 1, 3) * V(2, 2, 3)
    with pytest.raises(ArityMismatch):
        subst(op, [V(2, 1, 3)])
    with pytest.raises(ArityMismatch):
        subst(op, [])
    with pytest.raises(ArityMismatch):
        subst(op, [Operator.variable(3, QQ, i, 3) for i in (1, 2)])
    with pytest.raises(FieldMismatch):
        subst(op, [Operator.variable(2, GF(7), i, 3) for i in (1, 2)])
    with pytest.raises(FieldMismatch):
        subst(op, [V(2, 1, 3), V(2, 2, 4)])
    with pytest.raises(ArityMismatch):
        apply_automorphism_dual(identity_automorphism(3, QQ, 3), DPPoly(2, QQ, {(1, 1): Q(1)}))


# ---------------------------------------------------------------------------
# Oracles of the group layer computed directly on P: the Lie algebra action
# f |-> D_dual f + tau -| f, its exponential summed as a series, and the
# inverse group element.


def _reference_apply_derivation_dual(D, f):
    """D_dual(f) = sum_i x_i (D(a_i) -| f)."""
    n, field = f.n, f.field
    out = DPPoly.zero(n, field)
    for i in range(n):
        g = contract(D.images[i], f)
        if not g.is_zero():
            out = out + DPPoly.variable(n, field, i + 1) * g
    return out


def _reference_lie_apply(D, tau, f):
    """The Lie algebra action: D_dual(f) + tau -| f."""
    return _reference_apply_derivation_dual(D, f) + contract(tau, f)


def _reference_exp_lie_apply(D, tau, f):
    """exp of the Lie algebra action, sum_k L^k(f) / k!, L the action."""
    char_guard(f.field, max(f.degree, 0))
    result = term = f
    k = 1
    while not (term := _reference_lie_apply(D, tau, term)).is_zero():
        result = result + term.scale(f.field.div(f.field.one(), f.field.factorial(k)))
        k += 1
    return result


def _reference_group_inverse(g):
    """h with compose(g, h) acting as the identity: (phi^-1, phi(u)^-1)."""
    return GroupElement(g.aut.inverse(), subst(g.unit, g.aut.images).inverse())


# ---------------------------------------------------------------------------
# Differential oracles: the previous fixed-point inverse, D^a form of the dual
# action and Operator-per-term substitution, against the library's versions.
# Their products are the field-coefficient double loop ``_reference_opmul``,
# so they share no code with the library's integer product.


def _reference_subst(op, images):
    """Substitution as one Operator product per term, seeded with 1."""
    n, field = op.n, op.field
    trunc = images[0].trunc
    pow_cache = [{0: Operator.one(n, field, trunc)} for _ in range(n)]

    def power(i, k):
        cache = pow_cache[i]
        if k not in cache:
            cache[k] = _reference_opmul(power(i, k - 1), images[i])
        return cache[k]

    result = Operator.zero(n, field, trunc)
    for e, c in op.terms.items():
        term = Operator.one(n, field, trunc).scale(c)
        for i, a in enumerate(e):
            if a:
                term = _reference_opmul(term, power(i, a))
        result = result + term
    return result


def _reference_inverse(phi):
    """psi = L^-1 a corrected by psi -= L^-1(psi(phi) - a) until exact."""
    n, field, trunc = phi.n, phi.field, phi.trunc
    lin = phi.linear_matrix()
    linv_images = []
    for i in range(n):
        col = reference_solve(lin, [field.one() if j == i else field.zero() for j in range(n)], field, n)
        terms = {e: c for e, c in zip(monomials(n, 1), col) if not field.is_zero(c)}
        linv_images.append(Operator(n, field, terms, trunc))
    psi = list(linv_images)
    for _ in range(trunc + 1):
        errs = [
            _reference_subst(psi[i], phi.images) - Operator.variable(n, field, i + 1, trunc)
            for i in range(n)
        ]
        if all(e.is_zero() for e in errs):
            break
        psi = [psi[i] - _reference_subst(errs[i], linv_images) for i in range(n)]
    return Automorphism(psi)


def _reference_apply_dual(phi, f):
    """phi_dual(f) = sum_a x^[a] (D^a -| f) with D_i = phi(a_i) - a_i."""
    n, field = f.n, f.field
    diffs = [phi.images[i] - Operator.variable(n, field, i + 1, phi.trunc) for i in range(n)]
    result = DPPoly.zero(n, field)
    cache = {(0,) * n: Operator.one(n, field, phi.trunc)}
    for deg in range(max(f.degree, 0) + 1):
        for a in monomials(n, deg):
            if a not in cache:
                i = next(k for k, ak in enumerate(a) if ak)
                cache[a] = _reference_opmul(cache[a[:i] + (a[i] - 1,) + a[i + 1 :]], diffs[i])
            g = contract(cache[a], f)
            if not g.is_zero():
                result = result + DPPoly.monomial(n, field, a) * g
    return result


def _reference_full_table_apply_dual(phi, f):
    """phi_dual(f) read off the power table phi(a)^b of every |b| <= deg f,
    the unchanged degrees included."""
    d = max(f.degree, 0)
    n = f.n
    get = f._num.get
    images = [_by_degree(im._den, im._num) for im in phi.images]
    powers = {(0,) * n: (1, {(0,) * n: 1})}
    vals = {}
    for deg in range(d + 1):
        for b in monomials(n, deg):
            if b not in powers:
                i = next(k for k, bk in enumerate(b) if bk)
                prev = b[:i] + (b[i] - 1,) + b[i + 1 :]
                powers[b] = _ints_mul(powers[prev], images[i], d)
            den, prod = powers[b]
            vals[b] = den, sum(c * get(a, 0) for a, c in prod.items())
    L = lcm(*(den for den, _ in vals.values()))
    return f._make(L * f._den, {b: v * (L // den) for b, (den, v) in vals.items()})


def _reference_lowest_change(phi):
    """The lowest degree of a term of any phi(a_i) - a_i; trunc + 1 if none."""
    n, field, trunc = phi.n, phi.field, phi.trunc
    return min((im - Operator.variable(n, field, i + 1, trunc)).order
               for i, im in enumerate(phi.images))


def _scalar(rng, field, fractions=False):
    """A random integer in -3..3, divided by 1, 2, 3 or 4 if ``fractions``."""
    if fractions:
        return field.from_fraction(Q(rng.randint(-3, 3), rng.choice((1, 2, 3, 4))))
    return field.from_int(rng.randint(-3, 3))


def _sparse_terms(rng, n, field, degrees, count, fractions=False):
    """Up to ``count`` random monomials of the given degrees with ``_scalar``
    coefficients."""
    exps = [e for e in monomials_upto(n, max(degrees, default=0)) if sum(e) in degrees]
    return {e: _scalar(rng, field, fractions) for e in rng.sample(exps, min(count, len(exps)))}


def _oracle_automorphism(rng, n, field, trunc, shape):
    """An automorphism of one of the shapes the library builds or meets:

    * "linear": a random invertible, generally non-unipotent linear part
      plus sparse terms of every degree 2..trunc;
    * "fractions": the same with coefficients a / b, b in 1..4, so that
      over Q the images have denominators;
    * "step": a_i -> a_i - D_i with D_i homogeneous of one degree >= 2, as
      the homogeneous reduction step builds it;
    * "exp": exp(D) for a derivation D with every D(a_i) in m^2, as the
      general reduction step builds it.
    """
    high = range(2, trunc + 1)
    if shape in ("linear", "fractions"):
        fractions = shape == "fractions"
        while True:
            images = []
            for i in range(n):
                terms = _sparse_terms(rng, n, field, high, 3, fractions)
                for e in monomials(n, 1):
                    terms[e] = _scalar(rng, field, fractions)
                images.append(Operator(n, field, terms, trunc))
            try:
                return Automorphism(images)
            except InvalidAutomorphism:
                continue
    if shape == "step":
        k = rng.randint(2, max(trunc, 2))
        return Automorphism([
            Operator.variable(n, field, i + 1, trunc)
            - Operator(n, field, _sparse_terms(rng, n, field, [k], 3), trunc)
            for i in range(n)
        ])
    D = Derivation([
        Operator(n, field, _sparse_terms(rng, n, field, range(2, 4), 2), trunc)
        for _ in range(n)
    ])
    return exp_automorphism(D)


@pytest.mark.parametrize("shape", ["linear", "fractions", "step", "exp"])
@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=repr)
def test_group_layer_matches_reference_oracles(rng, field, shape):
    for n in (1, 2, 3):
        for trunc in range(1, 7):
            phi = _oracle_automorphism(rng, n, field, trunc, shape)
            psi = phi.inverse()
            assert psi.images == _reference_inverse(phi).images
            sigmas = [
                random_operator(rng, n, field, trunc, density=0.4),
                random_operator(rng, n, field, trunc + 1, min_order=1, density=0.3),
            ]
            f = random_poly(rng, n, field, trunc, force_top=False)
            if shape == "fractions" and field.is_rationals:
                sigmas = [with_fractions(rng, sigma) for sigma in sigmas]
                f = with_fractions(rng, f)
            for sigma in sigmas:
                for images in (phi.images, psi.images):
                    out = subst(sigma, images)
                    assert out == _reference_subst(sigma, images)
                    assert out.trunc == trunc
            assert apply_automorphism_dual(phi, f) == _reference_apply_dual(phi, f)
            assert apply_automorphism_dual(psi, f) == _reference_apply_dual(psi, f)


@pytest.mark.parametrize("shape", ["linear", "fractions", "step", "exp"])
@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=repr)
def test_dual_action_matches_the_full_power_table(rng, field, shape):
    # f of every degree up to trunc, so trunc > deg f, and for "step" and
    # "exp" also phi unchanged through degree deg f + 1 (d - s < 0 in the
    # notation of the module docstring), where phi_dual(f) is f
    untouched = 0
    for n in (1, 2, 3):
        for trunc in range(1, 7):
            phi = _oracle_automorphism(rng, n, field, trunc, shape)
            for deg in range(trunc + 1):
                f = random_poly(rng, n, field, deg)
                if shape == "fractions" and field.is_rationals:
                    f = with_fractions(rng, f)
                out = apply_automorphism_dual(phi, f)
                assert out == _reference_full_table_apply_dual(phi, f), (n, trunc, deg)
                if _reference_lowest_change(phi) > deg + 1:
                    untouched += 1
                    assert out == f
    assert untouched > 20 or shape in ("linear", "fractions")


# ---------------------------------------------------------------------------
# compose solves phi(x) = u for x = phi^-1(u) instead of inverting phi: the
# substitution into the reference inverse and the previous compose are its
# oracles.


def _reference_compose(g, h):
    """(phi o psi, v * psi^-1(u)) with psi^-1 from ``_reference_inverse``."""
    chi = Automorphism([subst(im, g.aut.images) for im in h.aut.images])
    return GroupElement(chi, h.unit * subst(g.unit, _reference_inverse(h.aut).images))


def _preimage_operators(rng, n, field, trunc):
    """A unit, a unit with a constant other than 1, a non-unit, the
    constants 1 and 3, and zero."""
    one = Operator.one(n, field, trunc)
    unit = random_operator(rng, n, field, trunc, min_order=1) + one
    return [unit, unit.scale(field.from_int(3)), random_operator(rng, n, field, trunc, min_order=1),
            one, one.scale(field.from_int(3)), Operator.zero(n, field, trunc)]


@pytest.mark.parametrize("shape", ["linear", "fractions", "step", "exp"])
@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=repr)
def test_preimage_matches_substitution_into_the_inverse(rng, field, shape):
    # "step" and "exp" have the identity linear part, as every unipotent
    # reduction step; "linear" and "fractions" mostly others
    identity = []
    for n in (1, 2, 3):
        for trunc in range(1, 7):
            phi = _oracle_automorphism(rng, n, field, trunc, shape)
            identity.append(phi.linear_matrix() == identity_automorphism(n, field, 1).linear_matrix())
            assert phi.is_unipotent() == identity[-1]
            inv_images = _reference_inverse(phi).images
            for u in _preimage_operators(rng, n, field, trunc):
                if shape == "fractions" and field.is_rationals:
                    u = with_fractions(rng, u)
                x = phi._preimage(u)
                assert x == subst(u, inv_images), (n, trunc, u)
                assert x.trunc == trunc
                assert subst(x, phi.images) == u
    assert all(identity) if shape in ("step", "exp") else identity.count(False) > 10


@pytest.mark.parametrize("shape", ["linear", "step"])
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_preimage_of_a_constant_is_the_constant(rng, field, shape, monkeypatch):
    # phi fixes constants: a constant u, or zero, comes back as it is, at
    # phi's truncation, with no table built and no round run; a wrong field
    # or arity still raises, for a constant, zero and any other u alike
    tables = []
    power_table = actions._power_table
    monkeypatch.setattr(actions, "_power_table", lambda *a: tables.append(a) or power_table(*a))
    unipotent = set()
    for n in (1, 2, 3):
        for trunc in range(1, 6):
            phi = _oracle_automorphism(rng, n, field, trunc, shape)
            unipotent.add(phi.is_unipotent())
            for c in (1, 3, 0):
                for t in (trunc, trunc + 2):
                    u = Operator.one(n, field, t).scale(field.from_int(c))
                    x = phi._preimage(u)
                    assert x == u and x.trunc == trunc, (n, trunc, c, t)
            for wrong in (Operator.one(n, GF(5), trunc), Operator.zero(n, GF(5), trunc),
                          Operator.variable(n, GF(5), 1, trunc)):
                with pytest.raises(FieldMismatch):
                    phi._preimage(wrong)
            for wrong in (Operator.one(n + 1, field, trunc), Operator.zero(n + 1, field, trunc)):
                with pytest.raises(ArityMismatch):
                    phi._preimage(wrong)
    assert tables == []
    assert unipotent == {True} if shape == "step" else False in unipotent


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=repr)
def test_compose_is_associative(rng, field):
    # a trace folds its steps from the last, compose(g, compose(h, k)); the
    # reference folds them from the first, compose(compose(g, h), k)
    for n in (1, 2, 3):
        for trunc in range(1, 6):
            g, h, k = (random_group_element(rng, n, field, trunc) for _ in range(3))
            right, left = compose(g, compose(h, k)), compose(compose(g, h), k)
            assert right.aut.images == left.aut.images and right.unit == left.unit


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=repr)
def test_compose_matches_reference_compose(rng, field):
    for n in (1, 2, 3):
        for trunc in range(1, 7):
            for make_g, make_h in [
                (random_group_element, random_group_element),
                (random_unipotent, random_unipotent),
                (random_group_element, random_unipotent),
            ]:
                g, h = make_g(rng, n, field, trunc), make_h(rng, n, field, trunc)
                got, want = compose(g, h), _reference_compose(g, h)
                assert got.aut.images == want.aut.images
                assert got.unit == want.unit
                assert (got.n, got.field, got.trunc) == (want.n, want.field, want.trunc)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_substitutions_share_one_power_cache(rng, field, monkeypatch):
    # compose substitutes all n images of psi into phi at once: each power of
    # phi's images is multiplied out once, not once per image of psi
    products = []
    ints_mul = actions._ints_mul
    monkeypatch.setattr(actions, "_ints_mul", lambda *a: products.append(a) or ints_mul(*a))
    for n in (2, 3):
        phi = random_group_element(rng, n, field, 5).aut
        ops = [random_operator(rng, n, field, 5, min_order=1) for _ in range(n)]
        ops[0] = ops[1] + Operator.variable(n, field, 1, 5).power(4)
        products.clear()
        each = [subst(op, phi.images) for op in ops]
        separate = len(products)
        products.clear()
        assert _substituted(ops, phi.images) == each
        assert len(products) < separate
    with pytest.raises(ArityMismatch):
        _substituted([ops[0], V(2, 1, 5)], phi.images)


@pytest.mark.parametrize("shape", ["linear", "step"])
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_preimage_multiplies_no_pair_of_factors_twice(rng, field, shape, monkeypatch):
    # every round of _preimage reads one power table of phi's images (and
    # one of L^-1's), so a power one round built is not built again
    products = []
    ints_mul = actions._ints_mul
    monkeypatch.setattr(actions, "_ints_mul", lambda *a: products.append(a) or ints_mul(*a))
    for n in (2, 3):
        for trunc in (4, 5):
            phi = _oracle_automorphism(rng, n, field, trunc, shape)
            # parts in every degree 0..trunc, dense in degrees 2 and 3
            u = random_operator(rng, n, field, trunc) + Operator(
                n, field, {e: field.from_int(rng.randint(1, 3)) for d in (2, 3) for e in monomials(n, d)}, trunc)
            products.clear()
            x = phi._preimage(u)
            pairs = [(xd, tuple(sorted(xs.items())), yd, tuple(ys)) for (xd, xs), (yd, ys), _ in products]
            assert len(set(pairs)) == len(pairs) > 0, (n, trunc)
            assert x == subst(u, _reference_inverse(phi).images)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_a_step_multiplies_out_only_the_degrees_it_changes(rng, field, monkeypatch):
    # a_i -> a_i - D_i with D_i homogeneous of degree k: phi(a)^b is a^b
    # below degree d + 1 once |b| > d - k + 1, so no such power is built
    products = []
    ints_mul = actions._ints_mul
    monkeypatch.setattr(actions, "_ints_mul", lambda *a: products.append(a) or ints_mul(*a))
    for n in (1, 2, 3):
        for d in range(1, 7):
            for k in range(2, d + 3):
                phi = Automorphism([
                    Operator.variable(n, field, i + 1, d + 1)
                    - Operator(n, field, _sparse_terms(rng, n, field, [k], 3), d + 1)
                    for i in range(n)
                ])
                f = random_poly(rng, n, field, d)
                products.clear()
                assert apply_automorphism_dual(phi, f) == _reference_full_table_apply_dual(phi, f)
                # the table entry a product builds has degree one above its
                # left factor's, whose lowest term is a^prev
                built = [min(map(sum, x[1])) + 1 for x, _, _ in products]
                assert max(built, default=0) <= max(d - k + 1, 0), (n, d, k)
                assert max(built, default=0) == max(d - _reference_lowest_change(phi) + 1, 0)


def test_reduction_inverts_no_automorphism(monkeypatch):
    # a unipotent member case: every step's compose solves for psi^-1(u)
    calls = []
    inverse = Automorphism.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Automorphism, "inverse", counting)
    F = parse_poly("x1^[4] + x2^[4]", 2, QQ)
    f = parse_poly("x1^[4] + x2^[4] + x1^[2]*x2", 2, QQ)
    trace = reduce_toward(f, F)
    assert len(trace) >= 1 and trace.final == F
    assert calls == []
