"""Nine randomized property suites, 1000 cases each (500 per field, over Q
and F_101), exercising the exact-arithmetic contracts end to end.

Each suite is a ``check_*`` function listed in ``SUITES``.  Its ``test_*``
wrapper and acceptance criterion 11 both go through the session's
``run_once`` fixture, so every suite runs once per session and both report
its outcome."""

import random

import pytest

from apolar import (
    GF,
    QQ,
    Basis,
    DPPoly,
    Operator,
    Window,
    apply_automorphism_dual,
    apply_group_element,
    compose,
    contract,
    hilbert_function,
    pair,
    reduce_toward,
    span,
    symmetric_decomposition,
)
from apolar.dp import monomials_upto

from conftest import (
    random_form,
    random_group_element,
    random_operator,
    random_poly,
    random_unipotent,
)

FIELDS = [QQ, GF(101)]
CASES_PER_FIELD = 500


def _cases(seed):
    """Yield (rng, field) pairs, CASES_PER_FIELD per field."""
    for field in FIELDS:
        rng = random.Random(seed * 1000003 + field.char)
        for _ in range(CASES_PER_FIELD):
            yield rng, field


def check_commutator_identity():
    # sigma -| (x_i f) = x_i (sigma -| f) + (d sigma / d a_i) -| f
    for rng, field in _cases(1):
        n = rng.choice([1, 2, 3])
        d = rng.randint(1, 6)
        f = random_poly(rng, n, field, d, force_top=False)
        sigma = random_operator(rng, n, field, d + 1)
        i = rng.randint(1, n)
        xi = DPPoly.variable(n, field, i)
        lhs = contract(sigma, xi * f)
        rhs = xi * contract(sigma, f) + contract(sigma.partial_derivative(i), f)
        assert lhs == rhs


def check_pairing_adjointness():
    # <tau, sigma -| f> = <tau sigma, f>
    for rng, field in _cases(2):
        n = rng.choice([1, 2, 3])
        d = rng.randint(1, 6)
        f = random_poly(rng, n, field, d, force_top=False)
        sigma = random_operator(rng, n, field, d)
        tau = random_operator(rng, n, field, d)
        assert pair(tau, contract(sigma, f)) == pair(tau * sigma, f)


def check_s_module_law():
    # (sigma tau) -| f = sigma -| (tau -| f), and linearity in f
    for rng, field in _cases(3):
        n = rng.choice([1, 2, 3])
        d = rng.randint(1, 6)
        f = random_poly(rng, n, field, d, force_top=False)
        g = random_poly(rng, n, field, d, force_top=False)
        sigma = random_operator(rng, n, field, d)
        tau = random_operator(rng, n, field, d)
        assert contract(sigma * tau, f) == contract(sigma, contract(tau, f))
        assert contract(sigma, f + g) == contract(sigma, f) + contract(sigma, g)


def check_dual_automorphism_adjunction():
    # <phi(sigma), f> = <sigma, phi_dual(f)>
    for rng, field in _cases(4):
        n = rng.choice([2, 3])
        d = rng.randint(1, 4)
        f = random_poly(rng, n, field, d, force_top=False)
        g = random_group_element(rng, n, field, d)
        sigma = random_operator(rng, n, field, d)
        assert pair(g.aut(sigma), f) == pair(sigma, apply_automorphism_dual(g.aut, f))


def check_compose_contract():
    for rng, field in _cases(5):
        n = rng.choice([2, 3])
        d = rng.randint(2, 4)
        f = random_poly(rng, n, field, d, force_top=False)
        g = random_group_element(rng, n, field, d)
        h = random_group_element(rng, n, field, d)
        assert apply_group_element(compose(g, h), f) == apply_group_element(
            h, apply_group_element(g, f)
        )


def check_tdf_invariance_under_unipotent_action():
    for rng, field in _cases(6):
        n = rng.choice([2, 3])
        d = rng.randint(2, 5)
        f = random_poly(rng, n, field, d)
        g = random_unipotent(rng, n, field, d)
        assert apply_group_element(g, f).tdf() == f.tdf()


def check_trace_replay_exactness():
    # reduce a random unipotent translate back to its leading form and
    # replay the accumulated element
    for rng, field in _cases(7):
        n = 2
        d = rng.randint(3, 4)
        F = DPPoly.monomial(n, field, (d, 0)) + DPPoly.monomial(n, field, (0, d))
        g = random_unipotent(rng, n, field, d)
        f = apply_group_element(g, F)
        trace = reduce_toward(f, F)
        assert trace.final == F
        assert apply_group_element(trace.accumulated, f) == F


def check_double_perp():
    for rng, field in _cases(8):
        n = rng.choice([2, 3])
        d = rng.randint(1, 4)
        win = Window.P_upto(n, d, field)
        vecs = [
            random_poly(rng, n, field, d, force_top=False) for _ in range(rng.randint(1, 3))
        ]
        vecs = [v for v in vecs if not v.is_zero()]
        if not vecs:
            continue
        b = span(vecs, win)
        assert b.perp().perp() == b
        assert b.dim + b.perp().dim == win.dim


def check_symmetric_decomposition_sum_and_symmetry():
    for rng, field in _cases(9):
        n = rng.choice([1, 2])
        d = rng.randint(2, 5)
        f = random_poly(rng, n, field, d)
        H = hilbert_function(f)
        sd = symmetric_decomposition(f)  # construction validates internally
        for i in range(d + 1):
            total = sum(delta[i] for a, delta in enumerate(sd) if i <= d - a)
            assert total == H[i]
        for a, delta in enumerate(sd):
            for i in range(len(delta)):
                assert delta[i] == delta[d - a - i]
                assert delta[i] >= 0


SUITES = [
    check_commutator_identity,
    check_pairing_adjointness,
    check_s_module_law,
    check_dual_automorphism_adjunction,
    check_compose_contract,
    check_tdf_invariance_under_unipotent_action,
    check_trace_replay_exactness,
    check_double_perp,
    check_symmetric_decomposition_sum_and_symmetry,
]


def test_commutator_identity(run_once):
    run_once(check_commutator_identity)


def test_pairing_adjointness(run_once):
    run_once(check_pairing_adjointness)


def test_s_module_law(run_once):
    run_once(check_s_module_law)


def test_dual_automorphism_adjunction(run_once):
    run_once(check_dual_automorphism_adjunction)


def test_compose_contract(run_once):
    run_once(check_compose_contract)


def test_tdf_invariance_under_unipotent_action(run_once):
    run_once(check_tdf_invariance_under_unipotent_action)


def test_trace_replay_exactness(run_once):
    run_once(check_trace_replay_exactness)


def test_double_perp(run_once):
    run_once(check_double_perp)


def test_symmetric_decomposition_sum_and_symmetry(run_once):
    run_once(check_symmetric_decomposition_sum_and_symmetry)
