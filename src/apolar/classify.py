"""Reduction algorithms: leading-form removal, unipotent orbit membership,
t-compressed and annihilator-square normal forms, and the golden examples.

The workhorse is ``lower_degree_step``: given f and a target F with
G = tdf(f - F) of degree e < deg F, it finds g in the unipotent group G+
with deg(apply(g, f) - F) < e.  Two solvers are tried in order:

* a homogeneous solve of G = sum_i x_i (D_i -| tdf F) + tau -| tdf F in P_e
  with D_i, tau homogeneous of degrees d-e+1 and d-e, assembled as
  (a_i -> a_i - D_i, 1 - tau) -- all corrections land strictly below e.
  Each image and the unit is one ``_make`` of the solver's numerators over
  its denominator: D_i has degree >= 2 and tau degree >= 1, so no key
  meets a_i or 1.  The element is the identity modulo m^{d-e+1}, so its
  dual action multiplies out only the degrees <= e;
* an exact mixed-degree solve of the same equation against the full F in
  P_{<= d-1}, assembled as the exponential of the corresponding Lie algebra
  element, so the identity L F = G turns into apply(g, f) = f - G + (lower).

Both read one system (``_solve_tangent_system``) built from integer rows:
the contraction rows x^e -| D F filled by exponent lookup from F's stored
numerators (D = F._den) and their shifts x_i x^[u] = (u_i + 1) x^[u + e_i],
with no ``contract`` and no DPPoly product.  ``linalg._solve`` hands back
its solution as integer numerators over one denominator, the stored form
of an Operator, so no Fraction is built between the sweep and the step's
element.  If neither system is solvable the leading term is certifiably
outside the tangent space and NotInTangent is raised.

What G+ can clear in one degree is decided in one place,
``tangent_residue(f, e)``: G+ changes f_e, keeping every degree above e,
exactly modulo gr_e(T+_f cap P_{<=e}), the degree-e parts of unipotent
tangent vectors with no terms above e.  Operators of positive order send
f_{<=e} below degree e, so that space depends only on f_{>e}; it is read
off one echelon form of the tangent space of f_{>e}, columns highest
degree first (``_tangent_quotient``).  Reducing f_e against it
leaves a canonical residue on the non-pivot monomials, and one
``lower_degree_step`` clears the rest.  ``golden_1222111`` runs it in every
degree below the leading form and reads c and lambda off the residues;
``stabilizer_matrix_13331`` reduces its tail images against one quotient.

Every reduction returns a ``ReductionTrace`` built from its steps alone:
``reduce_toward`` collects the (g, f') pairs of ``lower_degree_step``'s
steps, each handing the next the difference f' - F it formed, and
``golden_1222111`` its residue steps and diagonal rescaling.  The trace
derives its final polynomial and accumulated element from the steps and
replays them on construction.

The golden examples' expected facts live only in ``data/golden_*.json``,
and each polynomial of the (1,3,3,3,1) classification is written once, as
it prints, and parsed.  One table, ``_GOLDEN``, maps each golden name to the
function that builds its facts; ``golden_facts`` and the CLI's ``golden``
choices read it.  The facts are compared with the data file in one place
(``_check_golden``), which raises GoldenMismatch naming every key that
differs.
"""

import json
import math
from importlib import resources

from .actions import (
    Automorphism,
    Derivation,
    GroupElement,
    apply_group_element,
    apply_linear_map,
    compose,
    exp_group_element,
    identity_group_element,
)
from .apolarity import (
    _contraction_rows,
    _image,
    _shift_table,
    _square,
    _square_pieces,
    dim_apolar,
    hilbert_function,
    max_t_compressed,
    module_sf,
    symmetric_decomposition,
)
from .dp import DPPoly, Operator, contract, monomials, monomials_upto, omega_inv
from .errors import (
    GoldenMismatch,
    GuardError,
    HypothesisFailed,
    IndexOutOfRange,
    NotInTangent,
    NotTCompressed,
    ReductionFailed,
    TdfMismatch,
    WrongHilbertFunction,
    ZeroPolynomial,
)
from .fields import QQ, GF, char_guard
from .linalg import Basis, Window, _echelon, _solve
from .parsing import operator_str, parse_classical_poly, parse_poly, poly_str
from .tangent import _tangent_batches, perp_tangent, tangent_space


class ReductionTrace:
    """A successful reduction: the steps from ``start`` toward ``target``.

    ``steps`` is a list of (GroupElement, resulting DPPoly), each element
    applied to the result before it.  ``final`` is the last result (``start``
    when there are no steps) and ``accumulated`` the composite of the steps'
    elements, ``compose`` folded from the last step (the identity when there
    are none): ``compose`` is associative and exact, so this is the same
    element as the fold from the first.  Replaying ``accumulated`` on
    ``start`` must reproduce ``final`` exactly, and the degree of the
    difference to ``target`` strictly decreases along the steps.
    """

    def __init__(self, start, target, steps):
        self.start = start
        self.target = target
        self.steps = steps
        if steps:
            self.final = steps[-1][1]
            # compose(g_1, compose(g_2, ... g_k)): each fold substitutes the
            # sparse images of a step g into the accumulated ones and takes
            # the preimage of g's unit, mostly the constant 1, under them
            acc = steps[-1][0]
            for g, _ in reversed(steps[:-1]):
                acc = compose(g, acc)
            self.accumulated = acc
        else:
            self.final = start
            trunc = max(start.degree, target.degree, 1)
            self.accumulated = identity_group_element(start.n, start.field, trunc)
        self.validate()

    def validate(self):
        if apply_group_element(self.accumulated, self.start) != self.final:
            raise ReductionFailed("accumulated element does not replay the trace")
        last = (self.start - self.target).degree
        for _, result in self.steps:
            cur = (result - self.target).degree
            if cur >= last:
                raise ReductionFailed("difference degree did not decrease")
            last = cur

    def __len__(self):
        return len(self.steps)

    def __repr__(self):
        return "<ReductionTrace %d steps, final=%r>" % (len(self.steps), self.final)


def _solve_tangent_system(G, F, win, d_exps, tau_exps):
    """Solve G = sum_i x_i (D_i -| F) + tau -| F in the window ``win``, with
    each D_i spanned by the monomials ``d_exps`` and tau by ``tau_exps``.

    The columns are sparse integer rows: the x_i shifts (``_shift_table``,
    ``_image``) of the contractions x^e -| D F one degree below the window,
    i-major,
    then the contractions x^e -| D F for tau (``_contraction_rows``), filled
    from F's stored numerators, so D = F._den (D = 1 over F_p); they are
    transposed into the sparse rows of the system.  So the right side is
    D G, and with G = G._num / G._den the rows [G._den D M | D G._num] are
    integers with the same reduced echelon form as [M | G], and ``_solve``
    sets the free variables to zero, so the solution depends on the column
    order.  Returns (den, d_terms, tau_terms), the negated solution as
    ``_make`` takes it: the numerators of -D_1 .. -D_n and -tau over den,
    nonzero ones only, or None when the system is inconsistent.
    """
    n = F.n
    inner = tuple(k - 1 for k in win.degrees if k >= 1)
    inner_rows = _contraction_rows(F, d_exps, inner)
    cols = [_image((g, *shift)) for shift in _shift_table(n, inner, win.degrees) for g in inner_rows]
    cols += _contraction_rows(F, tau_exps, win.degrees)
    # the rows of [M | G] scaled by D G._den: [G._den D M | D G._num]
    rows = [{} for _ in range(win.dim)]
    for k, col in enumerate(cols):
        for r, x in col.items():
            rows[r][k] = G._den * x
    for e, c in G._num.items():
        rows[win.index[e]][len(cols)] = F._den * c
    sol = _solve(rows, F.field.p, len(cols))
    if sol is None:
        return None
    den, num = sol
    d_terms, tau_terms = [{} for _ in range(n)], {}
    labels = [(terms, e) for terms in d_terms for e in d_exps] + [(tau_terms, e) for e in tau_exps]
    for k, v in num.items():
        terms, e = labels[k]
        terms[e] = -v
    return den, d_terms, tau_terms


def _solve_homogeneous_step(G, F):
    """Solve G = sum_i x_i (D_i -| T) + tau -| T with T = tdf(F), homogeneous
    D_i of degree d-e+1 and tau of degree d-e, in P_e.  Returns a
    GroupElement built as (a_i -> a_i - D_i, 1 - tau), or None when the
    system is inconsistent.
    """
    n, field = F.n, F.field
    T = F.tdf()
    d, e = T.degree, G.degree
    win = Window.P_graded(n, e, field)
    sol = _solve_tangent_system(G, T, win, monomials(n, d - e + 1), monomials(n, d - e))
    if sol is None:
        return None
    den, d_terms, tau_terms = sol
    zero = Operator.zero(n, field, d)
    # D_i has degree d-e+1 >= 2 and tau degree d-e >= 1: no key meets a_i or
    # 1.  At e = 0 the D_i columns are zero (degree d+1 contracts T to 0), so
    # every key has degree <= d, the truncation.
    images = [zero._make(den, {a: den, **d_terms[i]}) for i, a in enumerate(monomials(n, 1))]
    unit = zero._make(den, {(0,) * n: den, **tau_terms})
    return GroupElement(Automorphism(images), unit)


def _solve_general_step(G, F):
    """Solve sum_i x_i (D_i -| F) + tau -| F = G exactly in P_{<= d-1}, with
    D_i in m^2 and tau in m of arbitrary degrees, and assemble exp of the
    Lie element (-D, -tau).  Returns None when the system is inconsistent.
    """
    n, field = F.n, F.field
    d = F.degree
    win = Window.P_upto(n, d - 1, field)
    exps = list(monomials_upto(n, d))
    sol = _solve_tangent_system(
        G, F, win, [e for e in exps if sum(e) >= 2], [e for e in exps if sum(e) >= 1]
    )
    if sol is None:
        return None
    den, d_terms, tau_terms = sol
    zero = Operator.zero(n, field, d)
    D = Derivation([zero._make(den, terms) for terms in d_terms])
    return exp_group_element(D, zero._make(den, tau_terms))


def lower_degree_step(f, F):
    """One unipotent reduction step towards F.

    Requires G = tdf(f - F) nonzero of degree e < deg F; returns (g, f')
    with f' = apply(g, f) and deg(f' - F) < e.
    """
    if F.is_zero():
        raise ZeroPolynomial("reduction toward the zero polynomial")
    return _lower_degree_step(f, F, f - F)[:2]


def _lower_degree_step(f, F, diff):
    """``lower_degree_step`` for a nonzero F, given diff = f - F: returns
    (g, f', f' - F), so a run of steps forms one difference per step."""
    G = diff.tdf()
    if G.is_zero():
        raise ReductionFailed("f already equals the target")
    e, d = G.degree, F.degree
    if e >= d:
        raise TdfMismatch("difference degree %d not below deg F = %d" % (e, d))
    char_guard(f.field, d)
    g = _solve_homogeneous_step(G, F)
    if g is None:
        g = _solve_general_step(G, F)
    if g is None:
        raise NotInTangent(e)
    f_new = apply_group_element(g, f)
    diff = f_new - F
    if diff.degree >= e:
        raise ReductionFailed("degree did not drop at %d" % e)
    return g, f_new, diff


def reduce_toward(f, F, stop_degree=None):
    """Greedy reduction of f towards F; stops when f == F, or when the
    difference has degree below ``stop_degree`` if one is given."""
    if F.is_zero():
        raise ZeroPolynomial("reduction toward the zero polynomial")
    steps, current, diff = [], f, f - F
    while not diff.is_zero() and (stop_degree is None or diff.degree >= stop_degree):
        g, current, diff = _lower_degree_step(current, F, diff)
        steps.append((g, current))
    return ReductionTrace(f, F, steps)


def _tangent_quotient(f, e):
    """gr_e(T+_f cap P_{<=e}) as (pivot monomial, element) pairs, each
    element 1 at its pivot and 0 at the others.

    Read off the tangent space of f_{>e}: its spanning rows
    (``_tangent_batches``, built in full) are re-keyed to the columns of degrees deg f .. e,
    highest first and grlex within a degree (the ``_filtration_profiles``
    order), dropping the columns below e, and echeloned once.  The rows
    that pivot in degree e have no terms above e, and their degree-e parts
    are reduced.
    """
    tangent_win, batches = _tangent_batches(f.part_from(e + 1), 2)
    order = [tangent_win.index[m] for i in range(f.degree, e - 1, -1) for m in monomials(f.n, i)]
    col = {c: j for j, c in enumerate(order)}  # the columns below degree e are dropped
    rows = [{col[c]: x for c, x in row.items() if c in col} for _, _, rows in batches for row in rows]
    rows, pivots = _echelon(rows, f.field)
    win = Window.P_graded(f.n, e, f.field)
    lo = len(order) - win.dim  # the degree-e columns come last, so do their rows
    k = sum(p < lo for p in pivots)
    elements = win._elements([{c - lo: x for c, x in row.items()} for row in rows[k:]])
    return list(zip([win.columns[p - lo] for p in pivots[k:]], elements))


def _residue(quotient, v):
    """v minus its components along a ``_tangent_quotient``: the canonical
    representative of v modulo that space, zero at every pivot monomial."""
    for m, q in quotient:
        v = v - q.scale(v.coeff(m))
    return v


def tangent_residue(f, e):
    """(step, residue) for 0 <= e < deg f: the residue is what G+ cannot
    clear from f_e while keeping every degree above e, the canonical
    representative of f_e modulo ``_tangent_quotient(f, e)``; ``step`` is
    the (g, f') of one ``lower_degree_step`` toward f - (f_e - residue), or
    None when nothing is cleared.
    """
    if not 0 <= e < f.degree:
        raise IndexOutOfRange("tangent residue degree %d outside [0, %d)" % (e, f.degree))
    char_guard(f.field, f.degree)
    f_e = f.homogeneous_part(e)
    residue = _residue(_tangent_quotient(f, e), f_e)
    cleared = f_e - residue
    return (None if cleared.is_zero() else lower_degree_step(f, f - cleared)), residue


class MembershipResult:
    """Outcome of a unipotent orbit membership test."""

    def __init__(self, is_member, trace=None, witness_degree=None):
        self.is_member = is_member
        self.trace = trace
        self.witness_degree = witness_degree

    def __bool__(self):
        return self.is_member

    def __repr__(self):
        if self.is_member:
            return "<MembershipResult yes, %d steps>" % len(self.trace)
        return "<MembershipResult no, witness degree %d>" % self.witness_degree


def unip_orbit_membership(F, f, allow_inhomogeneous_target=False):
    """Is f in the unipotent orbit of F?  Complete for homogeneous F.

    For homogeneous F a greedy failure at degree e certifies that
    tdf(f - F) is outside the unipotent tangent space, so "no" answers are
    trustworthy.  For non-homogeneous targets (opt-in) only "yes" answers
    are conclusive.
    """
    if F.is_zero():
        raise TdfMismatch("target is zero")
    if F.tdf() != F and not allow_inhomogeneous_target:
        raise TdfMismatch("target is not homogeneous")
    if f.tdf() != F.tdf():
        raise TdfMismatch("tdf(f) differs from the target's leading form")
    char_guard(f.field, f.degree)
    try:
        trace = reduce_toward(f, F)
    except NotInTangent as exc:
        return MembershipResult(False, witness_degree=exc.degree)
    return MembershipResult(True, trace=trace)


def t_compressed_normal_form(f):
    """For t-compressed f (maximal t >= 1), remove all terms of degree
    <= t+1; returns (t, trace to f_{>= t+2})."""
    if f.is_zero():
        raise ZeroPolynomial("t-compressed normal form of the zero polynomial")
    d = f.degree
    if d < 3:
        raise NotTCompressed("degree %d < 3" % d)
    t = max_t_compressed(f)
    if t < 1:
        raise NotTCompressed("Apolar(f) is not t-compressed for any t >= 1")
    char_guard(f.field, d)
    trace = reduce_toward(f, f.part_from(t + 2))
    return t, trace


def improved_normal_form(f, t):
    """Remove terms of degree <= t+1 assuming the symmetric-decomposition
    hypotheses: H(r) maximal for r <= t and Delta_r(1) = 0 for r >= d-1-t."""
    n, field = f.n, f.field
    d = f.degree
    H = hilbert_function(f)
    for r in range(t + 1):  # H(r) = 0 for r > deg f = len(H) - 1: not maximal
        if r >= len(H) or H[r] != math.comb(r + n - 1, r):
            raise HypothesisFailed("H(%d) is not maximal" % r, r)
    sd = symmetric_decomposition(f)
    for r, delta in enumerate(sd):
        if r >= d - 1 - t and len(delta) > 1 and delta[1] != 0:
            raise HypothesisFailed("Delta_%d(1) != 0" % r, r)
    char_guard(field, d)
    # the hypotheses force P_{<=1} = m^{t+1} -| f; verify the containment
    sub = module_sf(f, t + 1)
    for e in monomials_upto(n, 1):
        if not sub.contains(DPPoly.monomial(n, field, e)):
            raise HypothesisFailed("P_{<=1} not inside m^%d -| f" % (t + 1))
    return reduce_toward(f, f.part_from(t + 2))


def square_ideal_reduce(f, t):
    """Reduce f to F + g with F = tdf(f) and deg g < t, assuming
    dim Apolar(f) = dim Apolar(F) and that the unipotent tangent perp of F
    equals (Ann F)^2 in every degree t <= i <= d-1."""
    if t < 0:
        raise IndexOutOfRange("square-ideal reduction needs t >= 0, got t = %d" % t)
    if f.is_zero():
        raise ZeroPolynomial("square-ideal reduction of the zero polynomial")
    n, field = f.n, f.field
    F = f.tdf()
    d = f.degree
    char_guard(field, d)
    if dim_apolar(f) != dim_apolar(F):
        raise HypothesisFailed("dim Apolar(f) differs from dim Apolar(tdf f)")
    if t < d:  # some degree is checked
        perp = perp_tangent(F, unipotent=True, max_degree=d - 1)
        # the pieces of Ann(F) the squares up to degree d - 1 read, built once
        pieces = _square_pieces(F, d - 1)
        for i in range(t, d):
            win_i = Window.S_graded(n, i, field)
            if _graded_piece(perp, win_i) != _square(pieces, win_i):
                raise HypothesisFailed("perp differs from (Ann F)^2 in degree %d" % i, i)
    return reduce_toward(f, F, stop_degree=t)


def _graded_piece(basis, win_i):
    """The degree-i piece, in ``win_i``, of a graded subspace ``basis`` of a
    window holding degree i.  The canonical form of a graded space is the
    union of its pieces' canonical forms, so each canonical row lies in one
    degree: the piece's rows are those with their pivot, their first key,
    in degree i, shifted to ``win_i``'s columns."""
    lo = basis.window.index[win_i.columns[0]]
    hi = lo + win_i.dim
    return Basis._of_canonical(win_i, [{c - lo: x for c, x in row.items()}
                                       for row in basis._rows if lo <= next(iter(row)) < hi])


# ---------------------------------------------------------------------------
# Golden examples


# The (1,3,3,3,1) classification, each polynomial written once as it
# prints: the leading forms, the eleven normal forms (a leading form plus a
# cubic tail) and the classical cubic tails y^3, y^2 z, y z^2 of the F_3
# branch.
_LEADING_FORMS_13331 = {
    "F1": "x1^[4] + x2^[4] + x3^[4]",
    "F2": "x1^[3]*x2 + x3^[4]",
    "F3": "x1^[3]*x2 + x1^[2]*x3^[2]",
}
_NORMAL_FORMS_13331 = {
    "f_{1,1}": "x1*x2*x3 + x1^[4] + x2^[4] + x3^[4]",
    "f_{1,0}": "x1^[4] + x2^[4] + x3^[4]",
    "f_{2,11}": "x2^[3] + x2^[2]*x3 + x1^[3]*x2 + x3^[4]",
    "f_{2,10}": "x2^[3] + x1^[3]*x2 + x3^[4]",
    "f_{2,01}": "x2^[2]*x3 + x1^[3]*x2 + x3^[4]",
    "f_{2,00}": "x1^[3]*x2 + x3^[4]",
    "f_{3,101}": "x2^[3] + x2*x3^[2] + x1^[3]*x2 + x1^[2]*x3^[2]",
    "f_{3,100}": "x2^[3] + x1^[3]*x2 + x1^[2]*x3^[2]",
    "f_{3,010}": "x2^[2]*x3 + x1^[3]*x2 + x1^[2]*x3^[2]",
    "f_{3,001}": "x2*x3^[2] + x1^[3]*x2 + x1^[2]*x3^[2]",
    "f_{3,000}": "x1^[3]*x2 + x1^[2]*x3^[2]",
}
_CLASSICAL_TAILS_13331 = ("x2^3", "x2^2*x3", "x2*x3^2")


def stabilizer_matrix_13331(a, b):
    """Matrix of t_{a,b} -- t(x) = x, t(y) = -a^2 x + b^2 y - 2ab z,
    t(z) = a x + b z -- on the cubic tails of the F_3 branch.

    The tails are taken in the classical normalisation (the images of
    y^3, y^2 z, y z^2 under x^a -> a! x^[a]).  Their images are reduced
    against one degree-3 quotient of F_3 (``_tangent_quotient``), whose
    non-pivot monomials are y^[3], y^[2]z, yz^[2]; columns hold the
    coordinates of the residues in the tails.  Symbolically the matrix is
    [[b^6, 0, 0], [-6ab^5, b^5, 0], [(27/2)a^2 b^4, -(9/2)ab^4, b^4]].
    """
    field = QQ
    a, b = field.from_fraction(a), field.from_fraction(b)
    F3 = parse_poly(_LEADING_FORMS_13331["F3"], 3, field)
    M = [
        [field.one(), field.zero(), field.zero()],
        [field.neg(field.mul(a, a)), field.mul(b, b),
         field.mul(field.from_int(-2), field.mul(a, b))],
        [a, field.zero(), b],
    ]
    # tails y^3, y^2 z, y z^2 in classical normalisation: x^a -> a! x^[a]
    tails = [omega_inv(parse_classical_poly(t, 3, field)) for t in _CLASSICAL_TAILS_13331]
    monos = [m for t in tails for m in t.terms]
    quotient = _tangent_quotient(F3, 3)
    residues = [_residue(quotient, apply_linear_map(M, v)) for v in tails]
    if any(m not in monos for r in residues for m in r.terms):
        raise ReductionFailed("stabilizer image escapes the quotient")
    return [[field.div(r.coeff(m), t.coeff(m)) for r in residues] for m, t in zip(monos, tails)]


def golden_13331():
    """Reproduce the socle-degree-4, H = (1,3,3,3,1) classification data.

    Returns a report with the three leading forms, their unipotent tangent
    perps in degree <= 3, the eleven normal forms with their tangent space
    dimensions, the stabilizer matrix at (a, b) = (1, 2), and under
    "facts" the dimensions, perps and matrix as checked against
    data/golden_13331.json.  Raises GoldenMismatch when they differ.
    """
    field = QQ
    leading, perps = {}, {}
    for name, text in _LEADING_FORMS_13331.items():
        F = parse_poly(text, 3, field)
        leading[name] = repr(F)
        basis = perp_tangent(F, unipotent=True, max_degree=3)
        perps[name] = [operator_str(v) for v in basis.vectors()]
    normal_forms = []
    for name, text in _NORMAL_FORMS_13331.items():
        f = parse_poly(text, 3, field)
        normal_forms.append({"name": name, "poly": poly_str(f), "dim": tangent_space(f).dim})
    matrix = [[str(c) for c in row] for row in stabilizer_matrix_13331(1, 2)]
    facts = _check_golden("13331", {
        "dims": [nf["dim"] for nf in normal_forms],
        "perp_unip": perps,
        "stabilizer_matrix_12": matrix,
    })
    return {"leading_forms": leading, "perp_unip": perps, "normal_forms": normal_forms,
            "stabilizer_matrix_12": matrix, "facts": facts}


def golden_1222111(f):
    """Classify f with Hilbert function (1,2,2,2,1,1,1) in the scope
    "leading form x^[6], degree-4 residue on x^[2]y^[2] only".

    After the leading form is normalised to x^[6], ``tangent_residue``
    runs once per degree e = 5, 4, .., 0: each step clears what G+ can
    clear in degree e, keeping the degrees above.  The degree-4 residue is
    c x^[2]y^[2] (c = 0 is impossible for this Hilbert function), the
    degree-3 residue lambda y^[3], and no other degree leaves one.  Returns
    a report with lambda and the normal form x^[6] + c x^[2]y^[2] +
    lambda y^[3] (c normalised to 1 when its square root is rational).

    A y^[4] term in the degree-4 residue is outside that scope and raises
    HypothesisFailed: it belongs to the x^[6] + y^[4] branch, handled by
    unip_orbit_membership against that target.  An x y^[3] term or c = 0
    contradicts the Hilbert function, so either raises ReductionFailed.
    """
    n, field = f.n, f.field
    if n != 2:
        raise HypothesisFailed("expected a binary polynomial")
    H = hilbert_function(f)
    if H != (1, 2, 2, 2, 1, 1, 1):
        raise WrongHilbertFunction("H = %s" % (H,))
    char_guard(field, 6)
    T = f.tdf()
    c6 = T.coeff((6, 0))
    if field.is_zero(c6) or T != DPPoly.monomial(n, field, (6, 0), c6):
        raise HypothesisFailed("leading form is not a multiple of x^[6]")
    f = f.scale(field.inv(c6))

    d, start, steps, normalised = 6, f, [], False
    for e in range(d - 1, -1, -1):
        step, residue = tangent_residue(f, e)
        if step is not None:
            steps.append(step)
            f = step[1]
        if e == 4:
            if not field.is_zero(residue.coeff((0, 4))):
                raise HypothesisFailed("y^[4] coefficient nonzero: x^[6] + y^[4] branch, "
                                       "use unip_orbit_membership")
            # Neither check below fires on a correct reduction.  Every step is
            # in G+, which keeps H, and H(i) counts the independent degree-i
            # leading forms of S f.  Here f = x^[6] + c x^[2]y^[2] + b x y^[3]
            # + (degree <= 3).  With b != 0, a2^2, a1 a2 and a1^4 -| f lead
            # with c x^[2] + b x y, c x y + b y^[2] and x^[2], independent
            # (determinant b^2), so H(2) = 3.  With c = b = 0 the only cubic
            # leading form is x^[3], so H(3) = 1.
            if not field.is_zero(residue.coeff((1, 3))):
                raise ReductionFailed("x*y^[3] term left although H(2) = 2")
            c = residue.coeff((2, 2))
            if field.is_zero(c):
                raise ReductionFailed("x^[2]y^[2] coefficient vanished although H(3) = 2")
            # normalise c to 1 when possible: x -> x, y -> y / sqrt(c)
            if field.is_rationals:
                num, den = c.numerator, c.denominator
                sn, sd = math.isqrt(abs(num)), math.isqrt(den)
                if num > 0 and sn * sn == num and sd * sd == den and c != field.one():
                    s = field.from_fraction("%d/%d" % (sn, sd))  # sqrt(c)
                    y = Operator.variable(n, field, 2, d).scale(field.inv(s))
                    diag = GroupElement(Automorphism([Operator.variable(n, field, 1, d), y]),
                                        Operator.one(n, field, d))
                    f = apply_group_element(diag, f)
                    # one step with the step before: a degree-4 step alone
                    # leaves the difference to the normal form in degree 4
                    g = compose(steps.pop()[0], diag) if steps else diag
                    steps.append((g, f))
                    c, normalised = f.coeff((2, 2)), True
        elif e == 3:
            lam = residue.coeff((0, 3))
        elif not residue.is_zero():
            raise ReductionFailed("degree-%d residue %r left" % (e, residue))

    sd = symmetric_decomposition(start)
    trace = ReductionTrace(start, f, steps)
    return {
        "lambda": lam,
        "c": c,
        "c_normalised": normalised,
        "normal_form": f,
        "trace": trace,
        "hilbert": H,
        "deltas": sd,
    }


def golden_char2():
    """The characteristic-2 example: f = x y^[2] + y^[3] over F_2.

    H = (1,2,2,1) and a1^2 -| f = 0, yet a1^2 is orthogonal to the whole
    tangent space, so the tangent space is a proper subspace of P_{<=3} --
    the characteristic-0 dimension count fails.  The report's "facts" are
    checked against data/golden_char2.json (GoldenMismatch when they differ).
    """
    field = GF(2)
    f = parse_poly("x1*x2^[2] + x2^[3]", 2, field)
    H = hilbert_function(f)
    sigma = Operator(2, field, {(2, 0): 1}, 3)
    facts = _check_golden("char2", {
        "f": poly_str(f),
        "hilbert": list(H),
        "sigma_kills_f": contract(sigma, f).is_zero(),
        "sigma_in_perp": perp_tangent(f, unipotent=False, max_degree=3).contains(sigma),
        "tangent_dim": tangent_space(f).dim,
        "ambient_dim": Window.P_upto(2, 3, field).dim,
    })
    return {"field": "GF(2)", **facts, "hilbert": H, "facts": facts}


def _load_golden(which):
    """The expected facts of golden example ``which``: data/golden_<which>.json."""
    path = resources.files("apolar.data").joinpath("golden_%s.json" % which)
    return json.loads(path.read_text())


def _check_golden(which, facts):
    """Return ``facts`` if they equal the shipped expected data of golden
    example ``which``; otherwise raise GoldenMismatch naming every key that
    differs."""
    expected = _load_golden(which)
    diffs = [
        "%s: %r != expected %r" % (key, facts.get(key), expected.get(key))
        for key in {**facts, **expected}
        if facts.get(key) != expected.get(key)
    ]
    if diffs:
        raise GoldenMismatch(diffs)
    return facts


def _facts_1222111():
    """The (1,2,2,2,1,1,1) facts: ``golden_1222111`` run on the data file's
    input, checked against that file."""
    text = _load_golden("1222111")["input"]
    report = golden_1222111(parse_poly(text, 2, QQ))
    return _check_golden("1222111", {
        "input": text,
        "lambda": str(report["lambda"]),
        "normal_form": poly_str(report["normal_form"]),
        "deltas": [list(v) for v in report["deltas"]],
    })


# The golden examples: each name, in the order the CLI lists them, and the
# function that builds its facts in the layout of data/golden_<name>.json,
# checked against that file.
_GOLDEN = {
    "13331": lambda: golden_13331()["facts"],
    "1222111": _facts_1222111,
    "char2": lambda: golden_char2()["facts"],
}


def golden_facts(which):
    """The facts of golden example ``which``, a name of ``_GOLDEN``
    ("13331", "1222111" or "char2"), in the layout of its data file.

    Raises GuardError for an unknown name, GoldenMismatch naming every key
    that differs from the data file.
    """
    if which not in _GOLDEN:
        raise GuardError("unknown golden example %r, expected one of %s"
                         % (which, ", ".join(_GOLDEN)))
    return _GOLDEN[which]()
