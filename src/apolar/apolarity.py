"""Annihilators, Hilbert functions, compressedness, symmetric decomposition.

All ideal-theoretic data is computed degree by degree with linear algebra:
``ann_graded`` is the kernel of the catalecticant map S_i -> P, and
``ideal_square_graded`` multiplies out a degreewise generating set of the
annihilator.
"""

import math

from .dp import DPPoly, Operator, contract, monomials, monomials_upto
from .errors import DecompositionInvariantViolated, IndexOutOfRange, ZeroPolynomial
from .linalg import Basis, Window, nullspace, rref, span


class HilbertFunction:
    """H(0..d) for an apolar algebra; socle degree d = deg f."""

    def __init__(self, values):
        self.values = tuple(values)

    def __getitem__(self, i):
        if 0 <= i < len(self.values):
            return self.values[i]
        return 0

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if isinstance(other, HilbertFunction):
            return self.values == other.values
        return self.values == tuple(other)

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return "HilbertFunction(%s)" % (self.values,)

    @property
    def socle_degree(self):
        return len(self.values) - 1

    def total(self):
        return sum(self.values)


class SymmetricDecomposition:
    """Vectors Delta_0 .. Delta_{max(d-2, 0)}; Delta_a has entries 0..d-a."""

    def __init__(self, deltas):
        self.deltas = [tuple(v) for v in deltas]

    def __getitem__(self, a):
        return self.deltas[a]

    def __len__(self):
        return len(self.deltas)

    def __iter__(self):
        return iter(self.deltas)

    def __eq__(self, other):
        if isinstance(other, SymmetricDecomposition):
            return self.deltas == other.deltas
        return self.deltas == [tuple(v) for v in other]

    def __repr__(self):
        return "SymmetricDecomposition(%s)" % (self.deltas,)


def ann_graded(f, i):
    """Ann(f)_i = {sigma in S_i : sigma -| f = 0} as a Basis in S_i."""
    win = Window.S_graded(f.n, i, f.field)
    d = f.degree
    targets = list(monomials_upto(f.n, d - i)) if d - i >= 0 else []
    eqs = []
    for t in targets:
        eqs.append([f.coeff(tuple(a + b for a, b in zip(e, t))) for e in win.columns])
    rows = nullspace(eqs, f.field, win.dim)
    return Basis(win, rows, reduced=True)


def module_sf(f, k):
    """The subspace m^k -| f of P (k = 0 gives S f, including f)."""
    d = max(f.degree, 0)
    win = Window.P_upto(f.n, d, f.field)
    vecs = []
    for e in monomials_upto(f.n, d):
        if sum(e) < k:
            continue
        sigma = Operator.monomial(f.n, f.field, e, d)
        g = contract(sigma, f)
        if not g.is_zero():
            vecs.append(g)
    return span(vecs, win)


def dim_apolar(f):
    """dim_k Apolar(f) = dim_k S f."""
    return module_sf(f, 0).dim


def _filtration_profiles(f):
    """prof[k][i] = dim(M_k cap P_{<=i}) - dim(M_k cap P_{<=i-1}) for
    M_k = m^k -| f, k = 0 .. deg f + 1.

    One ``rref`` per k of the contractions x^e -| f with |e| >= k, columns
    ordered highest degree first (grlex within a degree); prof[k][i] counts
    its pivots of degree i.
    """
    d = f.degree
    cols = [c for i in range(d, -1, -1) for c in monomials(f.n, i)]
    rows = [
        (sum(e), [f.coeff(tuple(a + b for a, b in zip(c, e))) for c in cols])
        for e in monomials_upto(f.n, d)
    ]
    profiles = []
    for k in range(d + 2):
        _, pivots = rref([row for deg, row in rows if deg >= k], f.field, len(cols))
        prof = [0] * (d + 1)
        for p in pivots:
            prof[sum(cols[p])] += 1
        profiles.append(prof)
    return profiles


def _hilbert_from_profiles(profiles):
    dims = [sum(prof) for prof in profiles]
    return HilbertFunction(dims[i] - dims[i + 1] for i in range(len(dims) - 1))


def hilbert_function(f):
    """H(i) = dim(m^i -| f) - dim(m^{i+1} -| f) for i = 0 .. deg f.

    With the columns of P ordered highest degree first, dim(M cap P_{<=i})
    is the number of pivots of degree <= i of an echelon form of M; at
    i = deg f that is dim M, the pivot total of ``_filtration_profiles``.
    """
    if f.is_zero():
        raise ZeroPolynomial("Hilbert function of the zero polynomial")
    return _hilbert_from_profiles(_filtration_profiles(f))


def _hs(n, i):
    return math.comb(i + n - 1, i) if i >= 0 else 0


def _t_compressed(H, n, t):
    d = H.socle_degree
    if t < 1 or d < 1:
        return False
    if H[d - 1] != n:
        return False
    return all(H[i] == _hs(n, i) for i in range(t + 1))


def is_t_compressed(f, t):
    """H(i) maximal for i <= t and H(d-1) = n."""
    if isinstance(f, DPPoly):
        return _t_compressed(hilbert_function(f), f.n, t)
    H = f if isinstance(f, HilbertFunction) else HilbertFunction(f)
    return _t_compressed(H, H[1], t)


def max_t_compressed(f):
    """Largest t >= 1 with is_t_compressed(f, t), or 0 if none."""
    H = hilbert_function(f)
    best = 0
    for t in range(1, H.socle_degree // 2 + 1):
        if _t_compressed(H, f.n, t):
            best = t
    return best


def is_compressed(f):
    H = hilbert_function(f)
    d = H.socle_degree
    return all(H[i] == min(_hs(f.n, i), _hs(f.n, d - i)) for i in range(d + 1))


def symmetric_decomposition(f):
    """The canonical decomposition H = sum_a Delta_a, a = 0 .. max(d-2, 0).

    Delta_a(i) = dim C_a(i) - dim C_{a-1}(i) where C_a(i) is the image in
    P_i of (m^{d-a-i} -| f) cap P_{<=i}, taken modulo P_{<=i-1}.  With the
    columns of P ordered highest degree first, dim(M cap P_{<=i}) is the
    number of pivots of degree <= i of an echelon form of M, so dim C_a(i)
    is the pivot count ``prof[d-a-i][i]`` of ``_filtration_profiles``.
    The type invariants (sum = H, symmetry, non-negativity) are theorems; a
    violation raises DecompositionInvariantViolated.
    """
    if f.is_zero():
        raise ZeroPolynomial("decomposition of the zero polynomial")
    d = f.degree
    if d < 1:
        raise ZeroPolynomial("decomposition needs degree >= 1")
    prof = _filtration_profiles(f)
    H = _hilbert_from_profiles(prof)

    deltas = [
        tuple(prof[d - a - i][i] - prof[d - a + 1 - i][i] for i in range(d - a + 1))
        for a in range(max(d - 1, 1))
    ]

    # invariant validation -- these are theorems about the construction
    for i in range(d + 1):
        total = sum(delta[i] for a, delta in enumerate(deltas) if i <= d - a)
        if total != H[i]:
            raise DecompositionInvariantViolated(
                "sum of Delta_a(%d) = %d != H(%d) = %d" % (i, total, i, H[i])
            )
    for a, delta in enumerate(deltas):
        for i in range(d - a + 1):
            if delta[i] < 0:
                raise DecompositionInvariantViolated("Delta_%d(%d) < 0" % (a, i))
            if delta[i] != delta[d - a - i]:
                raise DecompositionInvariantViolated(
                    "Delta_%d not symmetric at %d" % (a, i)
                )
    return SymmetricDecomposition(deltas)


def ann_generators(f, upto):
    """Degreewise minimal generators of Ann(f) up to degree ``upto``.

    Generators in degree i are a complement of S_1 * I_{i-1} inside I_i,
    chosen deterministically from the canonical basis of I_i.
    """
    if upto < 0:
        raise IndexOutOfRange("annihilator degree bound must be >= 0, got %d" % upto)
    n, field = f.n, f.field
    pieces = {i: ann_graded(f, i) for i in range(upto + 1)}
    gens = []
    for i in range(1, upto + 1):
        win = Window.S_graded(n, i, field)
        prods = []
        for sigma in pieces[i - 1].vectors():
            sigma = Operator(n, field, sigma.terms, i)
            for t in range(1, n + 1):
                prods.append(Operator.variable(n, field, t, i) * sigma)
        reducible = span([p for p in prods if not p.is_zero()], win)
        current = reducible
        for v in pieces[i].vectors():
            if not current.contains(v):
                gens.append(v)
                current = current.sum(span([v], win))
    return gens, pieces


def ideal_square_graded(f, i):
    """(I^2)_i for I = Ann(f), via a degreewise generating set."""
    n, field = f.n, f.field
    gens, pieces = ann_generators(f, i)
    win = Window.S_graded(n, i, field)
    prods = []
    for g in gens:
        dg = g.degree
        if dg >= i:
            continue
        g_i = Operator(n, field, g.terms, i)
        for tau in pieces[i - dg].vectors():
            p = g_i * Operator(n, field, tau.terms, i)
            if not p.is_zero():
                prods.append(p)
    return span(prods, win)
