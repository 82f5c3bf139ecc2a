"""Seeded case pools, case runners, property checks and answer digests.

Every case belongs to a *stratum* (workload, kind, n, d) and has a pool
index.  The inputs of a case are a pure function of its stratum and index,
so the reference answers recorded once in ``perfbench/refs`` cover every
case any run can draw.  A run seed only chooses which pool indices each
stratum contributes and in which order the cases run.

The library receives only the generated polynomials.  All helpers here take
the imported ``apolar`` package as an argument, because the benchmark
re-imports it for every set-up repetition.
"""

import contextlib
import hashlib
import io
import json
import math
import random

COEFF = 3  # integer coefficients are drawn from [-COEFF, COEFF]
P_ORBITS = 101  # the modular half of the orbits workload

# (kind, n, d, cases per pass, pool size).  Orbits inputs each give a Q case
# and an F_101 case, so their "cases per pass" counts inputs.  The counts put
# the p50 and tail positions of a pass inside blocks of cases of one stratum
# (or of strata of like cost), so that those percentiles stay steady from
# seed to seed: invariants p50 among poly (2,5) and p75 among (3,4) cases;
# orbits p50 among Q (2,4) forms and p90 among Q (3,4) forms; classify p50
# among (2,4) t-compressed and p90 among (3,4) membership cases.
STRATA = {
    "invariants": [
        ("poly", 2, 4, 10, 30),
        ("form", 2, 4, 5, 15),
        ("poly", 2, 5, 11, 33),
        ("poly", 2, 6, 4, 12),
        ("poly", 3, 4, 5, 15),
        ("form", 3, 4, 3, 9),
        ("poly", 3, 5, 1, 4),
        ("form", 3, 6, 1, 3),
    ],
    "orbits": [
        ("form", 2, 4, 26, 78),
        ("form", 2, 5, 5, 15),
        ("form", 2, 6, 2, 6),
        ("poly", 2, 6, 2, 6),
        ("form", 3, 4, 10, 30),
        ("form", 3, 5, 2, 6),
        ("form", 3, 6, 1, 3),
        ("form", 4, 4, 1, 3),
        ("form", 4, 5, 1, 3),
    ],
    "classify": [
        ("tcomp", 2, 3, 8, 24),
        ("tcomp", 3, 3, 4, 12),
        ("tcomp", 2, 4, 10, 30),
        ("tcomp", 3, 4, 1, 3),
        ("tcomp", 2, 5, 4, 12),
        ("tcomp", 3, 5, 1, 3),
        ("tcomp", 2, 6, 3, 9),
        ("member", 2, 4, 12, 36),
        ("member", 2, 5, 8, 24),
        ("member", 3, 4, 8, 24),
        ("member", 3, 5, 2, 6),
        ("nonmember", 2, 4, 10, 30),
        ("nonmember", 2, 5, 6, 18),
        ("nonmember", 3, 4, 4, 12),
        ("square", 2, 4, 6, 18),
        ("square", 2, 5, 10, 30),
        ("golden", 0, 0, 3, 3),
    ],
}

# Tiny strata for the self-tests: every workload and case kind, in seconds.
SMOKE_STRATA = {
    "invariants": [("poly", 2, 3, 2, 4), ("form", 2, 4, 1, 2)],
    "orbits": [("form", 2, 3, 2, 4), ("poly", 2, 3, 1, 2)],
    "classify": [
        ("tcomp", 2, 3, 2, 4),
        ("member", 2, 4, 2, 4),
        ("nonmember", 2, 4, 1, 2),
        ("square", 2, 4, 1, 2),
        ("golden", 0, 0, 1, 1),
    ],
}

GOLDEN_ARGV = [
    ["golden", "13331", "--json"],
    ["golden", "1222111"],
    ["golden", "char2"],
]
SMOKE_GOLDEN_ARGV = [["golden", "char2"]]


def stratum_name(workload, kind, n, d):
    return "%s.%s.n%dd%d" % (workload, kind, n, d)


# ---------------------------------------------------------------------------
# Input generation (benchmark-side randomness; the library sees polynomials)


def _monomials(n, d):
    if n == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d, -1, -1) for rest in _monomials(n - 1, d - a)]


def _monomials_upto(n, d):
    return [e for k in range(d + 1) for e in _monomials(n, k)]


def _coeff(rng, bound=COEFF):
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def _rand_terms(rng, monos, density=1.0):
    """Nonzero coefficients on a random share of ``monos`` (all by default:
    dense generic inputs keep the cost of cases in one stratum alike)."""
    return {e: _coeff(rng) for e in monos if density >= 1 or rng.random() < density}


def _form_terms(rng, n, d, density=1.0):
    while True:
        terms = _rand_terms(rng, _monomials(n, d), density)
        if terms:
            return terms


def _poly_terms(rng, n, d):
    terms = _rand_terms(rng, _monomials_upto(n, d - 1))
    terms.update(_form_terms(rng, n, d))
    return terms


def make_poly(ap, n, field, terms):
    return ap.DPPoly(n, field, {e: field.from_int(c) for e, c in terms.items()})


def _random_unipotent(ap, rng, n, d):
    QQ = ap.QQ
    images = []
    for i in range(n):
        terms = {tuple(1 if j == i else 0 for j in range(n)): QQ.one()}
        for e in _monomials_upto(n, d):
            if sum(e) >= 2:
                terms[e] = QQ.from_int(_coeff(rng, 2))
        images.append(ap.Operator(n, QQ, terms, d))
    unit = {(0,) * n: QQ.one()}
    for e in _monomials_upto(n, d):
        if sum(e) >= 1:
            unit[e] = QQ.from_int(_coeff(rng, 2))
    return ap.GroupElement(ap.Automorphism(images), ap.Operator(n, QQ, unit, d))


def _case(workload, kind, n, d, idx, field="Q", **data):
    sid = stratum_name(workload, kind, n, d)
    cid = "%s/%d" % (sid, idx) + ("" if workload != "orbits" else "/" + field)
    return dict(id=cid, stratum=sid, workload=workload, kind=kind, n=n, d=d,
                field=field, **data)


def generate(ap, workload, kind, n, d, idx, golden_argv=GOLDEN_ARGV):
    """The cases of pool index ``idx`` (two for orbits, else one).

    Hypotheses are filtered here, so filtering counts as set-up:
    compressed leading forms and t-compressedness for ``tcomp``, a perp
    witness for ``nonmember``, equal apolar dimensions for ``square``.
    """
    rng = random.Random("%s/%d" % (stratum_name(workload, kind, n, d), idx))
    QQ = ap.QQ
    if workload == "invariants":
        terms = _form_terms(rng, n, d) if kind == "form" else _poly_terms(rng, n, d)
        return [_case(workload, kind, n, d, idx, terms=terms, f=make_poly(ap, n, QQ, terms))]
    if workload == "orbits":
        terms = _form_terms(rng, n, d) if kind == "form" else _poly_terms(rng, n, d)
        return [
            _case(workload, kind, n, d, idx, field=name, terms=terms,
                  f=make_poly(ap, n, field, terms))
            for name, field in (("Q", QQ), ("F101", ap.GF(P_ORBITS)))
        ]
    if kind == "golden":
        return [_case(workload, kind, n, d, idx, argv=golden_argv[idx], terms={})]
    if kind == "tcomp":
        # as in acceptance criterion 5: a compressed form plus lower terms
        while True:
            F = _form_terms(rng, n, d)
            Fp = make_poly(ap, n, QQ, F)
            if not ap.is_compressed(Fp):
                continue
            terms = dict(F)
            terms.update(_rand_terms(rng, _monomials_upto(n, d - 1)))
            f = make_poly(ap, n, QQ, terms)
            if f.tdf() == Fp and ap.max_t_compressed(f) >= 1:
                return [_case(workload, kind, n, d, idx, terms=terms, f=f, F=Fp)]
    if kind == "member":
        F = make_poly(ap, n, QQ, _form_terms(rng, n, d))
        g = _random_unipotent(ap, rng, n, d)
        f = ap.apply_group_element(g, F)
        return [_case(workload, kind, n, d, idx, terms=_str_terms(f), f=f, F=F)]
    if kind == "nonmember":
        return [_nonmember(ap, rng, workload, n, d, idx)]
    if kind == "square":
        # rank-two binary forms satisfy the perp = (Ann F)^2 hypothesis
        F = make_poly(ap, n, QQ, {(d, 0): 1, (0, d): 1})
        while True:
            low = _rand_terms(rng, _monomials_upto(n, d - 1), 0.5)
            f = F + make_poly(ap, n, QQ, low)
            if ap.dim_apolar(f) == ap.dim_apolar(F):
                t = rng.choice((0, 2))
                return [_case(workload, kind, n, d, idx, terms=_str_terms(f), f=f, F=F, t=t)]
    raise ValueError("unknown case kind %r" % kind)


def _str_terms(f):
    return {e: str(c) for e, c in f.terms.items()}


def _nonmember(ap, rng, workload, n, d, idx):
    """f = F + h with F a sparse form and h homogeneous of degree e outside
    the unipotent tangent space of F, certified by a perp vector sigma with
    <sigma, h> != 0.  Greedy reduction must then fail at exactly e."""
    QQ = ap.QQ
    while True:
        F = make_poly(ap, n, QQ, _form_terms(rng, n, d, density=0.25))
        perp = ap.perp_tangent(F, unipotent=True, max_degree=d - 1)
        by_degree = {}
        for sigma in perp.vectors():
            degs = {sum(e) for e in sigma.terms}
            if len(degs) == 1 and 1 <= min(degs) <= d - 1:
                by_degree.setdefault(min(degs), []).append(sigma)
        if not by_degree:
            continue
        e = rng.choice(sorted(by_degree))
        sigma = by_degree[e][0]
        h = _form_terms(rng, n, e, density=0.6)
        if sum(sigma.terms.get(m, 0) * c for m, c in h.items()) == 0:
            continue
        f = F + make_poly(ap, n, QQ, h)
        return _case(workload, "nonmember", n, d, idx, terms=_str_terms(f), f=f, F=F, witness=e)


def select(workload, seed, strata):
    """Pool indices for one pass: fixed counts per stratum, seeded choice
    and order.  Returns a list of (kind, n, d, idx)."""
    rng = random.Random("select/%s/%d" % (workload, seed))
    picks = []
    for kind, n, d, k, pool in strata:
        picks.extend((kind, n, d, i) for i in sorted(rng.sample(range(pool), k)))
    rng.shuffle(picks)
    return picks


def build(ap, workload, seed, smoke=False):
    strata = (SMOKE_STRATA if smoke else STRATA)[workload]
    argv = SMOKE_GOLDEN_ARGV if smoke else GOLDEN_ARGV
    cases = []
    for kind, n, d, idx in select(workload, seed, strata):
        cases.extend(generate(ap, workload, kind, n, d, idx, argv))
    return cases


def pool(ap, workload, smoke=False):
    """Every case any seed can draw (for recording reference answers)."""
    strata = (SMOKE_STRATA if smoke else STRATA)[workload]
    argv = SMOKE_GOLDEN_ARGV if smoke else GOLDEN_ARGV
    for kind, n, d, _, size in strata:
        for idx in range(size):
            yield from generate(ap, workload, kind, n, d, idx, argv)


# ---------------------------------------------------------------------------
# Running one case (the timed part)


def run_case(ap, case):
    kind, f = case["kind"], case.get("f")
    if case["workload"] == "invariants":
        d = f.degree
        gens, pieces = ap.ann_generators(f, d + 1)
        return {
            "H": ap.hilbert_function(f),
            "sd": ap.symmetric_decomposition(f),
            "compressed": ap.is_compressed(f),
            "max_t": ap.max_t_compressed(f),
            "gens": gens,
            "pieces": pieces,
            "square": ap.ideal_square_graded(f, d),
        }
    if case["workload"] == "orbits":
        out = {
            "tangent": ap.tangent_space(f),
            "unip": ap.unip_tangent_space(f),
            "perp": ap.perp_tangent(f),
            "perp_unip": ap.perp_tangent(f, unipotent=True),
            "orbit_dim": ap.orbit_dimension(f),
        }
        if kind == "form":
            out["dense"] = ap.dense_orbit_test(f)
        return out
    if kind == "tcomp":
        t, trace = ap.t_compressed_normal_form(f)
        return {"t": t, "trace": trace}
    if kind in ("member", "nonmember"):
        return {"result": ap.unip_orbit_membership(case["F"], f)}
    if kind == "square":
        return {"trace": ap.square_ideal_reduce(f, case["t"])}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ap.cli.cli_dispatch(list(case["argv"]))
    return {"exit": code, "stdout": out.getvalue()}


# ---------------------------------------------------------------------------
# Independent property checks (once per distinct case, outside the timing)


def _contract(sigma, f):
    """sigma -| f over Q, computed here independently of apolar.dp."""
    out = {}
    for a, ca in sigma.terms.items():
        for b, cb in f.terms.items():
            if all(x >= y for x, y in zip(b, a)):
                e = tuple(x - y for x, y in zip(b, a))
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _hs(n, i):
    return math.comb(i + n - 1, i) if i >= 0 else 0


def check(ap, case, ans, partner=None):
    """Problems found in ``ans`` (empty list when every property holds)."""
    kind, n, f = case["kind"], case["n"], case.get("f")
    bad = []
    if case["workload"] == "invariants":
        d = f.degree
        H = list(ans["H"])
        deltas = [list(v) for v in ans["sd"]]
        for i in range(d + 1):
            if sum(v[i] for a, v in enumerate(deltas) if i <= d - a) != H[i]:
                bad.append("sum of Delta_a(%d) != H(%d)" % (i, i))
        for a, v in enumerate(deltas):
            if any(x < 0 for x in v) or v != v[::-1]:
                bad.append("Delta_%d not symmetric and non-negative" % a)
        if sum(H) != ap.dim_apolar(f):
            bad.append("sum H != dim_apolar")
        compressed = all(H[i] == min(_hs(n, i), _hs(n, d - i)) for i in range(d + 1))
        if ans["compressed"] != compressed:
            bad.append("is_compressed disagrees with H")
        best = 0
        for t in range(1, d // 2 + 1):
            if H[d - 1] == n and all(H[i] == _hs(n, i) for i in range(t + 1)):
                best = t
        if ans["max_t"] != best:
            bad.append("max_t_compressed disagrees with H")
        killers = list(ans["gens"]) + ans["square"].vectors()
        if any(_contract(s, f) for s in killers):
            bad.append("an annihilator generator or (Ann f)^2 vector does not kill f")
        return bad
    if case["workload"] == "orbits":
        d = max(f.degree, 0)
        window = math.comb(n + d, n)
        if ans["tangent"].dim + ans["perp"].dim != window:
            bad.append("dim tangent + dim perp != window dim")
        if ans["unip"].dim + ans["perp_unip"].dim != window:
            bad.append("dim unipotent tangent + dim perp != window dim")
        if ans["orbit_dim"] != ans["tangent"].dim:
            bad.append("orbit_dimension != dim tangent")
        if not ans["tangent"].contains(ans["unip"]):
            bad.append("unipotent tangent not inside the tangent space")
        if partner is not None and case["field"] != "Q":
            if ans["tangent"].dim > partner["tangent"].dim:
                bad.append("F_p tangent dim exceeds the Q tangent dim")
        if "dense" in ans:
            direct = all(
                ans["tangent"].contains(ap.DPPoly.monomial(n, f.field, e))
                for e in _monomials_upto(n, d - 1)
            )
            if ans["dense"] != direct:
                bad.append("dense_orbit_test disagrees with Basis.contains")
        return bad
    if kind == "golden":
        if ans["exit"] != 0:
            bad.append("golden exit code %r" % ans["exit"])
        return bad
    if kind == "nonmember":
        res = ans["result"]
        if res.is_member or res.witness_degree != case["witness"]:
            bad.append("non-member witness %r != generated %d" % (res.witness_degree, case["witness"]))
        return bad
    trace = ans["result"].trace if kind == "member" else ans["trace"]
    if kind == "member" and not ans["result"].is_member:
        return ["member case answered no"]
    if ap.apply_group_element(trace.accumulated, trace.start) != trace.final:
        bad.append("replaying the accumulated element does not give the final form")
    if kind == "square":
        if (trace.final - case["F"]).degree >= case["t"]:
            bad.append("square-ideal remainder degree >= t")
    elif trace.final != trace.target:
        bad.append("reduction run to completion missed its target")
    if kind == "tcomp" and trace.final.tdf() != case["F"]:
        bad.append("t-compressed normal form changed the leading form")
    if kind == "member" and trace.final != case["F"]:
        bad.append("membership trace does not end at the target")
    return bad


# ---------------------------------------------------------------------------
# Canonical answers and digests


def _scalar(c):
    return str(c)


def _poly(p):
    return [[list(e), _scalar(c)] for e, c in sorted(p.terms.items())]


def _basis(b):
    return {"degrees": list(b.window.degrees), "rows": [[_scalar(x) for x in r] for r in b.rows]}


def _group(g):
    return {"aut": [_poly(im) for im in g.aut.images], "unit": _poly(g.unit)}


def _trace(tr):
    return {
        "steps": [[_group(g), _poly(r)] for g, r in tr.steps],
        "final": _poly(tr.final),
        "accumulated": _group(tr.accumulated),
    }


def canonical(case, ans):
    """A JSON-able form of the answer; equal answers give equal forms."""
    if case["workload"] == "invariants":
        return {
            "H": list(ans["H"]),
            "sd": [list(v) for v in ans["sd"]],
            "compressed": ans["compressed"],
            "max_t": ans["max_t"],
            "gens": [_poly(g) for g in ans["gens"]],
            "pieces": {str(i): _basis(b) for i, b in sorted(ans["pieces"].items())},
            "square": _basis(ans["square"]),
        }
    if case["workload"] == "orbits":
        return {k: (_basis(v) if hasattr(v, "rows") else v) for k, v in sorted(ans.items())}
    kind = case["kind"]
    if kind == "golden":
        return ans
    if kind == "tcomp":
        return {"t": ans["t"], "trace": _trace(ans["trace"])}
    if kind in ("member", "nonmember"):
        res = ans["result"]
        return {
            "member": res.is_member,
            "witness": res.witness_degree,
            "trace": _trace(res.trace) if res.trace is not None else None,
        }
    return {"trace": _trace(ans["trace"])}


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def input_digest(case):
    data = {
        "terms": sorted([list(e), str(c)] for e, c in case["terms"].items()),
        "argv": case.get("argv"),
        "t": case.get("t"),
        "witness": case.get("witness"),
    }
    return digest(data)


def summary(case, ans):
    """A few small facts kept in clear next to each reference digest."""
    if case["workload"] == "invariants":
        return {"H": list(ans["H"])}
    if case["workload"] == "orbits":
        return {"tangent": ans["tangent"].dim, "unip": ans["unip"].dim, "dense": ans.get("dense")}
    if case["kind"] in ("member", "nonmember"):
        return {"member": ans["result"].is_member, "witness": ans["result"].witness_degree}
    if case["kind"] == "golden":
        return {"exit": ans["exit"]}
    if case["kind"] == "tcomp":
        return {"t": ans["t"], "steps": len(ans["trace"])}
    return {"steps": len(ans["trace"])}
