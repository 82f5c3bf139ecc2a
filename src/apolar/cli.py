"""Command-line front end.

Exit codes: 0 success, 1 syntax/usage error, 2 precondition or guard
failure, 3 internal cross-check failure.
"""

import argparse
import json
import sys

from .apolarity import (
    ann_generators,
    dim_apolar,
    hilbert_function,
    is_compressed,
    max_t_compressed,
    symmetric_decomposition,
)
from .classify import (
    golden_facts,
    square_ideal_reduce,
    t_compressed_normal_form,
    unip_orbit_membership,
)
from .dp import omega_inv
from .errors import (
    CharacteristicTooSmall,
    GuardError,
    InternalError,
    PolySyntaxError,
)
from .fields import GF, QQ
from .parsing import operator_str, parse_classical_poly, parse_poly, poly_str
from .tangent import (
    cangrad_pair_filter,
    dense_orbit_test,
    orbit_dimension,
    perp_tangent,
    tangent_space,
    unip_tangent_space,
)

def _parse_field(text):
    if text == "q":
        return QQ
    if text.startswith("fp:"):
        try:
            return GF(int(text[3:]))
        except ValueError as exc:
            raise PolySyntaxError("bad field spec %r: %s" % (text, exc), 0)
    raise PolySyntaxError("field must be 'q' or 'fp:<p>'", 0)


def _input_poly(args, text):
    field = _parse_field(args.field)
    if args.mode == "classical":
        return omega_inv(parse_classical_poly(text, args.vars, field))
    return parse_poly(text, args.vars, field)


def _emit(args, report):
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, default=str))
    else:
        for key, value in report["results"].items():
            print("%s: %s" % (key, value))
        for w in report["warnings"]:
            print("warning: %s" % w)


def _report(args, command, inputs, results, warnings=None):
    return {
        "command": command,
        # golden and cangrad-filter take no --field; their reports keep "q"
        "field": getattr(args, "field", "q"),
        "vars": getattr(args, "vars", None),
        "inputs": inputs,
        "results": results,
        "warnings": warnings or [],
    }


def _cmd_hilbert(args):
    f = _input_poly(args, args.poly)
    H = hilbert_function(f)
    return _report(args, "hilbert", [args.poly], {"hilbert": list(H)})


def _cmd_ann(args):
    f = _input_poly(args, args.poly)
    upto = args.max_deg if args.max_deg is not None else f.degree + 1
    gens, pieces = ann_generators(f, upto)
    results = {
        "generators": [operator_str(g) for g in gens],
        "graded_dims": {i: pieces[i].dim for i in sorted(pieces)},
        "dim_apolar": dim_apolar(f),
    }
    return _report(args, "ann", [args.poly], results)


def _cmd_tangent(args):
    f = _input_poly(args, args.poly)
    basis = unip_tangent_space(f) if args.unip else tangent_space(f)
    results = {
        "dim": basis.dim,
        "basis": [poly_str(v) for v in basis.vectors()],
    }
    return _report(args, "tangent", [args.poly], results)


def _cmd_perp(args):
    f = _input_poly(args, args.poly)
    basis = perp_tangent(f, unipotent=args.unip, max_degree=args.max_deg)
    results = {
        "dim": basis.dim,
        "basis": [operator_str(v) for v in basis.vectors()],
    }
    return _report(args, "perp", [args.poly], results)


def _cmd_orbit_dim(args):
    f = _input_poly(args, args.poly)
    warnings = []
    try:
        dim = orbit_dimension(f)
        results = {"orbit_dim": dim}
    except CharacteristicTooSmall:
        results = {"tangent_dim": tangent_space(f).dim}
        warnings.append(
            "characteristic <= degree: reporting a tangent-space dimension, "
            "not an orbit dimension"
        )
    return _report(args, "orbit-dim", [args.poly], results, warnings)


def _cmd_symdec(args):
    f = _input_poly(args, args.poly)
    sd = symmetric_decomposition(f)
    return _report(
        args, "symdec", [args.poly], {"deltas": [list(v) for v in sd]}
    )


def _cmd_compressed(args):
    f = _input_poly(args, args.poly)
    return _report(
        args,
        "compressed",
        [args.poly],
        {"compressed": is_compressed(f), "max_t": max_t_compressed(f)},
    )


def _trace_json(trace):
    return {
        "steps": len(trace.steps),
        "intermediate": [poly_str(result) for _, result in trace.steps],
        "final": poly_str(trace.final),
    }


def _cmd_reduce(args):
    f = _input_poly(args, args.poly)
    warnings = []
    if args.method == "tcompressed":
        t, trace = t_compressed_normal_form(f)
        results = {"t": t, "normal_form": poly_str(trace.final),
                   "trace": _trace_json(trace)}
    elif args.method == "square":
        trace = square_ideal_reduce(f, args.t)
        results = {"normal_form": poly_str(trace.final),
                   "trace": _trace_json(trace)}
    else:  # membership
        target = _input_poly(args, args.target)
        inhomogeneous = target.tdf() != target
        if inhomogeneous:
            warnings.append(
                "non-homogeneous target: only 'yes' answers are conclusive"
            )
        res = unip_orbit_membership(
            target, f, allow_inhomogeneous_target=inhomogeneous
        )
        results = {"member": res.is_member}
        if res.is_member:
            results["trace"] = _trace_json(res.trace)
        else:
            results["witness_degree"] = res.witness_degree
    return _report(args, "reduce", [args.poly], results, warnings)


def _cmd_dense_test(args):
    f = _input_poly(args, args.poly)
    dense = dense_orbit_test(f)
    warnings = [
        "a true result is a linear-algebra inclusion P_{<=d-1} within the "
        "tangent space; geometric density of the orbit additionally assumes "
        "an algebraically closed field of characteristic zero"
    ]
    return _report(args, "dense-test", [args.poly], {"dense": dense}, warnings)


def _cmd_cangrad_filter(args):
    return _report(
        args,
        "cangrad-filter",
        ["%d %d" % (args.n, args.d)],
        {"in_list": cangrad_pair_filter(args.n, args.d)},
    )


def _cmd_golden(args):
    return _report(args, "golden %s" % args.which, [], golden_facts(args.which))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="apolar",
        description="Exact computations with Macaulay inverse systems: "
        "Hilbert functions, annihilators, orbit tangent spaces, and "
        "normal-form reductions of apolar algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", default="q", help="q or fp:<p>")
        p.add_argument("--vars", type=int, default=2, help="number of variables")
        p.add_argument("--mode", choices=["dp", "classical"], default="dp")
        p.add_argument("--json", action="store_true")
        p.add_argument("poly", help="polynomial, e.g. '3*x1^[2]*x2 + x3'")

    p = sub.add_parser("hilbert"); common(p); p.set_defaults(run=_cmd_hilbert)
    p = sub.add_parser("ann"); common(p)
    p.add_argument("--max-deg", type=int, default=None)
    p.set_defaults(run=_cmd_ann)
    p = sub.add_parser("tangent"); common(p)
    p.add_argument("--unip", action="store_true")
    p.set_defaults(run=_cmd_tangent)
    p = sub.add_parser("perp"); common(p)
    p.add_argument("--unip", action="store_true")
    p.add_argument("--max-deg", type=int, default=None)
    p.set_defaults(run=_cmd_perp)
    p = sub.add_parser("orbit-dim"); common(p); p.set_defaults(run=_cmd_orbit_dim)
    p = sub.add_parser("symdec"); common(p); p.set_defaults(run=_cmd_symdec)
    p = sub.add_parser("compressed"); common(p); p.set_defaults(run=_cmd_compressed)
    p = sub.add_parser("reduce"); common(p)
    p.add_argument("--method", choices=["tcompressed", "square", "membership"],
                   default="tcompressed")
    p.add_argument("--t", type=int, default=0, help="degree bound for --method square")
    p.add_argument("--target", default=None, help="target for --method membership")
    p.set_defaults(run=_cmd_reduce)
    p = sub.add_parser("dense-test"); common(p); p.set_defaults(run=_cmd_dense_test)
    p = sub.add_parser("cangrad-filter")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_cangrad_filter)
    p = sub.add_parser("golden")
    p.add_argument("which", choices=["13331", "1222111", "char2"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_golden)
    return parser


def cli_dispatch(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "method", None) == "membership" and args.target is None:
            parser.error("reduce --method membership needs --target")
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        report = args.run(args)
    except PolySyntaxError as exc:
        print("syntax error: %s" % exc, file=sys.stderr)
        return 1
    except GuardError as exc:
        print("precondition failed: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2
    except InternalError as exc:
        print("cross-check failure: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3
    _emit(args, report)
    return 0


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
