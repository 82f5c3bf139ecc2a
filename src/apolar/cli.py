"""Command-line front end.

One dispatcher, ``_run``, serves every command.  It parses the input
polynomial once (``--field``, ``--vars``, ``--mode``; ``golden`` and
``cangrad-filter`` have none), runs the command and builds the report
once: ``command`` (the subcommand, ``golden <which>`` for golden),
``field``, ``vars``, ``inputs`` (the input texts: the polynomial, then a
membership target; ``"n d"`` for cangrad-filter), ``results`` and
``warnings``.  ``_emit`` prints it, as JSON with ``--json``, else one
``key: value`` line per result, in insertion order, and one ``warning:``
line per warning.

A command is ``_cmd_<name>(args, f, warnings)``: it gets the parsed
polynomial (None without one), appends its warnings, if any, and returns
its results dict.  Adding a command takes that function and one line
``command(name, _cmd_<name>)`` in ``_build_parser``, plus its own
options.  ``command`` builds every subparser, so an option of every
report (``--json`` today) is added there once.

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
    _GOLDEN,
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
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        for key, value in report["results"].items():
            print("%s: %s" % (key, value))
        for w in report["warnings"]:
            print("warning: %s" % w)


def _run(args):
    """Parse the input polynomial, run the command on it and build its report."""
    f = _input_poly(args, args.poly) if "poly" in args else None
    warnings = []
    results = args.run(args, f, warnings)
    if "which" in args:
        command, inputs = "%s %s" % (args.command, args.which), []
    elif "poly" in args:
        command, inputs = args.command, [args.poly]
    else:
        command, inputs = args.command, ["%d %d" % (args.n, args.d)]
    if getattr(args, "method", None) == "membership":
        inputs.append(args.target)
    return {
        "command": command,
        # golden and cangrad-filter take no --field; their reports keep "q"
        "field": getattr(args, "field", "q"),
        "vars": getattr(args, "vars", None),
        "inputs": inputs,
        "results": results,
        "warnings": warnings,
    }


def _cmd_hilbert(args, f, warnings):
    return {"hilbert": list(hilbert_function(f))}


def _cmd_ann(args, f, warnings):
    upto = args.max_deg if args.max_deg is not None else f.degree + 1
    gens, pieces = ann_generators(f, upto)
    return {
        "generators": [operator_str(g) for g in gens],
        "graded_dims": {i: pieces[i].dim for i in sorted(pieces)},
        "dim_apolar": dim_apolar(f),
    }


def _cmd_tangent(args, f, warnings):
    basis = unip_tangent_space(f) if args.unip else tangent_space(f)
    return {
        "dim": basis.dim,
        "basis": [poly_str(v) for v in basis.vectors()],
    }


def _cmd_perp(args, f, warnings):
    basis = perp_tangent(f, unipotent=args.unip, max_degree=args.max_deg)
    return {
        "dim": basis.dim,
        "basis": [operator_str(v) for v in basis.vectors()],
    }


def _cmd_orbit_dim(args, f, warnings):
    try:
        return {"orbit_dim": orbit_dimension(f)}
    except CharacteristicTooSmall:
        warnings.append(
            "characteristic <= degree: reporting a tangent-space dimension, "
            "not an orbit dimension"
        )
        return {"tangent_dim": tangent_space(f).dim}


def _cmd_symdec(args, f, warnings):
    return {"deltas": [list(v) for v in symmetric_decomposition(f)]}


def _cmd_compressed(args, f, warnings):
    return {"compressed": is_compressed(f), "max_t": max_t_compressed(f)}


def _trace_json(trace):
    return {
        "steps": len(trace.steps),
        "intermediate": [poly_str(result) for _, result in trace.steps],
        "final": poly_str(trace.final),
    }


def _cmd_reduce(args, f, warnings):
    if args.method == "tcompressed":
        t, trace = t_compressed_normal_form(f)
        return {"t": t, "normal_form": poly_str(trace.final),
                "trace": _trace_json(trace)}
    if args.method == "square":
        trace = square_ideal_reduce(f, args.t)
        return {"normal_form": poly_str(trace.final),
                "trace": _trace_json(trace)}
    # membership: the target is parsed after f
    target = _input_poly(args, args.target)
    inhomogeneous = target.tdf() != target
    if inhomogeneous:
        warnings.append(
            "non-homogeneous target: only 'yes' answers are conclusive"
        )
    res = unip_orbit_membership(
        target, f, allow_inhomogeneous_target=inhomogeneous
    )
    if res.is_member:
        return {"member": True, "trace": _trace_json(res.trace)}
    return {"member": False, "witness_degree": res.witness_degree}


def _cmd_dense_test(args, f, warnings):
    dense = dense_orbit_test(f)
    warnings.append(
        "a true result is a linear-algebra inclusion P_{<=d-1} within the "
        "tangent space; geometric density of the orbit additionally assumes "
        "an algebraically closed field of characteristic zero"
    )
    return {"dense": dense}


def _cmd_cangrad_filter(args, f, warnings):
    return {"in_list": cangrad_pair_filter(args.n, args.d)}


def _cmd_golden(args, f, warnings):
    return golden_facts(args.which)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="apolar",
        description="Exact computations with Macaulay inverse systems: "
        "Hilbert functions, annihilators, orbit tangent spaces, and "
        "normal-form reductions of apolar algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, poly=True):
        """The subparser of one command: ``--json``, and for a polynomial
        command ``--field``, ``--vars``, ``--mode`` and the polynomial."""
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        if poly:
            p.add_argument("--field", default="q", help="q or fp:<p>")
            p.add_argument("--vars", type=int, default=2, help="number of variables")
            p.add_argument("--mode", choices=["dp", "classical"], default="dp")
            p.add_argument("poly", help="polynomial, e.g. '3*x1^[2]*x2 + x3'")
        p.add_argument("--json", action="store_true")
        return p

    command("hilbert", _cmd_hilbert)
    command("ann", _cmd_ann).add_argument("--max-deg", type=int, default=None)
    command("tangent", _cmd_tangent).add_argument("--unip", action="store_true")
    p = command("perp", _cmd_perp)
    p.add_argument("--unip", action="store_true")
    p.add_argument("--max-deg", type=int, default=None)
    command("orbit-dim", _cmd_orbit_dim)
    command("symdec", _cmd_symdec)
    command("compressed", _cmd_compressed)
    p = command("reduce", _cmd_reduce)
    p.add_argument("--method", choices=["tcompressed", "square", "membership"],
                   default="tcompressed")
    p.add_argument("--t", type=int, default=0, help="degree bound for --method square")
    p.add_argument("--target", default=None, help="target for --method membership")
    command("dense-test", _cmd_dense_test)
    p = command("cangrad-filter", _cmd_cangrad_filter, poly=False)
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    command("golden", _cmd_golden, poly=False).add_argument("which", choices=list(_GOLDEN))
    return parser


def cli_dispatch(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        method = getattr(args, "method", None)
        if method == "membership" and args.target is None:
            parser.error("reduce --method membership needs --target")
        if method in ("tcompressed", "square") and args.target is not None:
            parser.error("reduce --target needs --method membership, not %s" % method)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        report = _run(args)
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
