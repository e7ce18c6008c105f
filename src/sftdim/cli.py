"""Command-line front end.

One path runs every invocation.  :func:`main` parses argv with the parser
that this process builds once, loads the matrix (both matrices for
``se-verify`` and ``se-search``), starts the report with the command, the
library version and each matrix's SHA-256, calls the subcommand's handler,
emits the report and returns the exit code.  A handler only fills the report
and returns its exit code.  :data:`COMMANDS` declares every subcommand.

Exit codes: 0 success, 2 validation or usage error (an input past the size
bounds below, an input too large for the float traces, or JSON nested too
deeply to read, included), 3
``se-search`` found neither a witness nor an obstruction, 4 a property
violation was detected (failing witness equations or numerical self-checks)
or an iteration cap was hit.  JSON reports are byte-identical across
identical invocations: bases are emitted in canonical order and floats print
with round-trip precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import __version__
from .exactlinalg import describe_group, minimal_polynomial
from .sft import (
    ReducibleError,
    is_irreducible,
    is_primitive,
    period,
    spectral_decomposition,
)
from . import traces
from . import dimension_groups as dg
from . import cylinder_ring as cyl
from . import duality as dual
from . import shift_equivalence as se
from . import serialization as ser

UNDECIDED_EXIT = 3
VIOLATION_EXIT = 4
_MATRIX_ARGS = ("matrix", "matrix_a", "matrix_b")


# Every input (a matrix file, a JSON argument inline or @file, an integer
# argument) is checked against these bounds before it is parsed: reading an
# integer takes time quadratic in its digits.
_MAX_DIGITS = 100_000
_MAX_INPUT_CHARS = 1_000_000
_LONG_INTEGER = re.compile(f"(?<![0-9])[0-9]{{{_MAX_DIGITS + 1}}}")


def _bounded(text: str) -> str:
    if len(text) > _MAX_INPUT_CHARS:
        raise ValueError(f"inputs are limited to {_MAX_INPUT_CHARS} characters")
    if _LONG_INTEGER.search(text):
        raise ValueError(f"integers are limited to {_MAX_DIGITS} digits")
    return text


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return _bounded(fh.read(_MAX_INPUT_CHARS + 1))


def _int_arg(text: str) -> int:
    try:
        return ser._int_token(_bounded(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _non_negative_int(text: str) -> int:
    value = _int_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _load_json_arg(arg: str):
    return json.loads(_read(arg[1:]) if arg.startswith("@") else _bounded(arg))


def _parse_element(a, arg: str, cls=None, error=None):
    """The element ``arg`` names; a ValueError(``error``) unless it is a ``cls``."""
    x = ser.element_from_dict(a, _load_json_arg(arg))
    if cls is not None and not isinstance(x, cls):
        raise ValueError(error)
    return x


def _parse_hom(a, arg: str):
    return ser.hom_from_dict(a, _load_json_arg(arg))


def _emit(report: dict, fmt: str) -> None:
    """Render the whole report, then print it."""
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = "\n".join(f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(report.items()))
    print(text)


def _basis_report(lat) -> dict:
    return {"rank": lat.rank, "basis": [b.to_rows() for b in lat.basis]}


_TRACES = {
    dg.StableElement: traces.trace_s,
    dg.UnstableElement: traces.trace_u,
    cyl.CylinderK0Element: traces.trace_ch,
}


# Each handler takes the parsed arguments, the report and the loaded matrices.
# It returns the exit code, or for a violation found once the report is filled,
# the message to print after it (exit 4).


def cmd_info(args, report, a):
    report["size"] = a.size
    report["irreducible"] = is_irreducible(a)
    report["primitive"] = is_primitive(a)
    if report["irreducible"]:
        report["period"] = period(a)
    mp = minimal_polynomial(a.matrix)
    report["minimal_polynomial"] = {
        "zero_multiplicity": mp.l,
        "reduced_degree": mp.k,
        "reduced_coeffs_low_to_high": list(mp.p_coeffs),
        "full_coeffs_low_to_high": list(mp.m_coeffs),
    }
    report["centralizer_rank"] = cyl.centralizer_rank(a)
    if report["primitive"]:
        data = traces.perron(a)
        report["perron"] = {
            "eigenvalue": data.eigenvalue,
            "left": list(data.left),
            "right": list(data.right),
            "residual": data.residual,
        }
        if data.relative_residual > 1e-9:
            return "perron residual too large"
    return 0


def cmd_kgroups(args, report, a):
    if not is_irreducible(a):
        raise ReducibleError("K-group reports need an irreducible matrix")
    report["centralizer"] = _basis_report(cyl.centralizer_basis(a))
    report["commutator"] = _basis_report(cyl.commutator_lattice(a))
    k1 = cyl.k1_group_structure(a)
    report["k1_level_group"] = {
        "free_rank": k1.free_rank,
        "torsion": list(k1.torsion),
        "snf_diagonal": list(k1.snf_diagonal),
    }
    report["center"] = _basis_report(cyl.center_basis(a))
    report["polynomial_subring_rank"] = minimal_polynomial(a.matrix).k
    report["level_groups"] = {
        "stable": f"Z^{a.size}",
        "unstable": f"Z^{a.size}",
        "homoclinic": f"Z^{a.size * a.size}",
        "cylinder_k0": f"Z^{report['centralizer']['rank']}",
        "cylinder_k1": describe_group(k1.free_rank, k1.torsion),
    }
    return 0


def cmd_decompose(args, report, a):
    dec = spectral_decomposition(a)
    report["period"] = dec.period
    report["classes"] = [list(c) for c in dec.classes]
    report["vertex_order"] = list(dec.vertex_order)
    report["component"] = dec.component.matrix.to_rows()
    report["component_primitive"] = is_primitive(dec.component)
    if report["component_primitive"]:
        report["component_eigenvalue"] = traces.perron(dec.component).eigenvalue
        if is_primitive(a):
            report["eigenvalue"] = traces.perron(a).eigenvalue
    return 0


def cmd_mul(args, report, a):
    x = _parse_element(a, args.left)
    y = _parse_element(a, args.right)
    result = cyl.mul(x, y)
    if type(x) is type(y) is cyl.CylinderK1Element:
        report["equals_zero"] = True
    elif isinstance(result, cyl.CylinderK0Element):
        report["equals_identity"] = cyl.k0_equal(result, cyl.k0_identity(a))
        report["equals_zero"] = cyl.k0_equal(result, cyl.k0_zero(a))
        if is_primitive(a):
            report["trace"] = traces.trace_ch(result)
    report["result"] = ser.element_to_dict(result)
    return 0


def cmd_act(args, report, a):
    x = _parse_element(a, args.element)
    h = _parse_element(a, args.cylinder, cyl.CylinderK0Element, "the second operand must have flavor k0")
    if isinstance(x, dg.StableElement):
        result = cyl.act_s(x, h)
    elif isinstance(x, dg.UnstableElement):
        result = cyl.act_u(h, x)
    else:
        raise ValueError("act needs a stable or unstable element")
    report["normalized"] = ser.element_to_dict(dg.normalize(result))
    if is_primitive(a):
        report["trace"] = _TRACES[type(result)](result)
    report["result"] = ser.element_to_dict(result)
    return 0


def cmd_trace(args, report, a):
    x = _parse_element(a, args.element)
    trace = _TRACES.get(type(x))
    if trace is None:
        raise ValueError("trace needs flavor s, u, or k0")
    report["trace"] = trace(x)
    return 0


def cmd_equal(args, report, a):
    x = _parse_element(a, args.left)
    y = _parse_element(a, args.right)
    if type(x) is not type(y):
        raise ValueError("equal needs two elements of the same flavor")
    if isinstance(x, cyl.CylinderK1Element):
        decision = cyl.k1_equal(x, y)
        report["verdict"] = decision.verdict.value
        if decision.witness_level is not None:
            report["witness_level"] = decision.witness_level
    else:  # the five other towers (s, u, h, k0, ra) share one equality
        report["equal"] = dg.equal(x, y)
    return 0


def cmd_positive(args, report, a):
    x = _parse_element(a, args.element, dg.StableElement,
                       "positivity is decided for stable elements (flavor s)")
    report["positivity"] = dg.is_positive_s(x).kind.value
    return 0


def cmd_ra_reduce(args, report, a):
    result = cyl.ra_reduce(a, ser._ints(_load_json_arg(args.coeffs)), args.level)
    report["result"] = ser.element_to_dict(result)
    report["is_zero"] = result.is_zero
    return 0


def cmd_ra_member(args, report, a):
    x = _parse_element(a, args.element, cyl.CylinderK0Element, "membership expects a k0 element")
    member = cyl.ra_membership(x)
    report["member"] = member is not None
    if member is not None:
        report["witness"] = ser.element_to_dict(member)
    return 0


def cmd_hom_eval(args, report, a):
    phi = _parse_hom(a, args.hom)
    x = _parse_element(a, args.element, dg.StableElement, "evaluation expects a stable element")
    report["result"] = ser.element_to_dict(dual.hom_eval(phi, x))
    return 0


def cmd_hom_equal(args, report, a):
    report["equal"] = dual.hom_equal(_parse_hom(a, args.left), _parse_hom(a, args.right))
    return 0


def cmd_hom_to_unstable(args, report, a):
    report["result"] = ser.element_to_dict(dual.hom_to_unstable(_parse_hom(a, args.hom)))
    return 0


def cmd_hom_from_unstable(args, report, a):
    x = _parse_element(a, args.element, dg.UnstableElement, "conversion expects an unstable element")
    report["result"] = ser.hom_to_dict(dual.unstable_to_hom(x))
    return 0


def cmd_se_verify(args, report, a, b):
    witness = ser.witness_from_dict(_load_json_arg(args.witness))
    result = se.verify(a, b, witness)
    report["valid"] = result.ok
    report["checks"] = {
        c.name: {"ok": c.ok, "residual": c.residual.to_rows() if c.residual else None}
        for c in result.checks
    }
    return 0 if result.ok else VIOLATION_EXIT


def cmd_se_search(args, report, a, b):
    result = se.search(a, b, k_max=args.kmax, entry_bound=args.entry_bound)
    report["found"] = result.witness is not None
    report["obstructions"] = list(result.obstructions)
    report["candidates_tried"] = result.candidates_tried
    report["bounds"] = {"k_max": result.k_max, "entry_bound": result.entry_bound}
    report["note"] = "absence of a witness within bounds is not a proof of inequivalence"
    if result.witness is not None:
        report["witness"] = ser.witness_to_dict(result.witness)
    return 0 if report["found"] or result.obstructions else UNDECIDED_EXIT


_BOUND = {"type": _non_negative_int}

# One row per subcommand: its name ("group leaf" below the groups ra and
# duality), its help (None: added without one), its handler (None: a group,
# whose subcommands follow it) and its arguments, each a name or a pair
# (name, add_argument keywords).
COMMANDS = (
    ("info", "validation, irreducibility, period, eigen-data", cmd_info, ("matrix",)),
    ("kgroups", "centralizer/commutator lattices and K1 shape", cmd_kgroups, ("matrix",)),
    ("decompose", "cyclic classes and the mixing component", cmd_decompose, ("matrix",)),
    ("mul", "graded product of two cylinder classes", cmd_mul, ("matrix", "left", "right")),
    ("act", "module action of a k0 class on s/u elements", cmd_act, ("matrix", "element", "cylinder")),
    ("trace", "trace of an element (flavors s, u, k0)", cmd_trace, ("matrix", "element")),
    ("equal", "decidable equality in the limit groups", cmd_equal, ("matrix", "left", "right")),
    ("positive", "positive-cone membership of a stable class", cmd_positive, ("matrix", "element")),
    ("ra", "polynomial-subring reduction and membership", None, ()),
    ("ra reduce", None, cmd_ra_reduce,
     ("matrix", ("coeffs", {"help": "JSON list, low degree first"}), ("level", {"type": _int_arg}))),
    ("ra member", None, cmd_ra_member, ("matrix", "element")),
    ("duality", "stable-hom evaluation and conversions", None, ()),
    ("duality eval", None, cmd_hom_eval,
     ("matrix", ("hom", {"help": 'JSON {"z": [...], "level": N}'}), "element")),
    ("duality equal", None, cmd_hom_equal, ("matrix", "left", "right")),
    ("duality to-unstable", None, cmd_hom_to_unstable, ("matrix", "hom")),
    ("duality from-unstable", None, cmd_hom_from_unstable, ("matrix", "element")),
    ("se-verify", "check a shift-equivalence witness", cmd_se_verify,
     ("matrix_a", "matrix_b", ("witness", {"help": 'JSON {"R": rows, "S": rows, "k": lag} or @file'}))),
    ("se-search", "bounded search for a witness", cmd_se_search,
     ("matrix_a", "matrix_b", ("--kmax", {**_BOUND, "default": 4}),
      ("--entry-bound", {**_BOUND, "default": 3, "dest": "entry_bound"}))),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand in :data:`COMMANDS`, built once per
    process; parsing leaves it unchanged, so every call shares it."""
    parser = argparse.ArgumentParser(
        prog="sftdim",
        description=(
            "Exact K-theoretic invariants of a shift of finite type, computed "
            "from its adjacency matrix.  Matrix files hold JSON rows "
            "([[2,1],[1,1]] or {\"matrix\": ..., \"label\": ...}) or plain "
            "whitespace-separated rows.  Elements are JSON objects "
            "{\"payload\": ..., \"level\": N, \"flavor\": \"s|u|h|k0|k1|ra\"}, "
            "passed inline or as @file."
        ),
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="text", help="report format"
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, help_, handler, arguments in COMMANDS:
        group, _, leaf = name.rpartition(" ")
        p = groups[group].add_parser(leaf, **({} if help_ is None else {"help": help_}))
        for arg in arguments:
            flag, keywords = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(flag, **keywords)
        if handler is None:
            groups[name] = p.add_subparsers(dest=f"{name}_command", required=True)
        else:
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # exact integers are read and printed in full: Python's limit on the
    # digits of int <-> str conversions (3.11 on) is lifted until main returns
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        report = {"command": args.command, "library_version": __version__}
        matrices = []
        for name in (n for n in _MATRIX_ARGS if n in vars(args)):
            a, label = ser.parse_matrix_text(_read(getattr(args, name)))
            report[f"{name}_sha256"] = ser.matrix_sha256(a)
            if label and name == "matrix":  # the se-* reports carry no labels
                report["label"] = label
            matrices.append(a)
        status = args.func(args, report, *matrices)
        _emit(report, args.format)
    except (ValueError, TypeError, KeyError, OSError, OverflowError, RecursionError) as exc:
        # OverflowError: an input too large for the float traces; RecursionError
        # (a RuntimeError): JSON nested too deeply to read
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # iteration caps: Smith passes, closures, minimal polynomial
        print(f"error: {exc}", file=sys.stderr)
        return VIOLATION_EXIT
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    if isinstance(status, str):
        print(status, file=sys.stderr)
        return VIOLATION_EXIT
    return status


if __name__ == "__main__":
    sys.exit(main())
