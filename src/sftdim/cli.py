"""Command-line front end.

Exit codes: 0 success, 2 validation or usage error (an input too large for
the float traces included), 3 ``se-search`` found neither a witness nor an
obstruction, 4 a property violation was detected (failing witness equations
or numerical self-checks) or an iteration cap was hit.  JSON reports are
byte-identical across identical invocations: bases are emitted in canonical
order and floats print with round-trip precision.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .exactlinalg import describe_group, minimal_polynomial
from .sft import (
    AdjacencyMatrix,
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


def _load_matrix(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return ser.parse_matrix_text(fh.read())


def _int_arg(text: str) -> int:
    try:
        return ser._int_token(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _non_negative_int(text: str) -> int:
    value = _int_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _load_json_arg(arg: str):
    if arg.startswith("@"):
        with open(arg[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(arg)


def _base_report(command: str, a: AdjacencyMatrix, label=None) -> dict:
    report = {
        "command": command,
        "library_version": __version__,
        "matrix_sha256": ser.matrix_sha256(a),
    }
    if label:
        report["label"] = label
    return report


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for key, value in sorted(report.items()):
            print(f"{key}: {json.dumps(value, sort_keys=True)}")


def _min_poly_dict(a: AdjacencyMatrix) -> dict:
    mp = minimal_polynomial(a.matrix)
    return {
        "zero_multiplicity": mp.l,
        "reduced_degree": mp.k,
        "reduced_coeffs_low_to_high": list(mp.p_coeffs),
        "full_coeffs_low_to_high": list(mp.m_coeffs),
    }


def cmd_info(args) -> int:
    a, label = _load_matrix(args.matrix)
    report = _base_report("info", a, label)
    report["size"] = a.size
    report["irreducible"] = is_irreducible(a)
    report["primitive"] = is_primitive(a)
    if report["irreducible"]:
        report["period"] = period(a)
    report["minimal_polynomial"] = _min_poly_dict(a)
    report["centralizer_rank"] = cyl.centralizer_rank(a)
    if report["primitive"]:
        data = traces.perron(a)
        report["perron"] = {
            "eigenvalue": data.eigenvalue,
            "left": list(data.left),
            "right": list(data.right),
            "residual": data.residual,
        }
        if data.residual > 1e-6:
            _emit(report, args.format)
            print("perron residual too large", file=sys.stderr)
            return VIOLATION_EXIT
    _emit(report, args.format)
    return 0


def cmd_kgroups(args) -> int:
    a, label = _load_matrix(args.matrix)
    if not is_irreducible(a):
        raise ReducibleError("K-group reports need an irreducible matrix")
    cent = cyl.centralizer_basis(a)
    comm = cyl.commutator_lattice(a)
    k1 = cyl.k1_group_structure(a)
    center = cyl.center_basis(a)
    mp = minimal_polynomial(a.matrix)
    report = _base_report("kgroups", a, label)
    report["centralizer"] = {
        "rank": cent.rank,
        "basis": [b.to_rows() for b in cent.basis],
    }
    report["commutator"] = {"rank": comm.rank, "basis": [b.to_rows() for b in comm.basis]}
    report["k1_level_group"] = {
        "free_rank": k1.free_rank,
        "torsion": list(k1.torsion),
        "snf_diagonal": list(k1.snf_diagonal),
    }
    report["center"] = {"rank": center.rank, "basis": [b.to_rows() for b in center.basis]}
    report["polynomial_subring_rank"] = mp.k
    report["level_groups"] = {
        "stable": f"Z^{a.size}",
        "unstable": f"Z^{a.size}",
        "homoclinic": f"Z^{a.size * a.size}",
        "cylinder_k0": f"Z^{cent.rank}",
        "cylinder_k1": describe_group(k1.free_rank, k1.torsion),
    }
    _emit(report, args.format)
    return 0


def cmd_decompose(args) -> int:
    a, label = _load_matrix(args.matrix)
    dec = spectral_decomposition(a)
    report = _base_report("decompose", a, label)
    report["period"] = dec.period
    report["classes"] = [list(c) for c in dec.classes]
    report["vertex_order"] = list(dec.vertex_order)
    report["component"] = dec.component.matrix.to_rows()
    report["component_primitive"] = is_primitive(dec.component)
    if is_primitive(dec.component):
        lam_comp = traces.perron(dec.component).eigenvalue
        report["component_eigenvalue"] = lam_comp
        if is_primitive(a):
            report["eigenvalue"] = traces.perron(a).eigenvalue
    _emit(report, args.format)
    return 0


def _parse_element(a: AdjacencyMatrix, arg: str):
    return ser.element_from_dict(a, _load_json_arg(arg))


def cmd_mul(args) -> int:
    a, label = _load_matrix(args.matrix)
    x = _parse_element(a, args.left)
    y = _parse_element(a, args.right)
    report = _base_report("mul", a, label)
    if isinstance(x, cyl.CylinderK0Element) and isinstance(y, cyl.CylinderK0Element):
        result = cyl.mul_00(x, y)
        report["equals_identity"] = cyl.k0_equal(result, cyl.k0_identity(a))
        report["equals_zero"] = cyl.k0_equal(result, cyl.k0_zero(a))
        if is_primitive(a):
            report["trace"] = traces.trace_ch(result)
    elif isinstance(x, cyl.CylinderK0Element) and isinstance(y, cyl.CylinderK1Element):
        result = cyl.mul_01(x, y)
    elif isinstance(x, cyl.CylinderK1Element) and isinstance(y, cyl.CylinderK0Element):
        result = cyl.mul_10(x, y)
    elif isinstance(x, cyl.CylinderK1Element) and isinstance(y, cyl.CylinderK1Element):
        result = cyl.mul_11(x, y)
        report["equals_zero"] = True
    else:
        raise ValueError("mul needs two cylinder classes (flavors k0/k1)")
    report["result"] = ser.element_to_dict(result)
    _emit(report, args.format)
    return 0


def cmd_act(args) -> int:
    a, label = _load_matrix(args.matrix)
    x = _parse_element(a, args.element)
    h = _parse_element(a, args.cylinder)
    if not isinstance(h, cyl.CylinderK0Element):
        raise ValueError("the second operand must have flavor k0")
    report = _base_report("act", a, label)
    if isinstance(x, dg.StableElement):
        result = cyl.act_s(x, h)
        report["normalized"] = ser.element_to_dict(dg.normalize_s(result))
        if is_primitive(a):
            report["trace"] = traces.trace_s(result)
    elif isinstance(x, dg.UnstableElement):
        result = cyl.act_u(h, x)
        report["normalized"] = ser.element_to_dict(dg.normalize_u(result))
        if is_primitive(a):
            report["trace"] = traces.trace_u(result)
    else:
        raise ValueError("act needs a stable or unstable element")
    report["result"] = ser.element_to_dict(result)
    _emit(report, args.format)
    return 0


def cmd_trace(args) -> int:
    a, label = _load_matrix(args.matrix)
    x = _parse_element(a, args.element)
    report = _base_report("trace", a, label)
    if isinstance(x, dg.StableElement):
        report["trace"] = traces.trace_s(x)
    elif isinstance(x, dg.UnstableElement):
        report["trace"] = traces.trace_u(x)
    elif isinstance(x, cyl.CylinderK0Element):
        report["trace"] = traces.trace_ch(x)
    else:
        raise ValueError("trace needs flavor s, u, or k0")
    _emit(report, args.format)
    return 0


def cmd_equal(args) -> int:
    a, label = _load_matrix(args.matrix)
    x = _parse_element(a, args.left)
    y = _parse_element(a, args.right)
    report = _base_report("equal", a, label)
    if type(x) is not type(y):
        raise ValueError("equal needs two elements of the same flavor")
    if isinstance(x, cyl.CylinderK1Element):
        decision = cyl.k1_equal(x, y)
        report["verdict"] = decision.verdict.value
        if decision.witness_level is not None:
            report["witness_level"] = decision.witness_level
    elif isinstance(x, cyl.RAElement):
        report["equal"] = cyl.ra_equal(x, y)
    else:  # the four other towers (s, u, h, k0) share one equality
        report["equal"] = dg.equal(x, y)
    _emit(report, args.format)
    return 0


def cmd_positive(args) -> int:
    a, label = _load_matrix(args.matrix)
    x = _parse_element(a, args.element)
    if not isinstance(x, dg.StableElement):
        raise ValueError("positivity is decided for stable elements (flavor s)")
    report = _base_report("positive", a, label)
    report["positivity"] = dg.is_positive_s(x).kind.value
    _emit(report, args.format)
    return 0


def cmd_ra(args) -> int:
    a, label = _load_matrix(args.matrix)
    report = _base_report("ra", a, label)
    if args.ra_command == "reduce":
        coeffs = ser._ints(_load_json_arg(args.coeffs))
        result = cyl.ra_reduce(a, coeffs, args.level)
        report["result"] = ser.element_to_dict(result)
        report["is_zero"] = result.is_zero
    else:
        x = _parse_element(a, args.element)
        if not isinstance(x, cyl.CylinderK0Element):
            raise ValueError("membership expects a k0 element")
        member = cyl.ra_membership(x)
        report["member"] = member is not None
        if member is not None:
            report["witness"] = ser.element_to_dict(member)
    _emit(report, args.format)
    return 0


def cmd_duality(args) -> int:
    a, label = _load_matrix(args.matrix)
    report = _base_report("duality", a, label)
    if args.duality_command == "eval":
        phi = ser.hom_from_dict(a, _load_json_arg(args.hom))
        x = _parse_element(a, args.element)
        if not isinstance(x, dg.StableElement):
            raise ValueError("evaluation expects a stable element")
        report["result"] = ser.element_to_dict(dual.hom_eval(phi, x))
    elif args.duality_command == "equal":
        p1 = ser.hom_from_dict(a, _load_json_arg(args.left))
        p2 = ser.hom_from_dict(a, _load_json_arg(args.right))
        report["equal"] = dual.hom_equal(p1, p2)
    elif args.duality_command == "to-unstable":
        phi = ser.hom_from_dict(a, _load_json_arg(args.hom))
        report["result"] = ser.element_to_dict(dual.hom_to_unstable(phi))
    else:  # from-unstable
        x = _parse_element(a, args.element)
        if not isinstance(x, dg.UnstableElement):
            raise ValueError("conversion expects an unstable element")
        report["result"] = ser.hom_to_dict(dual.unstable_to_hom(x))
    _emit(report, args.format)
    return 0


def cmd_se_verify(args) -> int:
    a, label_a = _load_matrix(args.matrix_a)
    b, label_b = _load_matrix(args.matrix_b)
    witness = ser.witness_from_dict(_load_json_arg(args.witness))
    report = {
        "command": "se-verify",
        "library_version": __version__,
        "matrix_a_sha256": ser.matrix_sha256(a),
        "matrix_b_sha256": ser.matrix_sha256(b),
    }
    result = se.verify(a, b, witness)
    report["valid"] = result.ok
    report["checks"] = {
        c.name: {"ok": c.ok, "residual": c.residual.to_rows() if c.residual else None}
        for c in result.checks
    }
    _emit(report, args.format)
    return 0 if result.ok else VIOLATION_EXIT


def cmd_se_search(args) -> int:
    a, label_a = _load_matrix(args.matrix_a)
    b, label_b = _load_matrix(args.matrix_b)
    result = se.search(a, b, k_max=args.kmax, entry_bound=args.entry_bound)
    report = {
        "command": "se-search",
        "library_version": __version__,
        "matrix_a_sha256": ser.matrix_sha256(a),
        "matrix_b_sha256": ser.matrix_sha256(b),
        "found": result.witness is not None,
        "obstructions": list(result.obstructions),
        "candidates_tried": result.candidates_tried,
        "bounds": {"k_max": result.k_max, "entry_bound": result.entry_bound},
        "note": "absence of a witness within bounds is not a proof of inequivalence",
    }
    if result.witness is not None:
        report["witness"] = ser.witness_to_dict(result.witness)
    _emit(report, args.format)
    if result.witness is not None or result.obstructions:
        return 0
    return UNDECIDED_EXIT


def build_parser() -> argparse.ArgumentParser:
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="validation, irreducibility, period, eigen-data")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("kgroups", help="centralizer/commutator lattices and K1 shape")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_kgroups)

    p = sub.add_parser("decompose", help="cyclic classes and the mixing component")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("mul", help="graded product of two cylinder classes")
    p.add_argument("matrix")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("act", help="module action of a k0 class on s/u elements")
    p.add_argument("matrix")
    p.add_argument("element")
    p.add_argument("cylinder")
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("trace", help="trace of an element (flavors s, u, k0)")
    p.add_argument("matrix")
    p.add_argument("element")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("equal", help="decidable equality in the limit groups")
    p.add_argument("matrix")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("positive", help="positive-cone membership of a stable class")
    p.add_argument("matrix")
    p.add_argument("element")
    p.set_defaults(func=cmd_positive)

    p = sub.add_parser("ra", help="polynomial-subring reduction and membership")
    rasub = p.add_subparsers(dest="ra_command", required=True)
    pr = rasub.add_parser("reduce")
    pr.add_argument("matrix")
    pr.add_argument("coeffs", help="JSON list, low degree first")
    pr.add_argument("level", type=_int_arg)
    pr.set_defaults(func=cmd_ra)
    pm = rasub.add_parser("member")
    pm.add_argument("matrix")
    pm.add_argument("element")
    pm.set_defaults(func=cmd_ra)

    p = sub.add_parser("duality", help="stable-hom evaluation and conversions")
    dsub = p.add_subparsers(dest="duality_command", required=True)
    pe = dsub.add_parser("eval")
    pe.add_argument("matrix")
    pe.add_argument("hom", help='JSON {"z": [...], "level": N}')
    pe.add_argument("element")
    pe.set_defaults(func=cmd_duality)
    pq = dsub.add_parser("equal")
    pq.add_argument("matrix")
    pq.add_argument("left")
    pq.add_argument("right")
    pq.set_defaults(func=cmd_duality)
    pt = dsub.add_parser("to-unstable")
    pt.add_argument("matrix")
    pt.add_argument("hom")
    pt.set_defaults(func=cmd_duality)
    pf = dsub.add_parser("from-unstable")
    pf.add_argument("matrix")
    pf.add_argument("element")
    pf.set_defaults(func=cmd_duality)

    p = sub.add_parser("se-verify", help="check a shift-equivalence witness")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("witness", help='JSON {"R": rows, "S": rows, "k": lag} or @file')
    p.set_defaults(func=cmd_se_verify)

    p = sub.add_parser("se-search", help="bounded search for a witness")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--kmax", type=_non_negative_int, default=4)
    p.add_argument("--entry-bound", type=_non_negative_int, default=3, dest="entry_bound")
    p.set_defaults(func=cmd_se_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError, OverflowError) as exc:
        # OverflowError: an input too large for the float traces
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # iteration caps: Smith passes, closures, minimal polynomial
        print(f"error: {exc}", file=sys.stderr)
        return VIOLATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
