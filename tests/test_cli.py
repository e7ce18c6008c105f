import argparse
import contextlib
import itertools
import json
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sftdim import cli, cylinder_ring, exactlinalg, traces
from sftdim.cli import main
from sftdim import IntMatrix, StableElement, ra_reduce, validate
from sftdim.serialization import (
    element_from_dict,
    element_to_dict,
    hom_from_dict,
    hom_to_dict,
    matrix_sha256,
    parse_matrix_text,
    witness_from_dict,
)
from sftdim.duality import StableHom, hom_eval

from make_cli_digests import LARGE


@pytest.fixture
def matrix_file(tmp_path):
    def write(rows, name="matrix.json", as_text=False, label=None):
        path = tmp_path / name
        if as_text:
            path.write_text("\n".join(" ".join(str(x) for x in row) for row in rows))
        elif label:
            path.write_text(json.dumps({"matrix": rows, "label": label}))
        else:
            path.write_text(json.dumps(rows))
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSerialization:
    def test_element_round_trip(self, fib):
        for elem in [
            StableElement(fib, (1, -2), 3),
            element_from_dict(fib, {"payload": [[1, 0], [0, 1]], "level": 0, "flavor": "k0"}),
            element_from_dict(fib, {"payload": [2, 1], "level": 1, "flavor": "ra"}),
        ]:
            assert element_from_dict(fib, element_to_dict(elem)) == elem

    def test_hom_round_trip(self, fib):
        phi = StableHom(fib, (3, -1), 2)
        assert hom_from_dict(fib, hom_to_dict(phi)) == phi

    def test_witness_parsing(self):
        w = witness_from_dict({"R": [[1, 0], [0, 1]], "S": [[1, 1], [1, 0]], "k": 1})
        assert w.k == 1 and w.r == IntMatrix.identity(2)

    def test_matrix_text_formats(self):
        a1, _ = parse_matrix_text("[[1,1],[1,0]]")
        a2, _ = parse_matrix_text("1 1\n1 0\n")
        a3, label = parse_matrix_text('{"matrix": [[1,1],[1,0]], "label": "golden"}')
        assert a1 == a2 == a3
        assert label == "golden"

    def test_hash_is_stable(self, fib):
        assert matrix_sha256(fib) == matrix_sha256(validate([[1, 1], [1, 0]]))


class TestInfoAndReports:
    def test_info_scalar(self, capsys, matrix_file):
        code, out, _ = run_cli(capsys, "--format", "json", "info", matrix_file([[2]]))
        assert code == 0
        report = json.loads(out)
        assert report["primitive"] is True
        assert report["perron"]["eigenvalue"] == pytest.approx(2.0)
        assert report["minimal_polynomial"]["reduced_coeffs_low_to_high"] == [-2, 1]

    def test_info_period_two(self, capsys, matrix_file):
        code, out, _ = run_cli(
            capsys, "--format", "json", "info", matrix_file([[0, 1], [1, 0]])
        )
        assert code == 0
        report = json.loads(out)
        assert report["irreducible"] and not report["primitive"]
        assert report["period"] == 2
        assert "perron" not in report

    def test_info_symmetric_example(self, capsys, matrix_file):
        code, out, _ = run_cli(
            capsys, "--format", "json", "info",
            matrix_file([[2, 1, 1], [1, 2, 1], [1, 1, 2]]),
        )
        report = json.loads(out)
        assert report["perron"]["eigenvalue"] == pytest.approx(4.0)
        assert report["centralizer_rank"] == 5

    def test_perron_self_check_is_scale_free(self, capsys, matrix_file):
        # the residual is 2^-12, one ulp at lambda ~ 10^12: far above 1e-6, but
        # relative to lambda and the vectors it is rounding error
        path = matrix_file([[10**12, 1, 0], [1, 10**12, 3], [2, 0, 10**12 - 1]])
        code, out, err = run_cli(capsys, "--format", "json", "info", path)
        assert (code, err) == (0, "") and json.loads(out)["perron"]["residual"] > 1e-6
        code, _, err = run_cli(capsys, "--format", "text", "info", path)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("which", [0, 1])
    def test_perturbed_perron_vector_exits_4(self, capsys, matrix_file, monkeypatch, which):
        # left is about (0.001, 1) and right (500, 0.5): one part in 10^6 of
        # either vector's small entry is caught in units of that vector
        calls, exact = itertools.count(), traces._eigenvector

        def perturbed(edge, r):
            v = exact(edge, r)
            if next(calls) == which:  # 0: the left vector, 1: the right one
                v[0] *= 1 + 1e-6
            return v

        monkeypatch.setattr(traces, "_eigenvector", perturbed)
        code, out, err = run_cli(capsys, "--format", "json", "info", matrix_file([[1, 10**6], [1, 1]]))
        assert code == 4 and err == "perron residual too large\n"
        assert "perron" in json.loads(out)  # the report is printed in full first

    def test_reports_are_byte_identical(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        _, out1, _ = run_cli(capsys, "--format", "json", "kgroups", path)
        _, out2, _ = run_cli(capsys, "--format", "json", "kgroups", path)
        assert out1 == out2

    def test_validation_error_exit_code(self, capsys, matrix_file):
        code, _, err = run_cli(
            capsys, "--format", "json", "info", matrix_file([[0, 1], [0, 1]])
        )
        assert code == 2
        assert "column" in err

    def test_kgroups_values(self, capsys, matrix_file):
        code, out, _ = run_cli(
            capsys, "--format", "json", "kgroups", matrix_file([[1, 1], [1, 0]])
        )
        report = json.loads(out)
        assert report["centralizer"]["rank"] == 2
        assert report["k1_level_group"]["snf_diagonal"] == [1, 1, 0, 0]
        assert report["level_groups"]["cylinder_k1"] == "Z^2"

    def test_kgroups_scalar(self, capsys, matrix_file):
        code, out, _ = run_cli(capsys, "--format", "json", "kgroups", matrix_file([[2]]))
        report = json.loads(out)
        assert report["level_groups"]["cylinder_k0"] == "Z^1"
        assert report["level_groups"]["cylinder_k1"] == "Z"

    def test_kgroups_reducible_rejected(self, capsys, matrix_file):
        code, _, err = run_cli(
            capsys, "--format", "json", "kgroups", matrix_file([[1, 0], [0, 1]])
        )
        assert code == 2

    def test_iteration_cap_exits_cleanly(self, capsys, matrix_file, monkeypatch):
        # a Smith reduction with no passes left raises RuntimeError; the CLI
        # reports it with exit 4 instead of a traceback
        monkeypatch.setattr(exactlinalg, "_SNF_PASS_CAP", 0)
        path = matrix_file([[1, 2, 0], [0, 1, 3], [2, 0, 1]])
        code, out, err = run_cli(capsys, "--format", "json", "kgroups", path)
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_decompose(self, capsys, matrix_file):
        code, out, _ = run_cli(
            capsys, "--format", "json", "decompose", matrix_file([[0, 2], [3, 0]])
        )
        assert code == 0
        report = json.loads(out)
        assert report["period"] == 2
        assert report["component"] == [[6]]
        assert report["component_primitive"] is True


class TestElementCommands:
    def test_mul_inverse_pair(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        gen = json.dumps({"payload": [[1, 1], [1, 0]], "level": 0, "flavor": "k0"})
        inv = json.dumps({"payload": [[1, 1], [1, 0]], "level": 1, "flavor": "k0"})
        code, out, _ = run_cli(capsys, "--format", "json", "mul", path, gen, inv)
        assert code == 0
        report = json.loads(out)
        assert report["equals_identity"] is True

    def test_mul_degree_one_vanishes(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        y = json.dumps({"payload": [[1, 2], [3, 4]], "level": 0, "flavor": "k1"})
        code, out, _ = run_cli(capsys, "--format", "json", "mul", path, y, y)
        report = json.loads(out)
        assert report["equals_zero"] is True
        assert report["result"]["flavor"] == "k0"

    def test_act(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        v = json.dumps({"payload": [1, 0], "level": 0, "flavor": "s"})
        h = json.dumps({"payload": [[1, 1], [1, 0]], "level": 1, "flavor": "k0"})
        code, out, _ = run_cli(capsys, "--format", "json", "act", path, v, h)
        report = json.loads(out)
        assert report["result"] == {"payload": [1, 1], "level": 2, "flavor": "s"}

    def test_trace_identity(self, capsys, matrix_file):
        path = matrix_file([[2]])
        ident = json.dumps({"payload": [[1]], "level": 0, "flavor": "k0"})
        code, out, _ = run_cli(capsys, "--format", "json", "trace", path, ident)
        report = json.loads(out)
        assert report["trace"] == pytest.approx(1.0)

    def test_equal_stable(self, capsys, matrix_file):
        path = matrix_file([[2]])
        e1 = json.dumps({"payload": [1], "level": 1, "flavor": "s"})
        e2 = json.dumps({"payload": [2], "level": 2, "flavor": "s"})
        code, out, _ = run_cli(capsys, "--format", "json", "equal", path, e1, e2)
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_positive_boundary_is_exact(self, capsys, matrix_file):
        # (1, -1, 0) pairs to zero against the right eigenvector (1, 1, 1)
        path = matrix_file([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        v = json.dumps({"payload": [1, -1, 0], "level": 0, "flavor": "s"})
        code, out, _ = run_cli(capsys, "--format", "json", "positive", path, v)
        assert code == 0
        report = json.loads(out)
        assert report["positivity"] == "negative_or_mixed"
        assert "searched_to" not in report

    def test_positive_takes_payloads_beyond_float_range(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        for payload, want in (([10**400, -1], "positive"), ([-(10**400), 1], "negative_or_mixed")):
            v = json.dumps({"payload": payload, "level": 3, "flavor": "s"})
            code, out, _ = run_cli(capsys, "--format", "json", "positive", path, v)
            assert code == 0
            assert json.loads(out)["positivity"] == want

    def test_ra_reduce_and_member(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        code, out, _ = run_cli(
            capsys, "--format", "json", "ra", "reduce", path, "[0,0,1]", "0"
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["payload"] == [1, 1]
        member_elem = json.dumps({"payload": [[1, 1], [1, 0]], "level": 2, "flavor": "k0"})
        code, out, _ = run_cli(capsys, "--format", "json", "ra", "member", path, member_elem)
        assert json.loads(out)["member"] is True

    def test_ra_member_builds_no_commutator_form(self, capsys, matrix_file, monkeypatch):
        # the closure runs in the centre sat(Z[A]), read off the powers of A,
        # so a non-derogatory K = 12 matrix never builds the K^2-wide system
        rows = LARGE["seeded12"]
        m = validate(rows).matrix
        assert exactlinalg.minimal_polynomial(m).k == 12
        builds = []
        system = cylinder_ring.commutator_system

        def counted(a):
            builds.append(a.rows)
            return system(a)

        monkeypatch.setattr(cylinder_ring, "commutator_system", counted)
        member = exactlinalg.poly_eval_matrix([2, -1, 0, 1, 3], m).to_rows()
        elem = json.dumps({"payload": member, "level": 1, "flavor": "k0"})
        code, out, _ = run_cli(capsys, "--format", "json", "ra", "member", matrix_file(rows), elem)
        assert (code, json.loads(out)["member"], builds) == (0, True, [])

    def test_ra_non_member(self, capsys, matrix_file):
        path = matrix_file([[1, 2], [2, 1]])
        elem = json.dumps({"payload": [[0, 1], [1, 0]], "level": 0, "flavor": "k0"})
        code, out, _ = run_cli(capsys, "--format", "json", "ra", "member", path, elem)
        assert code == 0
        assert json.loads(out)["member"] is False

    def test_duality_round_trip(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        w = json.dumps({"payload": [2, 1], "level": 3, "flavor": "u"})
        code, out, _ = run_cli(capsys, "--format", "json", "duality", "from-unstable", path, w)
        assert code == 0
        hom = json.loads(out)["result"]
        code, out, _ = run_cli(
            capsys, "--format", "json", "duality", "to-unstable", path, json.dumps(hom)
        )
        back = json.loads(out)["result"]
        a = validate([[1, 1], [1, 0]])
        from sftdim import equal_u

        assert equal_u(
            element_from_dict(a, back),
            element_from_dict(a, {"payload": [2, 1], "level": 3, "flavor": "u"}),
        )

    def test_duality_eval(self, capsys, matrix_file):
        path = matrix_file([[2]])
        hom = json.dumps({"z": [3], "level": 1})
        v = json.dumps({"payload": [5], "level": 2, "flavor": "s"})
        code, out, _ = run_cli(capsys, "--format", "json", "duality", "eval", path, hom, v)
        report = json.loads(out)
        assert report["result"] == {"payload": [60], "level": 3, "flavor": "ra"}


class TestHugeIntegers:
    """Exact integers past Python's default 4300-digit str limit are read and
    printed in full, in one piece, and the limit is restored afterwards."""

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_deep_duality_eval_prints_in_full(self, capsys, matrix_file, fmt):
        path = matrix_file([[1, 1], [1, 0]])
        hom, x = {"z": [1, 0], "level": 0}, {"payload": [1, 0], "level": 30000, "flavor": "s"}
        a = validate([[1, 1], [1, 0]])
        want = element_to_dict(hom_eval(hom_from_dict(a, hom), element_from_dict(a, x)))
        limit = _digit_limit()
        code, out, err = run_cli(capsys, "--format", fmt, "duality", "eval", path, json.dumps(hom), json.dumps(x))
        assert (code, err) == (0, "") and _digit_limit() == limit
        with _all_digits():
            if fmt == "json":
                got = json.loads(out)["result"]
            else:
                line = next(t for t in out.splitlines() if t.startswith("result: "))
                got = json.loads(line[len("result: "):])
            assert got == want and len(str(want["payload"][0])) > 4300

    def test_a_5001_digit_payload_is_read_in_full(self, capsys, matrix_file, tmp_path):
        path = matrix_file([[1, 1], [1, 0]])
        big = tmp_path / "big.json"
        with _all_digits():
            big.write_text(json.dumps({"payload": [10**5000, -1], "level": 0, "flavor": "s"}))
        code, out, err = run_cli(capsys, "--format", "json", "positive", path, f"@{big}")
        assert (code, err, json.loads(out)["positivity"]) == (0, "", "positive")

    def test_the_deep_eval_result_reads_back_through_a_file(self, capsys, matrix_file, tmp_path):
        # the level-30000 class that duality eval prints, against the same
        # class written one level up: [x^2 p, N + 1]
        path = matrix_file([[1, 1], [1, 0]])
        hom, x = {"z": [1, 0], "level": 0}, {"payload": [1, 0], "level": 30000, "flavor": "s"}
        _, out, _ = run_cli(capsys, "--format", "json", "duality", "eval", path, json.dumps(hom), json.dumps(x))
        with _all_digits():
            result = json.loads(out)["result"]
            up = ra_reduce(validate([[1, 1], [1, 0]]), (0, 0, *result["payload"]), result["level"] + 1)
            (tmp_path / "result.json").write_text(json.dumps(result))
            (tmp_path / "up.json").write_text(json.dumps(element_to_dict(up)))
        limit = _digit_limit()
        code, out, err = run_cli(
            capsys, "--format", "json", "equal", path, f"@{tmp_path / 'result.json'}", f"@{tmp_path / 'up.json'}")
        assert (code, err, json.loads(out)["equal"]) == (0, "", True) and _digit_limit() == limit

    def test_main_lifts_the_limit_until_it_returns(self, capsys, matrix_file, monkeypatch):
        # loading, the handler's reads and emitting all run without the limit,
        # and a refused input restores it as a success does
        path = matrix_file([[1, 1], [1, 0]])
        limit, seen = _digit_limit(), []
        for name in ("_read", "_load_json_arg", "_emit"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, real=real: (seen.append(_digit_limit()), real(*args))[1])
        code, _, _ = run_cli(capsys, "positive", path, json.dumps({"payload": [1, 0], "level": 0, "flavor": "s"}))
        assert code == 0 and seen == [None if limit is None else 0] * 3 and _digit_limit() == limit
        code, _, err = run_cli(capsys, "positive", path, json.dumps({"payload": [1], "level": 0, "flavor": "s"}))
        assert code == 2 and err.startswith("error: ") and _digit_limit() == limit


class TestInputBounds:
    """Every input is checked against two bounds before it is parsed: no
    integer longer than cli._MAX_DIGITS digits and no input longer than
    cli._MAX_INPUT_CHARS characters; past either, exit 2 with the bound named."""

    def test_a_million_digit_payload_is_refused_at_once(self, capsys, matrix_file, tmp_path):
        path = matrix_file([[1, 1], [1, 0]])
        big = tmp_path / "big.json"
        big.write_text('{"payload": [' + "9" * 10**6 + ', -1], "level": 0, "flavor": "s"}')
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "--format", "json", "positive", path, f"@{big}")
        assert time.perf_counter() - start < 0.25
        assert (code, out, err) == (2, "", "error: inputs are limited to 1000000 characters\n")

    def test_an_integer_past_the_digit_bound_is_refused(self, capsys, matrix_file, tmp_path):
        long = "1" * (cli._MAX_DIGITS + 1)
        fib = matrix_file([[1, 1], [1, 0]])
        refused = [
            ("info", str(tmp_path / "long.txt")),
            ("positive", fib, '{"payload": [' + long + ', 0], "level": 0, "flavor": "s"}'),
            ("duality", "eval", fib, '{"z": [1, 0], "level": ' + long + "}", "@" + str(tmp_path / "x.json")),
        ]
        (tmp_path / "long.txt").write_text(f"1 {long}\n1 0\n")
        (tmp_path / "x.json").write_text('{"payload": [1, 0], "level": 0, "flavor": "s"}')
        for argv in refused:
            code, out, err = run_cli(capsys, "--format", "json", *argv)
            assert (code, out, err) == (2, "", "error: integers are limited to 100000 digits\n"), argv[0]
        with pytest.raises(SystemExit) as exc:
            main(["ra", "reduce", fib, "[1, 1]", long])
        assert exc.value.code == 2 and "integers are limited to 100000 digits" in capsys.readouterr().err

    def test_the_bounds_themselves(self):
        assert (cli._MAX_DIGITS, cli._MAX_INPUT_CHARS) == (100_000, 1_000_000)
        at_bound = "[" + "1" * cli._MAX_DIGITS + ", " + "2" * cli._MAX_DIGITS + "]"
        assert cli._bounded(at_bound) is at_bound
        assert cli._bounded(" " * cli._MAX_INPUT_CHARS)
        with pytest.raises(ValueError, match="integers are limited to 100000 digits"):
            cli._bounded("[1, -" + "1" * (cli._MAX_DIGITS + 1) + "]")
        with pytest.raises(ValueError, match="inputs are limited to 1000000 characters"):
            cli._bounded(" " * (cli._MAX_INPUT_CHARS + 1))


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@contextlib.contextmanager
def _all_digits():
    """No limit on the digits of int <-> str conversions (Python 3.11 on) inside."""
    limit = _digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


class TestStrictParsing:
    """Every value that must be an integer is refused with exit 2 when it is a
    float or a JSON boolean, instead of being truncated or read as 0/1."""

    def _assert_refused(self, code, out, err):
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_float_payload_is_refused(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        v = json.dumps({"payload": [1.5, 0], "level": 0, "flavor": "s"})
        w = json.dumps({"payload": [1, 0], "level": 0, "flavor": "s"})
        self._assert_refused(*run_cli(capsys, "--format", "json", "equal", path, v, w))

    def test_boolean_level_is_refused(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        v = json.dumps({"payload": [1, 0], "level": True, "flavor": "s"})
        w = json.dumps({"payload": [1, 0], "level": 1, "flavor": "s"})
        self._assert_refused(*run_cli(capsys, "--format", "json", "equal", path, v, w))

    def test_boolean_matrix_entry_is_refused(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, True]])
        self._assert_refused(*run_cli(capsys, "--format", "json", "info", path))

    def test_ra_reduce_refuses_non_integer_coefficients(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        for coeffs in ("[1.5, 2]", "[true, 1]", '["2", 1]', "5"):
            self._assert_refused(*run_cli(capsys, "--format", "json", "ra", "reduce", path, coeffs, "0"))
        assert run_cli(capsys, "--format", "json", "ra", "reduce", path, "[1, 2]", "0")[0] == 0

    def test_deeply_nested_json_is_refused(self, capsys, matrix_file, tmp_path):
        # the JSON decoder gives up with a RecursionError, a RuntimeError like
        # the iteration caps that exit 4; too deep an input is invalid input
        deep = "[" * 50_000 + "]" * 50_000
        path = tmp_path / "deep.json"
        path.write_text(deep)
        self._assert_refused(*run_cli(capsys, "--format", "json", "info", str(path)))
        fib = matrix_file([[1, 1], [1, 0]])
        v = json.dumps({"payload": [1, 0], "level": 0, "flavor": "s"})
        self._assert_refused(*run_cli(capsys, "--format", "json", "equal", fib, deep, v))
        self._assert_refused(*run_cli(capsys, "--format", "json", "equal", fib, v, f"@{path}"))

    def test_text_matrix_takes_only_ascii_decimal_tokens(self, capsys, tmp_path):
        path = tmp_path / "matrix.txt"
        for token in ("1_0", "\u0661", "0x1", "1.0", "\uff11"):
            path.write_text(f"{token} 1\n1 1\n", encoding="utf-8")
            self._assert_refused(*run_cli(capsys, "--format", "json", "info", str(path)))
        a, _ = parse_matrix_text("+1 01\n1 -0\n")
        assert a.matrix.to_rows() == [[1, 1], [1, 0]]

    def test_negative_jmax_and_bad_tol_are_refused(self, capsys, matrix_file):
        # the flags were ignored since positivity became exact, and are gone:
        # any value of either is a usage error
        path = matrix_file([[1, 1], [1, 0]])
        v = json.dumps({"payload": [1, -1], "level": 0, "flavor": "s"})
        for flags in (["--jmax", "-3"], ["--jmax", "0"], ["--jmax", "64"], ["--tol", "1e-9"], ["--tol", "nan"]):
            for argv in ([*flags, "positive", path, v], ["positive", path, v, *flags]):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("usage: ") and "Traceback" not in err
        assert run_cli(capsys, "positive", path, v)[0] == 0

    def test_integer_arguments_take_only_ascii_decimals(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        refused = [
            ["ra", "reduce", path, "[1, 1]", "١"],
            ["ra", "reduce", path, "[1, 1]", "1_0"],
            ["se-search", path, path, "--kmax", "１"],
            ["se-search", path, path, "--entry-bound", "1_0"],
            ["se-search", path, path, "--kmax", "1_0"],
            ["se-search", path, path, "--kmax", "-3"],
            ["se-search", path, path, "--entry-bound", "-2"],
            ["se-search", path, path, "--entry-bound", "0x1"],
        ]
        for argv in refused:
            with pytest.raises(SystemExit) as exc:
                main(["--format", "json", *argv])
            assert exc.value.code == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("usage: ") and "Traceback" not in err
        code, out, _ = run_cli(capsys, "--format", "json", "ra", "reduce", path, "[1, 1]", "+01")
        assert code == 0 and json.loads(out)["result"]["level"] == 1
        code, out, _ = run_cli(
            capsys, "--format", "json", "se-search", path, path, "--kmax", "0", "--entry-bound", "0")
        assert code == 3 and json.loads(out)["bounds"] == {"k_max": 0, "entry_bound": 0}

    def test_every_parser_refuses_non_integers(self, fib):
        for bad in (True, 2.0, "2", None):
            with pytest.raises(TypeError):
                element_from_dict(fib, {"payload": [[1, bad], [0, 1]], "level": 0, "flavor": "k1"})
            with pytest.raises(TypeError):
                element_from_dict(fib, {"payload": [1, bad], "level": 0, "flavor": "ra"})
            with pytest.raises(TypeError):
                hom_from_dict(fib, {"z": [1, 0], "level": bad})
            with pytest.raises(TypeError):
                witness_from_dict({"R": [[1, 0], [0, 1]], "S": [[1, 1], [1, bad]], "k": 1})
            with pytest.raises(TypeError):
                witness_from_dict({"R": [[1, 0], [0, 1]], "S": [[1, 1], [1, 0]], "k": bad})
            with pytest.raises(TypeError):
                parse_matrix_text(json.dumps({"matrix": [[1, 1], [1, bad]]}))


class TestPayloadShapes:
    """A payload that is not a JSON list (of rows, under h, k0 and k1) is
    refused with exit 2 and a message that says what was expected."""

    def test_flat_and_string_payloads(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        k0 = json.dumps({"payload": [[1, 0], [0, 1]], "level": 0, "flavor": "k0"})
        refused = [
            (["act", path, json.dumps({"payload": [1, 0], "level": 0, "flavor": "h"}), k0],
             "list of integers expected, got 1"),
            (["mul", path, k0, json.dumps({"payload": [1, 0], "level": 0, "flavor": "k1"})],
             "list of integers expected, got 1"),
            (["trace", path, json.dumps({"payload": "10", "level": 0, "flavor": "s"})],
             "list of integers expected, got '10'"),
            (["equal", path, *[json.dumps({"payload": "10", "level": 0, "flavor": "h"})] * 2],
             "list of rows expected, got '10'"),
        ]
        for argv, message in refused:
            assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n"), argv[0]

    def test_a_refused_value_is_not_echoed_whole(self, capsys, matrix_file, tmp_path):
        path = matrix_file([[1, 1], [1, 0]])
        long = "x" * 900000
        inputs = [
            {"payload": long, "level": 0, "flavor": "s"},
            {"payload": [[1, 0], long], "level": 0, "flavor": "h"},
            {"payload": [1, 0], "level": long, "flavor": "s"},
            {"payload": [1, 0], "level": 0, "flavor": long},
        ]
        for i, elem in enumerate(inputs):
            arg = tmp_path / f"refused{i}.json"
            arg.write_text(json.dumps(elem))
            code, out, err = run_cli(capsys, "--format", "json", "positive", path, f"@{arg}")
            assert (code, out) == (2, "") and err.startswith("error: ") and err.endswith("xxx...\n")
            assert len(err.encode()) < 200
        code, _, err = run_cli(capsys, "info", matrix_file([[1, 1], [1, "x" * 900000]]))
        assert code == 2 and len(err.encode()) < 200


class TestObjectKeys:
    """An element, homomorphism, witness or matrix object is read with exactly
    its keys: a value that is not a JSON object, a missing key and an unknown
    key are each refused with exit 2 and a message that names them."""

    ELEMENT = {"payload": [1, 2], "level": 0, "flavor": "s"}

    def test_element_shapes(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        refused = [
            ([1, 2], "element must be a JSON object, got [1, 2]"),
            (5, "element must be a JSON object, got 5"),
            ({"payload": [1, 2], "level": 0}, "element: missing key 'flavor'"),
            ({**self.ELEMENT, "extra": 1}, "element: unknown key 'extra'"),
            ({"payload": [1, 2], "flavor": "s", "lvl": 0},
             "element: missing key 'level', unknown key 'lvl'"),
        ]
        for value, message in refused:
            assert run_cli(capsys, "trace", path, json.dumps(value)) == (2, "", f"error: {message}\n")
        assert run_cli(capsys, "trace", path, json.dumps(self.ELEMENT))[0] == 0

    def test_homomorphism_and_witness_shapes(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        hom = {"z": [1, 0], "level": 0}
        witness = {"R": [[1, 0], [0, 1]], "S": [[1, 1], [1, 0]], "k": 1}
        refused = [
            (["duality", "to-unstable", path, "[1, 0]"], "homomorphism must be a JSON object, got [1, 0]"),
            (["duality", "to-unstable", path, json.dumps({"z": [1, 0]})], "homomorphism: missing key 'level'"),
            (["duality", "eval", path, json.dumps({**hom, "flavor": "s"}), json.dumps(self.ELEMENT)],
             "homomorphism: unknown key 'flavor'"),
            (["se-verify", path, path, json.dumps([witness])], "witness must be a JSON object, got [{"),
            (["se-verify", path, path, json.dumps({"R": witness["R"], "S": witness["S"]})],
             "witness: missing key 'k'"),
            (["se-verify", path, path, json.dumps({**witness, "r": 1})], "witness: unknown key 'r'"),
        ]
        for argv, message in refused:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "") and err.startswith(f"error: {message}"), argv
        assert run_cli(capsys, "duality", "to-unstable", path, json.dumps(hom))[0] == 0
        assert run_cli(capsys, "se-verify", path, path, json.dumps(witness))[0] == 0

    def test_matrix_object_shapes(self, capsys, tmp_path):
        rows = [[1, 1], [1, 0]]
        refused = [
            ({"rows": rows}, "matrix object: missing key 'matrix', unknown key 'rows'"),
            ({"matrix": rows, "lable": "fib"}, "matrix object: unknown key 'lable'"),
            ({"matrix": rows, "label": 3}, "label must be a string, got 3"),
            ({"matrix": rows, "label": None}, "label must be a string, got None"),
        ]
        path = tmp_path / "matrix.json"
        for value, message in refused:
            path.write_text(json.dumps(value))
            assert run_cli(capsys, "info", str(path)) == (2, "", f"error: {message}\n")
        for value, label in (({"matrix": rows}, None), ({"matrix": rows, "label": "fib"}, "fib")):
            path.write_text(json.dumps(value))
            code, out, _ = run_cli(capsys, "--format", "json", "info", str(path))
            assert code == 0 and json.loads(out).get("label") == label

    def test_a_long_unknown_key_is_cut_short(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        code, out, err = run_cli(capsys, "trace", path, json.dumps({**self.ELEMENT, "x" * 900000: 1}))
        assert (code, out) == (2, "") and err.endswith("xxx...\n") and len(err.encode()) < 200


class TestTraceOverflow:
    """trace scales by lambda^-N, so deep levels underflow to 0.0 instead of
    overflowing, and an input too large for a float exits 2."""

    def test_deep_stable_level_underflows(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        x = json.dumps({"payload": [1, 0], "level": 2000, "flavor": "s"})
        code, out, err = run_cli(capsys, "--format", "json", "trace", path, x)
        assert code == 0 and err == ""
        assert json.loads(out)["trace"] == 0.0

    def test_deep_cylinder_level_underflows(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        x = json.dumps({"payload": [[1, 0], [0, 1]], "level": 800, "flavor": "k0"})
        code, out, err = run_cli(capsys, "--format", "json", "trace", path, x)
        assert code == 0 and err == ""
        assert json.loads(out)["trace"] == 0.0

    def test_huge_payload_exits_2(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        x = json.dumps({"payload": [10**320, 0], "level": 0, "flavor": "s"})
        code, out, err = run_cli(capsys, "--format", "json", "trace", path, x)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestShiftEquivalenceCommands:
    def test_verify_valid(self, capsys, matrix_file, tmp_path):
        path = matrix_file([[1, 1], [1, 0]])
        witness = json.dumps({"R": [[1, 0], [0, 1]], "S": [[1, 1], [1, 0]], "k": 1})
        code, out, _ = run_cli(capsys, "--format", "json", "se-verify", path, path, witness)
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_verify_invalid_exit_code(self, capsys, matrix_file):
        path = matrix_file([[1, 1], [1, 0]])
        witness = json.dumps({"R": [[1, 0], [0, 1]], "S": [[1, 0], [0, 1]], "k": 1})
        code, out, _ = run_cli(capsys, "--format", "json", "se-verify", path, path, witness)
        assert code == 4
        assert json.loads(out)["valid"] is False

    def test_witness_from_file(self, capsys, matrix_file, tmp_path):
        path = matrix_file([[1, 1], [1, 0]])
        wpath = tmp_path / "witness.json"
        wpath.write_text(json.dumps({"R": [[1, 0], [0, 1]], "S": [[1, 1], [1, 0]], "k": 1}))
        code, out, _ = run_cli(
            capsys, "--format", "json", "se-verify", path, path, f"@{wpath}"
        )
        assert code == 0

    def test_search_obstruction(self, capsys, matrix_file):
        p2 = matrix_file([[2]], name="two.json")
        p3 = matrix_file([[3]], name="three.json")
        code, out, _ = run_cli(capsys, "--format", "json", "se-search", p2, p3)
        assert code == 0
        report = json.loads(out)
        assert report["found"] is False
        assert report["obstructions"]

    def test_search_bowen_franks_obstruction(self, capsys, matrix_file):
        # equal characteristic and minimal polynomials, Z/4 against Z/2 + Z/2
        a = matrix_file([[1, 4], [1, 1]], name="a.json")
        b = matrix_file([[1, 2], [2, 1]], name="b.json")
        code, out, _ = run_cli(capsys, "--format", "json", "se-search", a, b)
        assert code == 0
        report = json.loads(out)
        assert report["found"] is False
        assert report["obstructions"] == ["Bowen-Franks groups differ: Z/4 vs Z/2 + Z/2"]

    def test_search_finds(self, capsys, matrix_file):
        a = matrix_file([[1, 1], [1, 0]], name="a.json")
        b = matrix_file([[0, 1], [1, 1]], name="b.json")
        code, out, _ = run_cli(capsys, "--format", "json", "se-search", a, b)
        assert code == 0
        report = json.loads(out)
        assert report["found"] is True


_JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["matrix", "label", "payload", "level", "flavor"]), inner, max_size=3),
    max_leaves=12,
)
_SMALL_INT = st.integers(-2, 3)
_ENTRY = st.integers(0, 3)
_MATRIX_TEXT = st.one_of(
    st.text(st.sampled_from(list("0123456789 \n\t-+_.x[]{},\"") + ["\u0661", "\uff11", "\u00a0"]), max_size=40),
    _JSON_JUNK.map(json.dumps),
    st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(_ENTRY, min_size=k, max_size=k), min_size=k, max_size=k)
    ).map(json.dumps),
    st.lists(st.lists(_ENTRY, min_size=1, max_size=4), min_size=1, max_size=4).map(
        lambda rows: "\n".join(" ".join(map(str, row)) for row in rows)),
)
_PAYLOAD = st.one_of(
    st.lists(_SMALL_INT, max_size=3),
    st.lists(st.lists(_SMALL_INT, max_size=3), max_size=3),
    _JSON_JUNK,
)
_FIB_PAYLOAD = {
    flavor: st.lists(_SMALL_INT, min_size=2, max_size=2) for flavor in ("s", "u", "ra")
} | {
    flavor: st.lists(st.lists(_SMALL_INT, min_size=2, max_size=2), min_size=2, max_size=2)
    for flavor in ("h", "k0", "k1")
}
_ELEMENT = st.one_of(
    st.sampled_from(sorted(_FIB_PAYLOAD)).flatmap(
        lambda flavor: st.fixed_dictionaries(
            {"flavor": st.just(flavor), "payload": _FIB_PAYLOAD[flavor], "level": st.integers(0, 50)})
    ).map(json.dumps),
    st.fixed_dictionaries(
        {},
        optional={
            "flavor": st.sampled_from(["s", "u", "h", "k0", "k1", "ra", "x"]) | _JSON_JUNK,
            "payload": _PAYLOAD,
            "level": st.integers(-3, 200) | _JSON_JUNK,
        },
    ).map(json.dumps),
    _JSON_JUNK.map(json.dumps),
    st.text(max_size=12),
)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


class TestFuzz:
    """Arbitrary matrix text and element JSON reach parse_matrix_text and
    element_from_dict through the CLI; every outcome is a documented exit
    code, never a traceback."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_MATRIX_TEXT)
    def test_matrix_text(self, capsys, tmp_path, text):
        path = tmp_path / "matrix.txt"
        path.write_text(text, encoding="utf-8")
        code = _exit_code(["--format", "json", "info", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4) and "Traceback" not in err

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["equal", "trace", "act"]), left=_ELEMENT, right=_ELEMENT)
    def test_elements(self, capsys, tmp_path, command, left, right):
        path = tmp_path / "fib.json"
        path.write_text("[[1, 1], [1, 0]]")
        argv = ["--format", "json", command, str(path), left] + ([right] if command != "trace" else [])
        code = _exit_code(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4) and "Traceback" not in err


class TestEntryPoint:
    def test_two_calls_build_the_parser_once(self, capsys, matrix_file, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        path = matrix_file([[2]])
        assert run_cli(capsys, "info", path)[0] == 0
        # the sftdim parser and one sub-parser per row of the subcommand table
        assert len(built) == 1 + len(cli.COMMANDS)
        assert run_cli(capsys, "--format", "json", "kgroups", path)[0] == 0
        assert len(built) == 1 + len(cli.COMMANDS)

    def test_console_script(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n")
        proc = subprocess.run(
            [sys.executable, "-m", "sftdim.cli", "--format", "json", "info", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["primitive"] is True

    def test_cli_import_leaves_numpy_out(self):
        # start-up stays on plain ints: no numpy and no Fraction/Decimal helpers,
        # and records are exactlinalg.frozen, so no dataclasses (nor the inspect
        # it pulls in)
        code = (
            "import sys, sftdim.cli; print([m for m in "
            "('numpy', 'fractions', 'decimal', 'dataclasses', 'inspect') if m in sys.modules])"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "[]"
