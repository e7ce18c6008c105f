"""Write tests/data/cli_digests.json: the CLI's output digests over a fixed corpus.

Each case is one ``sftdim`` invocation, run in process through
:func:`sftdim.cli.main`; the file keeps its argv, its exit code and the
sha256 of its stdout and of its stderr.  The matrix files the argv names are
stored beside the cases, so the corpus needs nothing else.
``tests/test_cli_digests.py`` replays it.

The corpus covers every subcommand and flavour at levels 0-3 over the
conftest matrices, scaled all-ones matrices ``cJ + dI``, ``J_4``, a period-2
matrix, chord cycles at K = 12, 16 and 20 and a seeded random K = 12 matrix,
plus inputs the CLI refuses (exit 2), ``@file`` arguments, positivity that
needs the Perron root to more than 64 bits, integers past Python's default
4300-digit limit, printed and read back, failing witnesses (exit 4), and
element, homomorphism, witness and matrix objects that are not JSON objects
or have a missing or unknown key (exit 2).
``kgroups`` and ``ra member`` (on ``p(A)`` at two levels) run on nothing
larger than K = 12, so a replay stays within a few seconds.

Run it only when a change alters the output on purpose, and list every
changed invocation with the change:

    PYTHONPATH=src python tests/make_cli_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent / "data" / "cli_digests.json"
LEVELS = range(4)


def run(argv):
    """(exit code, stdout, stderr) of ``sftdim argv`` run in process."""
    from sftdim.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _ones_plus_identity(k, c, d):
    return [[c + d * (i == j) for j in range(k)] for i in range(k)]


def _chord_cycle(k):
    rows = [[int(j == (i + 1) % k) for j in range(k)] for i in range(k)]
    rows[0][2] = 1
    return rows


def _seeded_primitive(k, density=0.35):
    from sftdim import is_primitive, validate

    rng = random.Random(1000 + k)
    while True:
        rows = [[int(rng.random() < density) for _ in range(k)] for _ in range(k)]
        try:
            if is_primitive(validate(rows)):
                return rows
        except ValueError:
            continue


SMALL = {
    "two": [[2]],
    "fib": [[1, 1], [1, 0]],
    "sym3": [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
    "abelian2": [[1, 2], [2, 1]],
    "sparse3": [[0, 1, 5], [1, 0, 1], [1, 1, 0]],
    "doubled": [[4, 2], [2, 4]],
    "j2": [[1, 1], [1, 1]],
    "cj3": _ones_plus_identity(3, 2, 1),
    "cj4": _ones_plus_identity(4, 3, 2),
    "j4": _ones_plus_identity(4, 1, 0),
    "repeated": [[1, 1, 1], [1, 1, 1], [0, 1, 1]],
    "bipartite": [[0, 0, 1, 1], [0, 0, 1, 2], [1, 2, 0, 0], [1, 1, 0, 0]],
}
LARGE = {
    "chord12": _chord_cycle(12),
    "chord16": _chord_cycle(16),
    "chord20": _chord_cycle(20),
    "seeded12": _seeded_primitive(12),
}
KGROUPS_LARGE = ("chord12", "seeded12")


def _elem(payload, level, flavor):
    return json.dumps({"payload": payload, "level": level, "flavor": flavor})


def _small_cases(name, rows):
    """Every element subcommand and flavour on one small matrix, levels 0-3."""
    from sftdim import IntMatrix, centralizer_basis, is_primitive, minimal_polynomial, ra_reduce, validate
    from sftdim.exactlinalg import matrix_power, poly_eval_matrix

    a = validate(rows)
    k, m = a.size, a.matrix
    mp = minimal_polynomial(m)
    cent = centralizer_basis(a).basis
    rng = random.Random(name)
    path = f"{name}.json"

    def vec(bound=3):
        return [rng.randint(-bound, bound) for _ in range(k)]

    def mat(bound=2):
        return [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(k)]

    def central(bound=2):
        acc = IntMatrix.zeros(k, k)
        for b in cent:
            acc = acc + b.scale(rng.randint(-bound, bound))
        return acc.to_rows()

    def poly(n):
        return [rng.randint(-2, 2) for _ in range(n)]

    cases = [
        ["--format", fmt, command, path]
        for fmt in ("json", "text")
        for command in ("info", "kgroups", "decompose")
    ]
    cases.append(["--format", "text", "ra", "reduce", path, json.dumps(poly(mp.k)), "2"])
    for level in LEVELS:
        v, w = vec(), vec()
        x, y = mat(), mat()
        c0, c1 = central(), central()
        ra = poly(mp.k)
        up = level + 1
        pushed = {
            # the same class written one level up, and an unrelated one
            "s": (v, m.row_apply(v), vec()),
            "u": (w, m.col_apply(w), vec()),
            "h": (x, (m @ IntMatrix.from_rows(x) @ m).to_rows(), mat()),
            "k0": (c0, (m @ IntMatrix.from_rows(c0) @ m).to_rows(), c1),
            "k1": (y, (m @ IntMatrix.from_rows(y) @ m).to_rows(), mat()),
        }
        for flavor, (p, p_up, other) in pushed.items():
            base = _elem(p, level, flavor)
            cases.append(["--format", "json", "equal", path, base, _elem(p_up, up, flavor)])
            cases.append(["--format", "json", "equal", path, base, _elem(other, level, flavor)])
        # ra: [p, N] against [x^2 p, N + 1] (the same class), [p, N + 1] and a random one
        ra_up = [0, 0, *ra]
        cases.append(["--format", "json", "ra", "reduce", path, json.dumps(ra_up), str(up)])
        ra_elem = _elem(ra, level, "ra")
        for other in (list(ra_reduce(a, ra_up, up).coeffs), ra):
            cases.append(["--format", "json", "equal", path, ra_elem, _elem(other, up, "ra")])
        cases.append(["--format", "json", "equal", path, ra_elem, _elem(poly(mp.k), level, "ra")])
        cases.append(["--format", "json", "ra", "reduce", path, json.dumps(poly(k + 2)), str(level)])
        # membership: a polynomial in A and two centraliser elements
        members = [poly_eval_matrix(poly(k), m).to_rows(), c0, cent[-1].to_rows()]
        for payload in members:
            cases.append(["--format", "json", "ra", "member", path, _elem(payload, level, "k0")])
        for left, right in (("k0", "k0"), ("k0", "k1"), ("k1", "k0"), ("k1", "k1")):
            lp = c0 if left == "k0" else y
            rp = c1 if right == "k0" else x
            cases.append(
                ["--format", "json", "mul", path, _elem(lp, level, left), _elem(rp, 3 - level, right)]
            )
        for flavor, payload in (("s", v), ("u", w)):
            cases.append(
                ["--format", "json", "act", path, _elem(payload, level, flavor), _elem(c0, level % 2, "k0")]
            )
        if is_primitive(a):
            for flavor, payload in (("s", v), ("u", w), ("k0", c0)):
                cases.append(["--format", "json", "trace", path, _elem(payload, level, flavor)])
            cases.append(["--format", "json", "positive", path, _elem(v, level, "s")])
            cases.append(["--format", "json", "positive", path, _elem([1] * k, level, "s")])
        hom = json.dumps({"z": vec(), "level": level})
        hom_up = json.dumps({"z": matrix_power(m, 2).col_apply(json.loads(hom)["z"]), "level": up})
        cases.append(["--format", "json", "duality", "eval", path, hom, _elem(v, level, "s")])
        cases.append(["--format", "json", "duality", "equal", path, hom, hom_up])
        cases.append(["--format", "json", "duality", "to-unstable", path, hom])
        cases.append(["--format", "json", "duality", "from-unstable", path, _elem(w, level, "u")])
    # refused inputs: each exits 2 with a message
    bad_k0 = [[int(i == 0 and j == k - 1) for j in range(k)] for i in range(k)]
    refused = [
        ["equal", path, _elem([1] * (k + 1), 0, "s"), _elem([1] * (k + 1), 0, "s")],
        ["equal", path, _elem([1] * k, -1, "s"), _elem([1] * k, 0, "s")],
        ["equal", path, _elem([1] * k, 0, "s"), _elem([1] * k, 0, "u")],
        ["equal", path, _elem([1] * (mp.k + 1), 0, "ra"), _elem([1] * (mp.k + 1), 0, "ra")],
        ["ra", "reduce", path, "[1, 2]", "-1"],
        ["ra", "member", path, _elem([1] * k, 0, "s")],
        ["trace", path, _elem(mat(), 0, "h")],
        ["positive", path, _elem([1] * k, 0, "u")],
        ["act", path, _elem([1] * k, 0, "s"), _elem(mat(), 0, "k1")],
        ["mul", path, _elem([1] * k, 0, "s"), _elem(mat(), 0, "k1")],
        ["duality", "eval", path, json.dumps({"z": [1] * (k + 1), "level": 0}), _elem([1] * k, 0, "s")],
    ]
    if k > 1:
        refused.append(["equal", path, _elem(bad_k0, 0, "k0"), _elem(bad_k0, 0, "k0")])
    # flat payloads under the matrix flavours, and string payloads
    refused += [
        ["act", path, _elem([1] * k, 0, "h"), _elem(bad_k0, 0, "k0")],
        ["equal", path, _elem([1] * k, 0, "h"), _elem([1] * k, 0, "h")],
        ["mul", path, _elem([1] * k, 0, "k0"), _elem(bad_k0, 0, "k1")],
        ["mul", path, _elem(bad_k0, 0, "k1"), _elem([1] * k, 0, "k1")],
        ["trace", path, _elem("1" * k, 0, "s")],
        ["equal", path, _elem("1" * k, 0, "h"), _elem("1" * k, 0, "h")],
    ]
    cases.extend(["--format", "json", *argv] for argv in refused)
    return cases


def _large_cases(name, rows):
    from sftdim import validate

    a = validate(rows)
    k, m = a.size, a.matrix
    rng = random.Random(name)
    path = f"{name}.json"
    cases = [["--format", "json", "info", path], ["--format", "json", "decompose", path]]
    if name in KGROUPS_LARGE:
        cases.append(["--format", "json", "kgroups", path])
    for level in LEVELS:
        v = [rng.randint(-3, 3) for _ in range(k)]
        w = [rng.randint(-3, 3) for _ in range(k)]
        cases.append(["--format", "json", "trace", path, _elem(v, level, "s")])
        cases.append(["--format", "json", "trace", path, _elem(w, level, "u")])
        cases.append(["--format", "json", "positive", path, _elem(v, level, "s")])
        cases.append(
            ["--format", "json", "equal", path, _elem(v, level, "s"), _elem(m.row_apply(v), level + 1, "s")]
        )
        cases.append(["--format", "json", "equal", path, _elem(v, level, "u"), _elem(w, level, "u")])
    if name in KGROUPS_LARGE:
        from sftdim.exactlinalg import poly_eval_matrix

        for level in (0, 2):
            member = poly_eval_matrix([rng.randint(-2, 2) for _ in range(k)], m).to_rows()
            cases.append(["--format", "json", "ra", "member", path, _elem(member, level, "k0")])
    return cases


def _other_cases():
    """Text matrix files, labels, shift equivalence, and refused matrices."""
    fib_witness = json.dumps({"R": [[1, 0], [0, 1]], "S": [[1, 1], [1, 0]], "k": 1})
    bad_witness = json.dumps({"R": [[1, 0], [0, 1]], "S": [[1, 0], [0, 1]], "k": 1})
    return [
        ["--format", "json", "info", "fib.txt"],
        ["--format", "text", "info", "labelled.json"],
        ["--format", "json", "kgroups", "labelled.json"],
        ["--format", "json", "se-verify", "fib.json", "fib.json", fib_witness],
        ["--format", "json", "se-verify", "fib.json", "fib.json", bad_witness],
        ["--format", "json", "se-search", "fib.json", "fib.json"],
        ["--format", "json", "se-search", "cross.json", "abelian2.json"],
        ["--format", "json", "se-search", "fib.json", "two.json", "--kmax", "1"],
        ["--format", "json", "se-search", "sym3.json", "cj3.json", "--kmax", "0", "--entry-bound", "0"],
        ["--format", "json", "se-search", "fib.json", "fib.json", "--kmax", "0", "--entry-bound", "0"],
        ["--format", "text", "se-search", "fib.json", "fib.json", "--kmax", "2", "--entry-bound", "1"],
        ["--format", "json", "kgroups", "reducible.json"],
        ["--format", "json", "info", "reducible.json"],
        ["--format", "json", "info", "negative.json"],
        ["--format", "json", "info", "ragged.json"],
        ["--format", "json", "ra", "reduce", "fib.json", "[1, 1]", "1_0"],
        ["--format", "json", "se-search", "fib.json", "fib.json", "--kmax", "-1"],
    ]


def _edge_cases():
    """Refused matrix files, reducible matrices, ``@file`` arguments, exact
    positivity on the zero class and on and near the boundary, a matrix whose
    Perron residual is large only in absolute terms, integers past Python's
    default digit limit, printed and read back, and a failing witness (exit 4)."""
    fib_class = _elem([1, 0], 30000, "s")
    hom = json.dumps({"z": [1, 0], "level": 0})
    cases = [
        ["--format", fmt, command, name]
        for name in REFUSED
        for fmt, command in (("json", "info"), ("text", "kgroups"))
    ]
    cases += [
        ["--format", fmt, command, name]
        for name in ("reducible.json", "reducible.txt", "cycles.json")
        for fmt in ("json", "text")
        for command in ("kgroups", "decompose")
    ]
    cases += [
        ["--format", "json", "equal", "fib.json", "@elem_s.json", "@elem_s_up.json"],
        ["--format", "json", "trace", "fib.json", "@elem_s.json"],
        ["--format", "json", "duality", "eval", "fib.json", "@hom.json", "@elem_s.json"],
        ["--format", "json", "se-verify", "fib.json", "fib.json", "@witness.json"],
        ["--format", "json", "trace", "fib.json", "@missing.json"],
        ["--format", "json", "positive", "fib.json", _elem([0, 0], 2, "s")],
        ["--format", "json", "positive", "sym3.json", _elem([1, -1, 0], 0, "s")],
        ["--format", "json", "positive", "sym3.json", _elem([0, 0, 0], 1, "s")],
    ]
    # (F_n, -F_(n+1)) pairs with the right Perron vector to -phi^-n for even n:
    # the sign needs lambda to 128 bits at n = 60 and to 512 at n = 200
    fib = [0, 1]
    while len(fib) < 202:
        fib.append(fib[-1] + fib[-2])
    for n in (60, 100, 150, 200):
        for sign in (1, -1):
            v = [sign * fib[n], -sign * fib[n + 1]]
            cases.append(["--format", "json", "positive", "fib.json", _elem(v, 3, "s")])
    cases += [
        ["--format", "json", "info", "huge.json"],
        ["--format", "text", "info", "huge.json"],
        ["--format", "json", "duality", "eval", "fib.json", hom, fib_class],
        ["--format", "text", "duality", "eval", "fib.json", hom, fib_class],
        ["--format", "text", "se-verify", "fib.json", "fib.json", "@bad_witness.json"],
        ["--format", "json", "positive", "fib.json", "@big.json"],
        ["--format", "json", "equal", "fib.json", "@deep_ra.json", "@deep_ra_up.json"],
    ]
    return cases


def _object_cases():
    """Objects read with exactly their keys: each refused shape exits 2."""
    elem = {"payload": [1, 2], "level": 0, "flavor": "s"}
    hom = {"z": [1, 0], "level": 0}
    witness = {"R": [[1, 0], [0, 1]], "S": [[1, 1], [1, 0]], "k": 1}
    refused = [
        ["trace", "fib.json", "[1, 2]"],
        ["trace", "fib.json", json.dumps({"payload": [1, 2], "level": 0})],
        ["trace", "fib.json", json.dumps({**elem, "extra": 1})],
        ["equal", "fib.json", json.dumps(elem), json.dumps({"payload": [1, 2], "flavor": "s", "lvl": 0})],
        ["duality", "to-unstable", "fib.json", "[1, 0]"],
        ["duality", "to-unstable", "fib.json", json.dumps({"z": [1, 0]})],
        ["duality", "eval", "fib.json", json.dumps({**hom, "flavor": "s"}), json.dumps(elem)],
        ["se-verify", "fib.json", "fib.json", json.dumps([witness])],
        ["se-verify", "fib.json", "fib.json", json.dumps({"R": witness["R"], "S": witness["S"]})],
        ["se-verify", "fib.json", "fib.json", json.dumps({**witness, "r": 1})],
        *(["info", name] for name in OBJECT_FILES),
    ]
    return [["--format", fmt, *argv] for argv in refused for fmt in ("json", "text")]


# matrix objects the CLI refuses: no "matrix" key, an unknown key, a label
# that is not a string
OBJECT_FILES = {
    "rows_key.json": json.dumps({"rows": [[1, 1], [1, 0]]}),
    "unknown_key.json": json.dumps({"matrix": [[1, 1], [1, 0]], "lable": "fib"}),
    "label_number.json": json.dumps({"matrix": [[1, 1], [1, 0]], "label": 3}),
    "label_null.json": json.dumps({"matrix": [[1, 1], [1, 0]], "label": None}),
}


def _deep_files() -> dict:
    """Arguments past Python's default 4300-digit limit: a 5001-digit stable
    payload, and the level-30000 ``duality eval`` result over fib.json beside
    the same class written one level up."""
    from sftdim import ra_reduce, validate
    from sftdim.duality import hom_eval
    from sftdim.serialization import element_from_dict, element_to_dict, hom_from_dict

    a = validate(SMALL["fib"])
    hom = hom_from_dict(a, {"z": [1, 0], "level": 0})
    deep = hom_eval(hom, element_from_dict(a, {"payload": [1, 0], "level": 30000, "flavor": "s"}))
    up = ra_reduce(a, (0, 0, *deep.coeffs), deep.level + 1)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return {
            "big.json": _elem([10**5000, -1], 0, "s"),
            "deep_ra.json": json.dumps(element_to_dict(deep)),
            "deep_ra_up.json": json.dumps(element_to_dict(up)),
        }
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


# matrix files the CLI refuses, beside negative.json and ragged.json: a zero
# row, a zero column, non-square, a negative entry, empty, ragged
REFUSED = {
    "zero_row.json": "[[1, 1], [0, 0]]",
    "zero_row.txt": "1 1\n0 0\n",
    "zero_column.json": "[[1, 0], [1, 0]]",
    "zero_column.txt": "1 0\n1 0\n",
    "wide.json": "[[1, 1, 1], [1, 1, 1]]",
    "wide.txt": "1 1 1\n1 1 1\n",
    "negative.txt": "1 -1\n1 0\n",
    "empty.json": "[]",
    "empty_rows.json": "[[]]",
    "blank.txt": " \n\n",
    "ragged.txt": "1 1\n1\n",
}


def matrix_files() -> dict:
    files = {f"{name}.json": json.dumps(rows) for name, rows in {**SMALL, **LARGE}.items()}
    files["fib.txt"] = "1 1\n1 0\n"
    files["labelled.json"] = json.dumps({"matrix": SMALL["sym3"], "label": "symmetric"})
    files["cross.json"] = json.dumps([[1, 4], [1, 1]])
    files["reducible.json"] = json.dumps([[1, 1], [0, 1]])
    files["negative.json"] = json.dumps([[1, -1], [1, 0]])
    files["ragged.json"] = json.dumps([[1, 1], [1]])
    files.update(REFUSED)
    files.update(OBJECT_FILES)
    files["reducible.txt"] = "1 1\n0 1\n"
    files["cycles.json"] = json.dumps([[0, 1, 0, 0], [1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]])
    files["huge.json"] = json.dumps([[10**12, 1, 0], [1, 10**12, 3], [2, 0, 10**12 - 1]])
    files["elem_s.json"] = _elem([1, -2], 1, "s")
    files["elem_s_up.json"] = _elem([-1, 1], 2, "s")
    files["hom.json"] = json.dumps({"z": [2, -1], "level": 1})
    files["witness.json"] = json.dumps({"R": [[1, 0], [0, 1]], "S": [[1, 1], [1, 0]], "k": 1})
    files["bad_witness.json"] = json.dumps({"R": [[1, 0], [0, 1]], "S": [[1, 0], [0, 1]], "k": 1})
    files.update(_deep_files())
    return files


def corpus() -> list:
    cases = []
    for name, rows in SMALL.items():
        cases.extend(_small_cases(name, rows))
    for name, rows in LARGE.items():
        cases.extend(_large_cases(name, rows))
    cases.extend(_other_cases())
    cases.extend(_edge_cases())
    cases.extend(_object_cases())
    return cases


def replay(files: dict, cases: list, workdir) -> list:
    """[argv, exit code, stdout sha256, stderr sha256] per case, run in ``workdir``.

    Every case calls ``main`` as a shell would, and ``main`` builds its parser
    once per process, so the cases after the first pay for no parser.
    """
    for name, text in files.items():
        Path(workdir, name).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        results = []
        for argv in cases:
            code, out, err = run(argv)
            results.append([argv, code, digest(out), digest(err)])
        return results
    finally:
        os.chdir(cwd)


def main() -> int:
    import tempfile

    files, cases = matrix_files(), corpus()
    with tempfile.TemporaryDirectory() as tmp:
        results = replay(files, cases, tmp)
    PATH.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(r, ensure_ascii=False) for r in results)
    text = f'{{"matrices": {json.dumps(files, indent=1)},\n"cases": [\n{lines}\n]}}\n'
    PATH.write_text(text, encoding="utf-8")
    codes = sorted({r[1] for r in results})
    print(f"{len(results)} cases, exit codes {codes}, written to {PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
