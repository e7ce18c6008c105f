"""JSON conversions for matrices, limit-group elements, and witnesses.

Elements serialise as {"payload": ..., "level": N, "flavor": ...} with
flavors "s", "u", "h", "k0", "k1", "ra"; homomorphisms as {"z": [...],
"level": N}; witnesses as {"R": rows, "S": rows, "k": lag}; a matrix file
holds rows, whitespace rows, or {"matrix": rows} with an optional string
"label".  Each object is read with exactly its keys: a missing or unknown
key is refused by name.  Reports carry a
SHA-256 of the compact matrix JSON so runs are attributable to their input.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Union

from .exactlinalg import IntMatrix
from .sft import AdjacencyMatrix, validate
from .dimension_groups import HomoclinicElement, MatrixPayload, StableElement, UnstableElement
from .cylinder_ring import CylinderK0Element, CylinderK1Element, RAElement
from .duality import StableHom
from .shift_equivalence import ShiftEquivalenceWitness

Element = Union[
    StableElement,
    UnstableElement,
    HomoclinicElement,
    CylinderK0Element,
    CylinderK1Element,
    RAElement,
]

_FLAVORS = {
    "s": StableElement,
    "u": UnstableElement,
    "h": HomoclinicElement,
    "k0": CylinderK0Element,
    "k1": CylinderK1Element,
    "ra": RAElement,
}
_FLAVOR_OF = {cls: flavor for flavor, cls in _FLAVORS.items()}


def matrix_sha256(a: AdjacencyMatrix) -> str:
    payload = json.dumps(a.matrix.to_rows(), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def element_to_dict(e: Element) -> dict:
    flavor = _FLAVOR_OF[type(e)]
    payload = e.matrix.to_rows() if isinstance(e, MatrixPayload) else list(e._flat)
    return {"payload": payload, "level": e.level, "flavor": flavor}


def _shown(x) -> str:
    """The repr of a refused value, cut short: a message never echoes a whole input."""
    text = repr(x)
    return text if len(text) <= 100 else text[:100] + "..."


def _int(x) -> int:
    """``x`` itself when it is an int; JSON true/false and floats are refused."""
    if type(x) is not int:
        raise TypeError(f"integer expected, got {_shown(x)}")
    return x


def _ints(xs) -> tuple:
    """The ints of the JSON list ``xs``; a number, a string or an object is refused."""
    if type(xs) is not list:
        raise TypeError(f"list of integers expected, got {_shown(xs)}")
    return tuple(_int(x) for x in xs)


def _int_token(tok: str) -> int:
    """An ASCII decimal integer; ``int`` alone would take ``1_0`` and non-ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", tok):
        raise ValueError(f"integer expected, got {_shown(tok)}")
    return int(tok)


def _int_rows(rows) -> list:
    if type(rows) is not list:
        raise TypeError(f"list of rows expected, got {_shown(rows)}")
    return [_ints(row) for row in rows]


def _object(d, what: str, keys: tuple, optional: tuple = ()) -> dict:
    """``d`` itself when it is a JSON object with every one of ``keys`` and no
    key beyond them and ``optional``; the message names what is missing or unknown."""
    if type(d) is not dict:
        raise TypeError(f"{what} must be a JSON object, got {_shown(d)}")
    missing = [k for k in keys if k not in d]
    unknown = [k for k in d if k not in keys and k not in optional]
    if missing or unknown:
        problems = [f"missing key {k!r}" for k in missing]
        problems += [f"unknown key {_shown(k)}" for k in unknown]
        raise ValueError(f"{what}: {', '.join(problems)}")
    return d


def element_from_dict(a: AdjacencyMatrix, d: dict) -> Element:
    d = _object(d, "element", ("payload", "level", "flavor"))
    flavor = d["flavor"]
    level = _int(d["level"])
    payload = d["payload"]
    cls = _FLAVORS.get(flavor) if isinstance(flavor, str) else None
    if cls is None:
        raise ValueError(f"unknown flavor {_shown(flavor)}")
    if issubclass(cls, MatrixPayload):
        return cls(a, IntMatrix.from_rows(_int_rows(payload)), level)
    return cls(a, _ints(payload), level)


def hom_to_dict(phi: StableHom) -> dict:
    return {"z": list(phi.z), "level": phi.level}


def hom_from_dict(a: AdjacencyMatrix, d: dict) -> StableHom:
    d = _object(d, "homomorphism", ("z", "level"))
    return StableHom(a, _ints(d["z"]), _int(d["level"]))


def witness_to_dict(w: ShiftEquivalenceWitness) -> dict:
    return {"R": w.r.to_rows(), "S": w.s.to_rows(), "k": w.k}


def witness_from_dict(d: dict) -> ShiftEquivalenceWitness:
    d = _object(d, "witness", ("R", "S", "k"))
    return ShiftEquivalenceWitness(
        r=IntMatrix.from_rows(_int_rows(d["R"])),
        s=IntMatrix.from_rows(_int_rows(d["S"])),
        k=_int(d["k"]),
    )


def parse_matrix_text(text: str) -> tuple:
    """Auto-detect JSON versus whitespace rows by the first non-blank byte.

    Returns (AdjacencyMatrix, label or None).
    """
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("empty matrix input")
    label = None
    if stripped[0] in "[{":
        data = json.loads(stripped)
        if isinstance(data, dict):
            data = _object(data, "matrix object", ("matrix",), ("label",))
            label = data.get("label")
            if "label" in data and type(label) is not str:
                raise TypeError(f"label must be a string, got {_shown(label)}")
            data = data["matrix"]
        rows = _int_rows(data)
    else:
        rows = [
            [_int_token(tok) for tok in line.split()]
            for line in stripped.splitlines()
            if line.strip()
        ]
    return validate(rows), label
