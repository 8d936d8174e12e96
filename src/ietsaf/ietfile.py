"""Text format for interval exchange transformations.

An IET file is a single JSON object:

    {
      "modulus": "-1,1,1,1",          # field modulus, constant-first
      "root_interval": "0,1",         # rationals lo,hi isolating one root
      "total": "1,0,0",               # coordinates of the total length
      "lengths": ["...", "..."],      # one coordinate list per interval
      "perm": [2, 1],                 # image slot of each interval, 1-based
      "circle": true
    }

Coordinate lists are comma-separated reduced rationals in the power
basis of the field, constant coordinate first.  Emission is canonical
(fixed key order, reduced fractions), so parse followed by emit
reproduces the input byte for byte.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .field import AlgNum, NumberField
from .iet import IET
from .polys import Poly, parse_rational

_KEYS = ("modulus", "root_interval", "total", "lengths", "perm", "circle")


def parse_interval(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"interval must be 'lo,hi', got {text!r}")
    return parse_rational(parts[0]), parse_rational(parts[1])


def parse_coords(text: str, field: NumberField) -> AlgNum:
    parts = text.split(",")
    if len(parts) != field.degree:
        raise ParseError(
            f"expected {field.degree} coordinates, got {len(parts)} in {text!r}"
        )
    return field.element([parse_rational(p) for p in parts])


def coords_to_string(value: AlgNum) -> str:
    return ",".join(str(c) for c in value.coords)


def iet_to_dict(iet: IET) -> dict:
    return {
        "modulus": iet.field.modulus.to_string(),
        "root_interval": f"{iet.field.interval[0]},{iet.field.interval[1]}",
        "total": coords_to_string(iet.total),
        "lengths": [coords_to_string(l) for l in iet.lengths],
        "perm": [k + 1 for k in iet.perm],
        "circle": iet.circle,
    }


def dumps_iet(iet: IET) -> str:
    return json.dumps(iet_to_dict(iet), indent=2) + "\n"


def iet_from_dict(data: dict) -> IET:
    if not isinstance(data, dict):
        raise ParseError("IET file must contain a JSON object")
    missing = [k for k in _KEYS if k not in data]
    if missing:
        raise ParseError(f"IET file missing keys: {', '.join(missing)}")
    extra = [k for k in data if k not in _KEYS]
    if extra:
        raise ParseError(f"IET file has unknown keys: {', '.join(extra)}")
    for key in ("modulus", "root_interval", "total"):
        if not isinstance(data[key], str):
            raise ParseError(f"'{key}' must be a string")
    if (not isinstance(data["lengths"], list) or not data["lengths"]
            or any(not isinstance(t, str) for t in data["lengths"])):
        raise ParseError("'lengths' must be a nonempty list of strings")
    modulus = Poly.from_string(data["modulus"])
    lo, hi = parse_interval(data["root_interval"])
    field = NumberField(modulus, lo, hi)
    total = parse_coords(data["total"], field)
    lengths = [parse_coords(t, field) for t in data["lengths"]]
    perm = data["perm"]
    if (not isinstance(perm, list)
            or any(not isinstance(k, int) or isinstance(k, bool) for k in perm)):
        raise ParseError("'perm' must be a list of integers")
    if sorted(perm) != list(range(1, len(lengths) + 1)):
        raise ParseError("perm not a bijection")
    if not isinstance(data["circle"], bool):
        raise ParseError("'circle' must be a boolean")
    return IET(field, total, lengths, [k - 1 for k in perm], data["circle"])


def loads_iet(text: str) -> IET:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid IET file at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    return iet_from_dict(data)


def read_iet(path: str) -> IET:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return loads_iet(handle.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def dumps_report(report: dict) -> str:
    """Canonical JSON for machine-readable reports."""
    return json.dumps(report, indent=2) + "\n"
