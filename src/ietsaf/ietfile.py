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

Coordinate lists are comma-separated rationals in the power basis of
the field, constant coordinate first.  They are read and written as
ints: `parse_coords` takes each entry's (n, d) from `polys.parse_ratio`
and puts them over one lcm, and `coords_to_string` writes each
numerator over the element's denominator, reduced by one gcd, so no
`Fraction` is built either way.  Emission is canonical (fixed key
order, reduced fractions), so parse followed by emit reproduces a
canonical input byte for byte.  Each output form has one writer:
`dumps_report` writes all JSON, IET files and command reports alike,
and `coords_to_string` all coordinate text.  `json.dumps` with an
indent runs CPython's pure-Python encoder, so `dumps_report` writes its
bytes itself, strings by the C `encode_basestring_ascii`.

Each command builds one field object per distinct field text: the
readers take an optional dict, local to the command, from the
(modulus, root_interval) strings to the `NumberField` already built
from them.  `compose` passes one dict to both reads, so two files with
the same field text share one field object and never compare fields.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm

from .errors import ParseError
from .field import AlgNum, NumberField, _reduced
from .iet import IET
from .polys import Poly, parse_ratio, parse_rational, quote

_KEYS = ("modulus", "root_interval", "total", "lengths", "perm", "circle")


def parse_interval(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"interval must be 'lo,hi', got {quote(text)}")
    return parse_rational(parts[0]), parse_rational(parts[1])


def parse_coords(text: str, field: NumberField) -> AlgNum:
    parts = text.split(",")
    if len(parts) != field.degree:
        raise ParseError(
            f"expected {field.degree} coordinates, got {len(parts)} in {quote(text)}"
        )
    ratios = [parse_ratio(p) for p in parts]
    den = lcm(*(d for _, d in ratios))
    return _reduced(field, [n * (den // d) for n, d in ratios], den)


def coords_to_string(value: AlgNum) -> str:
    """The coordinates num/den, each reduced as `str(Fraction)` writes it."""
    den = value.den
    if den == 1:
        return ",".join(map(str, value.num))
    out = []
    for n in value.num:
        g = gcd(n, den)
        out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
    return ",".join(out)


def dumps_report(report: dict) -> str:
    """Canonical JSON: the one writer of reports and IET files."""
    return _json(report, "\n") + "\n"


def _json(value, newline: str) -> str:
    """`json.dumps(value, indent=2)`, each line break written as `newline`.
    str, int, bool, None, dict, list and tuple are written here; any other
    type, a subclass of these or a dict key that is not a str goes to it."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    inner = newline + "  "
    try:
        if kind is dict:
            items, ends = [_quote(k) + ": " + _json(v, inner) for k, v in value.items()], "{}"
        elif kind is list or kind is tuple:
            items, ends = [_json(v, inner) for v in value], "[]"
        else:
            raise TypeError
    except TypeError:       # not a JSON container, or a key that is not a str
        return json.dumps(value, indent=2).replace("\n", newline)
    body = inner + ("," + inner).join(items) + newline if items else ""
    return ends[0] + body + ends[1]


def dumps_iet(iet: IET) -> str:
    lo, hi = iet.field.interval
    return dumps_report({
        "modulus": iet.field.modulus.to_string(),
        "root_interval": f"{lo},{hi}",
        "total": coords_to_string(iet.total),
        "lengths": [coords_to_string(l) for l in iet.lengths],
        "perm": [k + 1 for k in iet.perm],
        "circle": iet.circle,
    })


def iet_from_dict(data: dict, fields=None) -> IET:
    """The IET of a parsed file.  `fields`, when given, maps the
    (modulus, root_interval) strings to fields already built from them;
    a field built here is added to it."""
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
    fields = {} if fields is None else fields
    key = (data["modulus"], data["root_interval"])
    if key not in fields:
        modulus = Poly.from_string(data["modulus"])
        fields[key] = NumberField(modulus, *parse_interval(data["root_interval"]))
    field = fields[key]
    total = parse_coords(data["total"], field)
    lengths = [parse_coords(t, field) for t in data["lengths"]]
    perm = data["perm"]
    if (not isinstance(perm, list)
            or any(not isinstance(k, int) or isinstance(k, bool) for k in perm)):
        raise ParseError("'perm' must be a list of integers")
    if not isinstance(data["circle"], bool):
        raise ParseError("'circle' must be a boolean")
    return IET(field, total, lengths, [k - 1 for k in perm], data["circle"])


def loads_iet(text: str, fields=None) -> IET:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid IET file at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:      # an integer past the interpreter's digit limit
        raise ParseError("invalid IET file: integer too long") from None
    except RecursionError:
        raise ParseError("invalid IET file: nested too deeply") from None
    return iet_from_dict(data, fields)


def read_iet(path: str, fields=None) -> IET:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return loads_iet(handle.read(), fields)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:      # raised by read(): loads_iet reads str
        raise ParseError("invalid IET file: not UTF-8 text") from None
