"""The three workloads: seeded job lists, each job with its own check.

A job is one `ietsaf` command line.  Its check reads the captured exit
code, stdout and `--out` file and raises CheckFailed when they are
wrong.  Checks use the independent code in `exact.py`; the only library
calls they make are the parse/emit round trip that they test.

Why these workloads (what each is meant to move) is set out in NOTES.md.
Value arguments that may start with '-' are passed joined
(`--minpoly=-1,...`, `--sub=-1/2,...`): argparse reads a separate value
with a leading '-' as an option.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from pathlib import Path

import exact
from ietsaf.ietfile import dumps_iet, loads_iet

AY_LADDER = (3, 4, 5, 6, 8)
AY_LADDER_TINY = (3, 4)
LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
AY_UNCERTIFIED = (19, 21, 22)   # AY stretch polynomials the trial primes miss
TETRANACCI = (-1, -1, -1, -1, 1)  # x^4 - x^3 - x^2 - x - 1, one root in (1, 2)
SAMPLES = 12                    # float sample points per IET check


class CheckFailed(Exception):
    """A job's exit code or output is wrong."""


@dataclass
class Job:
    name: str
    argv: list
    check: object               # callable(Outcome), raises CheckFailed
    out: str | None = None      # the --out file, when the job writes one
    hardest: bool = False


@dataclass
class Outcome:
    code: int | None            # None when main raised
    stdout: str
    stderr: str
    seconds: float
    out_text: str | None = None
    reference: float = 0.0      # reference time around the job (worker.py)


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def _report(o: Outcome) -> dict:
    expect(o.code == 0, f"exit {o.code}: {o.stderr.strip()[-300:]}")
    return json.loads(o.stdout)


def check_input_error(o: Outcome) -> None:
    expect(o.code == 2, f"expected exit 2, got {o.code}")
    expect(o.stdout == "", "stdout not empty on an input error")
    expect(o.stderr.startswith("error: "), "no error message on stderr")


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list:
    """The workload's job list for this seed, with its input files written."""
    rng = random.Random(seed)
    if workload == "ay-ladder":
        jobs = ay_ladder(tiny)
    elif workload == "poly-verdicts":
        jobs = poly_verdicts(rng, tiny)
    elif workload == "iet-files":
        jobs = iet_files(rng, workdir, tiny, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


# -- ay-ladder -------------------------------------------------------------------


def ay_ladder(tiny):
    ladder = AY_LADDER_TINY if tiny else AY_LADDER
    return [
        Job(f"ay g={g}", ["ay", "--genus", str(g), "--check", "--json"],
            partial(check_ay, g), hardest=(g == max(ladder)))
        for g in ladder
    ]


def check_ay(g, o):
    r = _report(o)
    expect(r["command"] == "ay" and r["inputs"]["genus"] == g, "wrong echo")
    failed = [k for k, v in r["checks"].items() if v is not True]
    expect(r["all_pass"] is True and not failed, f"failed checks {failed}")
    expect(r["stretch_minpoly"] == exact.to_text([-1] * g + [1]),
           f"stretch polynomial {r['stretch_minpoly']}")
    lo, hi = (Fraction(c) for c in r["alpha_interval"].split(","))
    alpha_poly = [-1] + [1] * g
    expect(0 <= lo < hi <= 1 and exact.peval(alpha_poly, lo) < 0
           < exact.peval(alpha_poly, hi), "alpha interval misses alpha")
    expect(r["self_similarity_offset"] is not None, "no self-similarity witness")


# -- poly-verdicts ---------------------------------------------------------------


def _random_valid(rng, degree, kind):
    """Monic, irreducible mod 2 (so irreducible, and certified by the
    first trial prime at a cost set by the degree alone), with p(1) < 0
    so that a root > 1 exists."""
    while True:
        if kind == "reciprocal":
            half = [1] + [rng.randint(-3, 3) for _ in range(degree // 2 - 1)]
            p = half + [rng.randint(-3, 3)] + half[::-1]
        else:
            c0 = rng.choice((1, -1) if kind == "unit" else (3, -3))
            p = [c0] + [rng.randint(-3, 3) for _ in range(degree - 1)] + [1]
        if sum(p) < 0 and exact.irreducible_mod(p, 2):
            return p


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_verdicts(rng, tiny):
    per_kind, invalid = (1, 1) if tiny else (12, 4)
    valid = [(list(LEHMER), "lehmer")]
    if not tiny:
        valid += [([-1] * g + [1], f"ay{g}") for g in AY_UNCERTIFIED]
    kinds = ("unit", "nonunit", "reciprocal")
    for i in range(3 * per_kind):
        kind = kinds[i % 3]
        step = i // 3 / max(per_kind - 1, 1)   # degrees spread evenly over 3..20
        degree = 4 + 2 * round(8 * step) if kind == "reciprocal" else 3 + round(17 * step)
        valid.append((_random_valid(rng, degree, kind), f"{kind}{i}"))
    top = max(len(p) for p, _ in valid)
    jobs = []
    for i, (p, label) in enumerate(valid):
        text = exact.to_text(p)
        genus = max(1, len(p) - 3 + i % 11)
        jobs.append(Job(f"vanishing {label}",
                        ["vanishing", f"--minpoly={text}", "--json"],
                        partial(check_vanishing, p),
                        hardest=(len(p) == top)))
        jobs.append(Job(f"nonlift {label} g={genus}",
                        ["nonlift", f"--minpoly={text}", "--genus", str(genus),
                         "--json"],
                        partial(check_nonlift, p, genus)))
    for i in range(invalid):
        square = [rng.randint(-3, 3), rng.randint(-3, 3), 1]
        p = _polymul(_polymul(square, square), [rng.randint(-3, 3), 1])
        text = exact.to_text(p)
        jobs.append(Job(f"vanishing nonsquarefree{i}",
                        ["vanishing", f"--minpoly={text}", "--json"],
                        check_input_error))
        jobs.append(Job(f"nonlift nonsquarefree{i}",
                        ["nonlift", f"--minpoly={text}", "--genus", "12", "--json"],
                        check_input_error))
        positive = [rng.randint(1, 4) for _ in range(rng.randint(3, 8))] + [1]
        jobs.append(Job(f"vanishing noroot{i}",
                        ["vanishing", f"--minpoly={exact.to_text(positive)}",
                         "--json"],
                        check_input_error))
    return jobs


def check_vanishing(p, o):
    r = _report(o)
    vanishes = not exact.is_reciprocal(p)
    rec, deg = r["reciprocity"], r["field_degree"]
    expect(r["inputs"]["minpoly"] == exact.to_text(p), "wrong echo")
    expect(rec["vanishes"] is vanishes, f"reciprocity says {rec['vanishes']}")
    expect(deg["vanishes"] is vanishes, f"field degree says {deg['vanishes']}")
    expect(r["agree"] is True, "methods disagree")
    expect(rec["detail"] == exact.to_text(p[::-1]), "wrong reversal")
    expect(deg["index"] == (1 if vanishes else 2), f"index {deg['index']}")
    if vanishes:
        expect(len(deg["detail"].split(",")) == len(p), "trace poly degree")
    else:
        expect(deg["detail"] == exact.to_text(exact.trace_poly(p)),
               f"trace poly {deg['detail']}")


def check_nonlift(p, genus, o):
    v = _report(o)["verdict"]
    d = len(p) - 1
    if d > genus:
        expected = ("CertifiedNotLift", "DegreeExceedsGenus", None)
    elif abs(p[0]) != 1:
        expected = ("CertifiedNotLift", "ConstantNotUnit", None)
    else:
        mbar = exact.gf2_from_ints(p)
        variants = [("direct", mbar)]
        if exact.gf2_reverse(mbar) != mbar:
            variants.append(("reversed", exact.gf2_reverse(mbar)))
        k = genus - d
        name = next((n for n, bits in variants
                     if exact.gf2_completion_exists(bits, k)), None)
        if name is None:
            expected = ("CertifiedNotLift", "NoMod2Completion", None)
        else:
            expected = ("Inconclusive", None, name)
            q = exact.gf2_parse(v["witness"])
            prod = exact.gf2_mul(dict(variants)[name], q)
            expect(q.bit_length() - 1 == k and q & 1 and
                   prod == exact.gf2_reverse(prod), f"bad witness {v['witness']}")
    got = (v["outcome"], v["reason"], v["variant"])
    expect(got == expected, f"verdict {got}, brute force says {expected}")


# -- iet-files -------------------------------------------------------------------


def _random_field(rng, degree):
    """(modulus, isolating interval, narrow interval) with a real root."""
    while True:
        p = [rng.randint(-5, 5) for _ in range(degree)] + [1]
        if p[0] == 0 or not exact.certified_irreducible(p):
            continue
        bound = exact.root_bound(p)
        roots = exact.isolate_roots(p, -bound, bound)
        if roots:
            return _field(p, rng.choice(roots))


def _field(p, interval):
    """(modulus, isolating interval, a narrow one for exact sign tests)."""
    return p, interval, exact.narrow(p, *interval, Fraction(1, 2 ** 64))


def _positive(rng, degree, narrow_interval):
    while True:
        coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(degree)]
        if exact.interval_value(coords, *narrow_interval)[0] > 0:
            return coords


class Pair:
    """A random circle IET f and a partner g with the same total: g cuts
    `cuts` of f's pieces at a rational point, then reorders and permutes
    the pieces."""

    def __init__(self, rng, field, n, workdir, label, cuts):
        p, interval, narrow_interval = field
        degree = len(p) - 1
        f_lengths = [_positive(rng, degree, narrow_interval) for _ in range(n)]
        g_lengths = []
        for k, length in enumerate(rng.sample(f_lengths, n)):
            if k < cuts:
                r = Fraction(rng.randint(1, 3), 4)
                g_lengths += [[r * c for c in length], [(1 - r) * c for c in length]]
            else:
                g_lengths.append(length)
        rng.shuffle(g_lengths)
        total = [sum(c) for c in zip(*f_lengths)]
        self.f_text = exact.iet_text(p, interval, total, f_lengths,
                                     rng.sample(range(n), n))
        self.g_text = exact.iet_text(p, interval, total, g_lengths,
                                     rng.sample(range(len(g_lengths)), len(g_lengths)))
        r = Fraction(rng.randint(5, 9), 10)
        self.b = [r * c for c in total]
        self.f_path = workdir / f"{label}-f.iet"
        self.g_path = workdir / f"{label}-g.iet"
        self.f_path.write_text(self.f_text)
        self.g_path.write_text(self.g_text)

    @cached_property
    def f(self):
        return exact.FileIET(self.f_text)

    @cached_property
    def g(self):
        return exact.FileIET(self.g_text)


def iet_files(rng, workdir, tiny, seed):
    degrees, pairs, largest_n = ((3,), 1, 3) if tiny else ((3,) * 6 + (4,) * 6, 2, 9)
    out_dir = workdir / "out"
    out_dir.mkdir(exist_ok=True)
    fields = [_random_field(rng, d) for d in degrees]
    jobs = []

    def add(name, argv, check, pair, writes=True, hardest=False):
        sample_rng = random.Random(f"{seed}/{name}")
        out = str(out_dir / f"{name.replace(' ', '-')}.iet") if writes else None
        jobs.append(Job(name, argv + (["--out", out] if writes else []),
                        partial(check, pair, sample_rng), out, hardest))

    for k, field in enumerate(fields):
        for i in range(pairs):
            label = f"field{k}-pair{i}"
            n = 3 + (k * pairs + i) % 4
            pair = Pair(rng, field, n, workdir, label, cuts=(n + 1) // 2)
            f, g = str(pair.f_path), str(pair.g_path)
            add(f"saf {label}", ["saf", f, "--json"], check_saf, pair, writes=False)
            add(f"compose {label}", ["compose", "--iet", f, "--iet2", g],
                check_compose, pair)
            add(f"invert {label}", ["invert", "--iet", f], check_invert, pair)
            add(f"lift {label}", ["lift", "--iet", f], check_lift, pair)
            add(f"induce {label}",
                ["induce", "--iet", f, f"--sub={exact.to_text(pair.b)}"],
                check_induce, pair)
    # The hardest job is over one fixed field, so that its cost depends on
    # the seed only through the random lengths and permutations.
    field = _field(TETRANACCI, exact.isolate_roots(TETRANACCI, 1, 2)[0])
    pair = Pair(rng, field, largest_n, workdir, "largest", cuts=largest_n)
    add("compose largest", ["compose", "--iet", str(pair.f_path), "--iet2",
                            str(pair.g_path)], check_compose, pair, hardest=True)
    return jobs


def _close(a, b, scale):
    return abs(a - b) <= 1e-9 * max(1.0, abs(scale))


def _output_iet(pair, o, total):
    expect(o.code == 0, f"exit {o.code}: {o.stderr.strip()[-300:]}")
    expect(o.stdout == "", "stdout not empty with --out")
    expect(o.out_text is not None, "no output file")
    expect(dumps_iet(loads_iet(o.out_text)) == o.out_text,
           "parse and re-emit changed the file")
    h = exact.FileIET(o.out_text)
    expect(h.modulus == pair.f.modulus and _close(h.root, pair.f.root, h.root),
           "output is over another field")
    expect(h.total == total, "wrong total length")
    return h


def _samples(rng, upper):
    return [rng.random() * upper for _ in range(SAMPLES)]


def check_saf(pair, rng, o):
    r = _report(o)
    rows = [[Fraction(c) for c in row] for row in r["matrix"]]
    expect(rows == pair.f.saf(), "SAF matrix differs from the exact sum")
    zero = not any(c for row in rows for c in row)
    expect(r["verdict"] == ("VANISHES" if zero else "NONZERO"), "wrong verdict")


def check_compose(pair, rng, o):
    f, g = pair.f, pair.g
    h = _output_iet(pair, o, f.total)
    for x in _samples(rng, f.ftotal):
        expect(_close(h(x), f(g(x)), f.ftotal), f"f(g({x})) differs")
    expect(h.saf() == exact.saf_sum(f.saf(), g.saf()),
           "saf(f o g) != saf(f) + saf(g)")


def check_invert(pair, rng, o):
    f = pair.f
    h = _output_iet(pair, o, f.total)
    for x in _samples(rng, f.ftotal):
        expect(_close(h(f(x)), x, f.ftotal), f"f^-1(f({x})) != {x}")
    expect(h.saf() == [[-c for c in row] for row in f.saf()],
           "saf(f^-1) != -saf(f)")


def check_lift(pair, rng, o):
    f = pair.f
    h = _output_iet(pair, o, f.total)
    length = f.ftotal
    for x in _samples(rng, length):
        y = f(x) + length / 2
        y = y - length if y >= length else y
        gap = abs(h(x) - y)
        expect(_close(gap, 0.0, length) or _close(gap, length, length),
               f"lift({x}) differs")


def check_induce(pair, rng, o):
    f = pair.f
    h = _output_iet(pair, o, pair.b)
    b = f.value(pair.b)
    for x in _samples(rng, b):
        y = f(x)
        for _ in range(100_000):
            if y < b:
                break
            y = f(y)
        expect(_close(h(x), y, b), f"first return of {x} differs")
