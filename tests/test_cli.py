"""The command line contract: exit codes, stable stdout, argument forms."""

import decimal
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import ietsaf
from ietsaf import NumberField, Poly, ay_lift, cli, dumps_iet
from ietsaf.arnoux_yoccoz import _paired_blocks
from ietsaf.errors import IterationCapError

from helpers import DEGENERATE_NOTE, UNVERIFIED_NOTE, count_calls


DATA = Path(__file__).parent / "data"
FILES = DATA / "files"


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def ay3(tmp_path):
    path = tmp_path / "ay3.iet"
    path.write_text(dumps_iet(ay_lift(3)), encoding="utf-8")
    return str(path)


def command(name, iet, out):
    """A working command line for each subcommand."""
    return {
        "saf": ["saf", iet, "--float"],
        "saf-json": ["saf", iet, "--json"],
        "vanishing": ["vanishing", "--minpoly", "-1,-1,-1,1"],
        "vanishing-json": ["vanishing", "--minpoly", "-1,-1,-1,-1,1", "--json"],
        "nonlift": ["nonlift", "--minpoly", "-1,-1,-1,-1,1", "--genus", "3",
                    "--oracle"],
        "ay": ["ay", "--genus", "3", "--check", "--float", "--out", out],
        "ay-emit": ["ay", "--genus", "4"],
        "induce": ["induce", "--iet", iet, "--sub", "-1/2,2,0", "--out", out],
        "lift": ["lift", "--iet", iet, "--out", out],
        "compose": ["compose", "--iet", iet, "--iet2", iet],
        "invert": ["invert", "--iet", iet, "--out", out],
    }[name]


SUBCOMMANDS = ("saf", "saf-json", "vanishing", "vanishing-json", "nonlift",
               "ay", "ay-emit", "induce", "lift", "compose", "invert")


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_exit_zero_and_stdout_stable(name, ay3, tmp_path, capsys):
    out = tmp_path / "out.iet"
    argv = command(name, ay3, str(out))
    results = []
    for _ in range(2):
        code, stdout, err = run(capsys, argv)
        assert code == 0, err
        assert err.startswith("elapsed: ")
        results.append((stdout, out.read_text(encoding="utf-8")
                        if "--out" in argv else None))
        out.unlink(missing_ok=True)
    assert results[0] == results[1]
    assert any(results[0])


def test_bad_minpoly_exits_2(capsys):
    code, out, err = run(capsys, ["vanishing", "--minpoly", "1,-2,1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: minimal polynomial is not squarefree")


AY3_FILE = json.loads(dumps_iet(ay_lift(3)))


def _ay3_with(key, value):
    """The genus-3 lift file with one field replaced."""
    return json.dumps(dict(AY3_FILE, **{key: value}))


@pytest.mark.parametrize("text, message", [
    ('{"modulus": "-1,1,1,1"\n', "invalid IET file"),
    (_ay3_with("modulus", [-1, 1, 1, 1]), "'modulus' must be a string"),
    (_ay3_with("root_interval", 0), "'root_interval' must be a string"),
    (_ay3_with("total", 1), "'total' must be a string"),
    (_ay3_with("lengths", [1] + AY3_FILE["lengths"][1:]),
     "'lengths' must be a nonempty list of strings"),
    # exponent notation is outside the grammar; this one once hung the parser
    (_ay3_with("total", "1e999999999,0,0"), "bad rational '1e999999999'"),
    (_ay3_with("modulus", "-1,1,1,1e0"), "bad rational '1e0'"),
    (json.dumps([AY3_FILE]), "IET file must contain a JSON object"),
    (_ay3_with("perm", [str(k) for k in AY3_FILE["perm"]]),
     "'perm' must be a list of integers"),
], ids=["invalid-json", "modulus-list", "root-interval-int", "total-int",
        "lengths-entry-int", "total-exponent", "modulus-exponent", "json-array",
        "perm-strings"])
def test_malformed_iet_file_exits_2(text, message, tmp_path, capsys):
    path = tmp_path / "bad.iet"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, ["saf", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_missing_iet_file_exits_2(tmp_path, capsys):
    """A path that does not exist is one `cannot read` line and exit 2."""
    path = tmp_path / "absent.iet"
    code, out, err = run(capsys, ["saf", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("name", ["ay", "ay-check", "induce", "lift", "compose", "invert"])
def test_unwritable_out_path_exits_2(name, ay3, tmp_path, capsys):
    """An --out path that cannot be opened for writing, in a missing
    directory or naming a directory, is one `cannot write` line and exit 2,
    not a traceback."""
    for target in (tmp_path / "missing" / "x.iet", tmp_path):
        argv = {
            "ay": ["ay", "--genus", "3"],
            "ay-check": ["ay", "--genus", "3", "--check"],
            "induce": ["induce", "--iet", ay3, "--sub", "-1/2,2,0"],
            "lift": ["lift", "--iet", ay3],
            "compose": ["compose", "--iet", ay3, "--iet2", ay3],
            "invert": ["invert", "--iet", ay3],
        }[name] + ["--out", str(target)]
        code, out, err = run(capsys, argv)
        lines = [text for text in err.splitlines() if not text.startswith("elapsed:")]
        assert code == 2 and "Traceback" not in err
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {target}: ")
        # `ay` opens --out before its work, so `ay --check` prints no report
        assert out == ""


@pytest.mark.parametrize("data, line", [
    (b"\xff{}\n", "error: invalid IET file: not UTF-8 text\n"),
    (b"[" + b"9" * 5000 + b"]\n", "error: invalid IET file: integer too long\n"),
    (b"[" * 100_000 + b"]" * 100_000 + b"\n",
     "error: invalid IET file: nested too deeply\n"),
], ids=["not-utf8", "long-integer", "deep-nesting"])
def test_unreadable_iet_file_exits_2(data, line, tmp_path, capsys):
    """Bytes that are not UTF-8, an integer past the interpreter's digit
    limit and arrays nested past the recursion limit: each is one error
    line and exit code 2, not a traceback."""
    path = tmp_path / "bad.iet"
    path.write_bytes(data)
    code, out, err = run(capsys, ["saf", str(path)])
    assert (code, out) == (2, "")
    assert [text for text in err.splitlines(True)
            if not text.startswith("elapsed:")] == [line]


LONG = "9" * 5000


@pytest.mark.parametrize("argv", [
    ["vanishing", "--minpoly=" + LONG + ",1"],
    ["vanishing", "--minpoly=" + "9" * 4000 + "/0,1"],
    ["vanishing", "--minpoly", "-1,-1,-1,1", "--interval", "1," + LONG],
    ["vanishing", "--minpoly", "-1,-1,-1,1", "--interval", LONG],
    ["saf", "TOTAL"],
], ids=["minpoly", "minpoly-zero-denominator", "interval", "interval-no-comma",
        "iet-file-total"])
def test_long_token_gives_one_short_error_line(argv, tmp_path, capsys):
    """A 5,000-character token is echoed as its first 40 characters and
    its length: one `error:` line of at most 120 characters, exit 2."""
    path = tmp_path / "long.iet"
    path.write_text(_ay3_with("total", LONG + ",0,0"), encoding="utf-8")
    argv = [str(path) if token == "TOTAL" else token for token in argv]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    lines = [line for line in err.splitlines() if not line.startswith("elapsed:")]
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert len(lines[0]) <= 120 and "characters)" in lines[0], lines[0][:200]


@pytest.mark.parametrize("argv", [
    ["vanishing", "--minpoly=1e3,1"],
    ["vanishing", "--minpoly", "-1,-1,-1,1", "--interval", "1e0,2"],
    ["nonlift", "--minpoly", "-1,-1,-1,1.0", "--genus", "3"],
    ["induce", "--iet", "AY3", "--sub", "1e3,0,0"],
], ids=["minpoly", "interval", "minpoly-decimal", "sub"])
def test_exponent_notation_exits_2(argv, ay3, capsys):
    argv = [ay3 if token == "AY3" else token for token in argv]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad rational")


def test_iteration_cap_exits_3(monkeypatch, capsys):
    def give_up(*args, **kwargs):
        raise IterationCapError("cap exceeded")

    monkeypatch.setattr(cli, "vanishing_verdicts", give_up)
    code, out, err = run(capsys, ["vanishing", "--minpoly", "-1,-1,-1,1"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: cap exceeded")


def test_missing_required_option_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["vanishing"])
    assert info.value.code == 2


def test_ay_genus_5_report(capsys):
    code, out, _ = run(capsys, ["ay", "--genus", "5", "--check", "--json"])
    assert code == 0
    assert '"alpha_interval": "533369/1048576,266685/524288"' in out
    assert '"self_similarity_offset": "-1/2,3/2,0,0,0"' in out
    report = json.loads(out)
    assert report["all_pass"] is True
    assert report["checks"]["criterion_vanishes"] is True
    assert report["checks"]["vanishing_methods_agree"] is True
    code, out, _ = run(capsys, ["ay", "--genus", "5", "--check"])
    assert "check criterion_vanishes: pass\ncheck vanishing_methods_agree: pass\n" in out


def test_ay_methods_agree_on_a_nonvanishing_verdict(monkeypatch, capsys):
    # both criteria say "does not vanish": they agree, the criterion fails
    nonzero = SimpleNamespace(vanishes=False)
    for reader in ("_by_reciprocity", "_by_field_degree"):
        monkeypatch.setattr(cli, reader, lambda stretch: nonzero)
    code, out, _ = run(capsys, ["ay", "--genus", "3", "--check", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["vanishing_methods_agree"] is True
    assert report["checks"]["criterion_vanishes"] is False
    assert report["all_pass"] is False


def test_ay_check_prints_each_verdict_note_once(capsys):
    # g=19: the trial primes miss the stretch polynomial, and both
    # vanishing verdicts carry the same note
    code, out, _ = run(capsys, ["ay", "--genus", "19", "--check"])
    assert code == 0
    assert out.count("note: ") == 1
    assert out.endswith("note: irreducibility unverified mod trial primes\n")
    code, out, _ = run(capsys, ["ay", "--genus", "5", "--check"])
    assert code == 0
    assert "note:" not in out


def test_ay_check_certifies_the_stretch_polynomial_once(monkeypatch, capsys):
    """No field certifies its modulus, and the nonlift verdict reuses the
    validation and certificate of the vanishing verdicts."""
    calls = []
    certify = ietsaf.polys.certify_irreducible

    def counting(p, *args):
        calls.append(p)
        return certify(p, *args)

    for module in (ietsaf.polys, ietsaf.certificates):
        monkeypatch.setattr(module, "certify_irreducible", counting)
    code, out, _ = run(capsys, ["ay", "--genus", "5", "--check"])
    assert code == 0 and "all checks pass: True" in out
    assert calls == [ietsaf.ay_stretch_minpoly(5)]


def count_chains_and_certificates(monkeypatch):
    """Live counts of `sturm_chain` and `certify_irreducible` calls."""
    counts = {"sturm_chain": 0, "certify": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ietsaf.polys, "sturm_chain",
                        counting("sturm_chain", ietsaf.polys.sturm_chain))
    certify = counting("certify", ietsaf.polys.certify_irreducible)
    for module in (ietsaf.polys, ietsaf.certificates):
        monkeypatch.setattr(module, "certify_irreducible", certify)
    return counts


def test_nonlift_oracle_validates_and_certifies_once(monkeypatch, capsys):
    """The brute-force oracle reruns the checks past validation on the
    validation of the certificate: one certificate, and no Sturm chain,
    since the certificate proves m squarefree."""
    counts = count_chains_and_certificates(monkeypatch)
    code, out, _ = run(capsys, ["nonlift", "--minpoly", "-1,-1,-1,-1,1",
                                "--genus", "6", "--oracle"])
    assert code == 0 and "brute-force oracle agrees: True" in out
    assert counts == {"sturm_chain": 0, "certify": 1}


def test_invalid_genus_is_rejected_before_certification(monkeypatch, capsys):
    """A genus below 1 is rejected after the Sturm chain, whose squarefree
    error comes first, and before any certificate."""
    counts = count_chains_and_certificates(monkeypatch)
    code, out, _ = run(capsys, ["nonlift", "--minpoly=-1,-1,-1,1", "--genus", "0"])
    assert (code, out) == (2, "")
    assert counts == {"sturm_chain": 1, "certify": 0}


AY19 = ietsaf.ay_stretch_minpoly(19).to_string()


@pytest.mark.parametrize("argv, uncertified", [
    (["vanishing", f"--minpoly={AY19}"], True),
    (["nonlift", f"--minpoly={AY19}", "--genus", "19"], True),
    (["vanishing", "--minpoly=1,0,-10,0,1"], True),
    (["nonlift", "--minpoly=1,0,-10,0,1", "--genus", "4"], True),
    (["vanishing", "--minpoly=-1,-1,-1,1", "--interval=1,2"], False),
    (["vanishing", f"--minpoly={AY19}", "--interval=1,2"], True),
    (["vanishing", "--minpoly=1,0,-10,0,1", "--interval=3,4"], True),
], ids=["vanishing-ay19", "nonlift-ay19", "vanishing-quartic", "nonlift-quartic",
        "vanishing-interval", "vanishing-ay19-interval", "vanishing-quartic-interval"])
def test_sturm_chain_is_the_fallback_of_validation(argv, uncertified, monkeypatch, capsys):
    """Validation certifies m once and builds at most one Sturm chain.
    When no trial prime certifies m, the chain is the squarefree check: the
    AY stretch polynomial at g = 19, and x^4 - 10x^2 + 1, which is
    reducible modulo every prime.  After a hit, a supplied interval is
    checked on a chain built for it; after a miss, on the chain of the
    squarefree check."""
    counts = count_chains_and_certificates(monkeypatch)
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert counts == {"sturm_chain": 1, "certify": 1}
    assert ("note: irreducibility unverified mod trial primes\n" in out) == uncertified


AY5 = ietsaf.ay_stretch_minpoly(5).to_string()


def json_notes(report):
    """The notes of a `--json` report: each verdict's for `vanishing`, which
    agree, the verdict's for `nonlift`, and the top-level ones for `ay`."""
    if report["command"] == "vanishing":
        assert report["field_degree"]["notes"] == report["reciprocity"]["notes"]
        return report["reciprocity"]["notes"]
    if report["command"] == "nonlift":
        return report["verdict"]["notes"]
    return report["notes"]


@pytest.mark.parametrize("argv, notes", [
    (["vanishing", f"--minpoly={AY19}"], [UNVERIFIED_NOTE]),
    (["nonlift", f"--minpoly={AY19}", "--genus", "19"], [UNVERIFIED_NOTE]),
    (["ay", "--genus", "19", "--check"], [UNVERIFIED_NOTE]),
    (["vanishing", f"--minpoly={AY5}"], []),
    (["nonlift", f"--minpoly={AY5}", "--genus", "5"], []),
    (["ay", "--genus", "5", "--check"], []),
    (["vanishing", "--minpoly=-2,1"], [DEGENERATE_NOTE]),
], ids=["vanishing-ay19", "nonlift-ay19", "ay-19", "vanishing-ay5", "nonlift-ay5",
        "ay-5", "vanishing-degenerate"])
def test_every_note_is_in_the_text_and_the_json(argv, notes, capsys):
    """The `note:` lines of the text form are the notes of the `--json`
    form: the irreducibility note where no trial prime certifies the AY
    stretch polynomial at g = 19, none at g = 5, and the degenerate-input
    note on a rational stretch factor."""
    code, text, _ = run(capsys, argv)
    assert code == 0
    code, out, _ = run(capsys, [*argv, "--json"])
    assert code == 0
    printed = [line.removeprefix("note: ") for line in text.splitlines()
               if line.startswith("note: ")]
    assert printed == json_notes(json.loads(out)) == notes


def test_ay_check_builds_one_identity(monkeypatch, capsys):
    """`ay --check` decides the involution check once, in `AYSystem.build`,
    and the report reads the stored answer."""
    calls = []
    identity = ietsaf.IET.identity.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return identity(cls, *args, **kwargs)

    monkeypatch.setattr(ietsaf.IET, "identity", classmethod(counting))
    code, out, _ = run(capsys, ["ay", "--genus", "8", "--check"])
    assert code == 0 and "check involution: pass" in out
    assert len(calls) == 1


@pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
def test_ay_check_reports_a_non_involution(json_out, monkeypatch, capsys):
    """A boundary map that is a valid circle map of circumference 2 but not
    an involution is a computed verdict: `check involution` fails and the
    command exits 0."""
    def rotated_blocks(g):
        field, lengths, _ = _paired_blocks(g)
        n = len(lengths)
        return ietsaf.IET(field, 2, lengths, [(k + 1) % n for k in range(n)],
                          circle=True)

    monkeypatch.setattr(ietsaf.arnoux_yoccoz, "ay_boundary_involution", rotated_blocks)
    code, out, err = run(capsys, ["ay", "--genus", "3", "--check"]
                         + (["--json"] if json_out else []))
    assert code == 0, err
    if json_out:
        report = json.loads(out)
        assert report["checks"]["involution"] is False
        assert report["all_pass"] is False
    else:
        assert "check involution: FAIL\n" in out
        assert "all checks pass: False\n" in out


def test_lift_of_a_file_runs_the_validating_constructor_once(ay3, monkeypatch, capsys):
    """`lift` validates the file it loads; its half-turn rotation and the
    composition are built on the trusted path."""
    inits = count_calls(monkeypatch, ietsaf.IET, "__init__")
    code, out, err = run(capsys, ["lift", "--iet", ay3])
    assert code == 0, err
    assert len(inits) == 1


def test_ay_genus_8_report(capsys):
    code, out, _ = run(capsys, ["ay", "--genus", "8", "--check", "--json"])
    assert code == 0
    assert '"self_similarity_offset": "-1/2,3/2,0,0,0,0,0,0"' in out
    assert '"all_pass": true' in out


@pytest.mark.parametrize("minpoly, detail", [
    # constant term -3: the minimal polynomial of beta has fractional coefficients
    ("-3,-1,0,1", "-13/3,-4,1/3,1"),
    # the Arnoux-Yoccoz stretch polynomial of genus 22
    (",".join(["-1"] * 22 + ["1"]),
     "-5,10,126,-190,-1305,992,5215,-2326,-10601,2922,12472,-2136,-9076,936,"
     "4208,-242,-1243,34,226,-2,-23,0,1"),
], ids=["constant-3", "ay22"])
def test_vanishing_field_degree_detail(minpoly, detail, capsys):
    code, out, _ = run(capsys, ["vanishing", f"--minpoly={minpoly}", "--json"])
    assert code == 0
    verdict = json.loads(out)["field_degree"]
    assert verdict["detail"] == detail
    assert verdict["index"] == 1


# -- values that start with '-' ---------------------------------------------------


def _same_as_joined(capsys, separated, joined):
    results = [run(capsys, argv)[:2] for argv in (separated, joined)]
    assert results[0] == results[1]
    return results[0]


def test_minpoly_separated_negative_value(capsys):
    # the form of the example in `ietsaf vanishing --help`
    code, out = _same_as_joined(
        capsys,
        ["vanishing", "--minpoly", "-1,-1,-1,1", "--json"],
        ["vanishing", "--minpoly=-1,-1,-1,1", "--json"],
    )
    assert code == 0
    assert json.loads(out)["inputs"]["minpoly"] == "-1,-1,-1,1"
    code, _ = _same_as_joined(
        capsys,
        ["nonlift", "--genus", "3", "--minpoly", "-1,-1,-1,-1,1"],
        ["nonlift", "--genus", "3", "--minpoly=-1,-1,-1,-1,1"],
    )
    assert code == 0


def test_sub_separated_negative_value(ay3, capsys):
    code, out = _same_as_joined(
        capsys,
        ["induce", "--iet", ay3, "--sub", "-1/2,1,0"],
        ["induce", "--iet", ay3, "--sub=-1/2,1,0"],
    )
    assert code == 0
    assert json.loads(out)["total"] == "-1/2,1,0"


def test_interval_separated_negative_value(capsys):
    # the value reaches the library, which rejects an interval below 1
    code, out, err = run(capsys, ["vanishing", "--minpoly", "-1,-1,-1,1",
                                  "--interval", "-1,2"])
    assert code == 2
    assert err.startswith("error: supplied interval must lie in [1, oo)")
    code, out = _same_as_joined(
        capsys,
        ["vanishing", "--interval", "1,2", "--minpoly", "-1,-1,-1,1"],
        ["vanishing", "--interval=1,2", "--minpoly=-1,-1,-1,1"],
    )
    assert code == 0


@pytest.mark.parametrize("written, reduced", [
    (["vanishing", "--minpoly=2/2,-3,1"], ["vanishing", "--minpoly=1,-3,1"]),
    (["vanishing", "--minpoly=-4/2,-2,1", "--json"],
     ["vanishing", "--minpoly=-2,-2,1", "--json"]),
    (["vanishing", "--minpoly=1,-3,1", "--interval=4/2,6/2"],
     ["vanishing", "--minpoly=1,-3,1", "--interval=2,3"]),
    (["nonlift", "--minpoly=2/2,-3,1", "--genus", "4", "--oracle"],
     ["nonlift", "--minpoly=1,-3,1", "--genus", "4", "--oracle"]),
    (["nonlift", "--minpoly=-4/2,-2,1", "--genus", "4", "--json"],
     ["nonlift", "--minpoly=-2,-2,1", "--genus", "4", "--json"]),
], ids=["vanishing", "vanishing-json", "vanishing-interval", "nonlift", "nonlift-json"])
def test_integral_entries_print_as_their_reduced_form(written, reduced, capsys):
    """An integral entry written as n/d is the int n // d: stdout, the echo
    of the polynomial included, is that of the reduced form.  (The JSON of
    `vanishing` echoes `--interval` as written, so that case is text.)"""
    code, out, _ = run(capsys, written)
    assert code == 0
    assert run(capsys, reduced)[:2] == (code, out)


def test_nonlift_beyond_the_completion_cap_exits_3(capsys):
    """A genus whose completion degree is above the cap gives one error
    line and exit 3; a verdict decided before the completion is given."""
    genus = str(10 ** 20)
    code, out, err = run(capsys, ["nonlift", "--minpoly=-1,-1,-1,1", "--genus", genus])
    assert (code, out) == (3, "")
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: completion degree {10 ** 20 - 3} exceeds the cap 10000000"]
    code, out, _ = run(capsys, ["nonlift", "--minpoly=-2,-2,1", "--genus", genus])
    assert code == 0
    assert "outcome: CertifiedNotLift (ConstantNotUnit)" in out


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_nonlift_oracle_beyond_its_cap_exits_3(json_flag, capsys):
    """`--oracle` past the brute-force cap is a work cap, not bad input:
    exit 3, empty stdout and one error line, with and without `--json`."""
    argv = ["nonlift", "--minpoly=-1,-1,-1,1", "--genus", "30", "--oracle"] + json_flag
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: completion degree 27 exceeds the cap 24"]


# -- compose across two files ------------------------------------------------------


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_compose_files_with_different_root_intervals(ay3, tmp_path, capsys):
    data = json.loads(Path(ay3).read_text(encoding="utf-8"))
    data["root_interval"] = "1/2,3/5"
    other = _write(tmp_path / "other.iet", json.dumps(data))
    same = run(capsys, ["compose", "--iet", ay3, "--iet2", ay3])
    across = run(capsys, ["compose", "--iet", ay3, "--iet2", other])
    assert across[0] == 0
    assert across[1] == same[1]


def test_compose_files_over_different_roots_exits_2(tmp_path, capsys):
    def exchange(name, interval):
        return _write(tmp_path / name, json.dumps({
            "modulus": "-2,0,1", "root_interval": interval, "total": "1,0",
            "lengths": ["1/3,0", "2/3,0"], "perm": [2, 1], "circle": True,
        }))

    plus, minus = exchange("plus.iet", "0,2"), exchange("minus.iet", "-2,0")
    code, out, err = run(capsys, ["compose", "--iet", plus, "--iet2", minus])
    assert code == 2
    assert out == ""
    assert err.startswith("error: composition of IETs over different fields")


def _count_fields(monkeypatch):
    """Counts of `NumberField.__init__` and `NumberField.__eq__` calls."""
    counts = {"init": 0, "eq": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(NumberField, "__init__", counting("init", NumberField.__init__))
    monkeypatch.setattr(NumberField, "__eq__", counting("eq", NumberField.__eq__))
    return counts


def test_compose_builds_one_field_per_field_text(ay3, tmp_path, monkeypatch, capsys):
    """Files with the same modulus and root_interval text share one field
    object, so no field comparison runs; a different root_interval text
    gets its own field, compared once it is composed."""
    copy = _write(tmp_path / "copy.iet", Path(ay3).read_text(encoding="utf-8"))
    counts = _count_fields(monkeypatch)
    assert run(capsys, ["compose", "--iet", ay3, "--iet2", copy])[0] == 0
    assert counts == {"init": 1, "eq": 0}

    counts = _count_fields(monkeypatch)
    a, b = (str(FILES / name) for name in ("cubic_a.iet", "cubic_b.iet"))
    assert run(capsys, ["compose", "--iet", a, "--iet2", a])[0] == 0
    assert counts == {"init": 1, "eq": 0}
    assert run(capsys, ["compose", "--iet", a, "--iet2", b])[0] == 0
    assert counts["init"] == 3 and counts["eq"] >= 1


# -- in-process calls against separate runs, and the golden ay reports -------------


def test_in_process_calls_match_separate_runs(capsys):
    """No option of one in-process call leaks into the next."""
    calls = [
        ["vanishing", "--minpoly", "-1,-1,-1,1", "--json"],
        ["ay", "--genus", "3", "--check"],
        ["vanishing", "--minpoly", "-1,-1,-1,1"],
    ]
    in_process = [run(capsys, argv)[:2] for argv in calls]
    env = dict(os.environ,
               PYTHONPATH=str(Path(ietsaf.__file__).resolve().parents[1]))
    for argv, (code, out) in zip(calls, in_process):
        proc = subprocess.run([sys.executable, "-m", "ietsaf.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (code, out)
    assert in_process[0][1].startswith("{") and in_process[2][1].startswith("minimal")


GOLDEN = DATA / "ay_check_json.json"


@pytest.mark.parametrize("genus", [*range(3, 15), 19, 30, 40, 60, 80, 120])
def test_ay_check_json_matches_golden(genus, capsys):
    """`ay --genus g --check --json` stdout, recorded before the integer-vector
    field and the trusted IET builder (g <= 14), before the exact integer
    enclosure (g = 19, 30, 40, where signs bisect), before the power-table
    enclosure (g = 60, 80) and before products were reduced by division by
    the monic modulus (g = 120): intervals and offsets byte-identical.  The
    last key, `notes`, was added later: the irreducibility note at g = 19,
    40, 80 and 120."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[str(genus)]
    code, out, _ = run(capsys, ["ay", "--genus", str(genus), "--check", "--json"])
    assert code == 0
    assert out == golden


def test_ay_genus_40_float_and_lift_file_match_golden(tmp_path, capsys):
    """`ay --genus 40 --check --float --out`: approx narrows the interval to
    about 2^-84 before the lift file is written, so the file's root interval
    pins every bisection of the run; recorded before the exact enclosure."""
    lift = tmp_path / "ay40.iet"
    code, out, _ = run(capsys, ["ay", "--genus", "40", "--check", "--float",
                                "--out", str(lift)])
    assert code == 0
    assert out == (DATA / "ay40_check_float.txt").read_text(encoding="utf-8")
    assert lift.read_text(encoding="utf-8") == (DATA / "ay40_lift.iet").read_text(
        encoding="utf-8")


VANISHING_GOLDEN = json.loads((DATA / "vanishing_json.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(VANISHING_GOLDEN))
def test_vanishing_matches_golden(name, capsys):
    """`vanishing --json` on the AY stretch polynomials g = 2..40, Lehmer's
    polynomial, x^3 - x - 3 and a reducible quintic of index 1, and the
    exit 2 of a reducible quintic whose trace polynomial has degree 4:
    recorded before the field-degree criterion moved to the resultant."""
    case = VANISHING_GOLDEN[name]
    code, out, err = run(capsys, case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])
    assert [line for line in err.splitlines(True)
            if not line.startswith("elapsed:")] == case["stderr"].splitlines(True)


HUMAN_GOLDEN = json.loads((DATA / "human_text.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(HUMAN_GOLDEN))
def test_human_text_matches_golden(name, capsys):
    """Human-readable stdout of `vanishing` (AY g = 3 and 19, x^2 - 3x + 1,
    x - 2, a supplied interval), `nonlift` with and without `--oracle`,
    `saf` with and without `--float`, and `ay --check`: recorded before the
    commands stopped building text under `--json`.  `{data}` in an argument
    stands for this test data directory."""
    case = HUMAN_GOLDEN[name]
    argv = [arg.replace("{data}", str(DATA)) for arg in case["argv"]]
    code, out, err = run(capsys, argv)
    assert (code, out) == (case["exit"], case["stdout"])
    assert [line for line in err.splitlines(True)
            if not line.startswith("elapsed:")] == case["stderr"].splitlines(True)


ERROR_GOLDEN = json.loads((DATA / "error_lines.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(ERROR_GOLDEN))
def test_error_lines_match_golden(name, capsys):
    """Exit code, empty stdout and the `error:` line of `vanishing` and
    `nonlift` on invalid polynomials, intervals and genera."""
    case = ERROR_GOLDEN[name]
    code, out, err = run(capsys, case["argv"])
    assert (code, out) == (case["exit"], "")
    assert [line for line in err.splitlines(True)
            if not line.startswith("elapsed:")] == case["stderr"].splitlines(True)


IET_ERROR_GOLDEN = json.loads(
    (DATA / "iet_error_lines.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(IET_ERROR_GOLDEN))
def test_iet_file_error_lines_match_golden(name, tmp_path, capsys):
    """Exit code, empty stdout and the `error:` line of `saf FILE` on IET
    files with a bad modulus, root interval, lengths or perm: recorded
    before the field and the certificates shared one polynomial check.
    The file with both a bad perm and a non-boolean circle flag was
    recorded while the reader still checked perm itself."""
    case = IET_ERROR_GOLDEN[name]
    path = tmp_path / "bad.iet"
    path.write_text(json.dumps(case["iet"]), encoding="utf-8")
    code, out, err = run(capsys, ["saf", str(path)])
    assert (code, out) == (case["exit"], "")
    assert [line for line in err.splitlines(True)
            if not line.startswith("elapsed:")] == case["stderr"].splitlines(True)


STRETCH_GOLDEN = json.loads(
    (DATA / "stretch_verdicts_json.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(STRETCH_GOLDEN))
def test_stretch_verdicts_match_golden(name, capsys):
    """`vanishing --json` and `nonlift --json` (genus d + 2) on Lehmer's
    polynomial, the AY stretch polynomials g = 19, 21 and 22, which every
    trial prime misses, x^4 - 10x^2 + 1 and the reciprocal quartic
    x^4 - x^3 - x^2 - x + 1: recorded before the early rejections in
    Rabin's test (`polys._irreducible_mod`) and `trace_minpoly`."""
    case = STRETCH_GOLDEN[name]
    code, out, err = run(capsys, case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])
    assert [line for line in err.splitlines(True)
            if not line.startswith("elapsed:")] == case["stderr"].splitlines(True)


@pytest.mark.parametrize("argv", [
    ["ay", "--genus", "2"],
    ["ay", "--genus", "2", "--check"],
    ["ay", "--genus", "-1", "--check", "--json"],
])
def test_ay_below_genus_3_exits_2(argv, capsys):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == "error: construction requires genus >= 3"


@pytest.mark.parametrize("argv", [
    ["vanishing", "--minpoly", "-1,-1,-1,1", "--json"],
    ["nonlift", "--minpoly", "1,-3,1", "--genus", "4", "--oracle", "--json"],
    ["ay", "--genus", "3", "--check", "--json"],
])
def test_json_runs_format_no_human_text(argv, monkeypatch, capsys):
    """Under `--json` only the report is built: no polynomial is formatted
    for a human line that would not be printed."""
    def refuse(self):
        raise AssertionError("Poly.__str__ called under --json")

    monkeypatch.setattr(Poly, "__str__", refuse)
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert json.loads(out)["command"] == argv[0]


def test_float_refines_the_lift_file_with_or_without_json(tmp_path, capsys):
    """`--float` narrows the root interval before `--out` writes the lift,
    and `--json` leaves that as it is."""
    files = []
    for extra in ([], ["--json"]):
        path = tmp_path / f"lift{len(files)}.iet"
        code, _, _ = run(capsys, ["ay", "--genus", "5", "--check", "--float",
                                  "--out", str(path), *extra])
        assert code == 0
        files.append(path.read_text(encoding="utf-8"))
    assert files[0] == files[1]
    assert files[0] != dumps_iet(ay_lift(5))


FILE_COMMANDS = json.loads((FILES / "commands.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(FILE_COMMANDS))
def test_file_commands_match_golden(name, tmp_path, monkeypatch, capsys):
    """`--out` files of `compose` (same and different field text), `invert`,
    `lift` and `induce --sub`, and the stdout of `saf --json`, on
    hand-written cubic and quartic files with negative, fractional and
    unreduced (`+6/4`) coordinates; recorded before coordinates were read
    and written as ints.  `{out}` in an argument stands for the output file."""
    monkeypatch.chdir(FILES)
    out = tmp_path / name
    argv = [arg.replace("{out}", str(out)) for arg in FILE_COMMANDS[name]]
    code, stdout, err = run(capsys, argv)
    assert code == 0, err
    text = out.read_text(encoding="utf-8") if "{out}" in FILE_COMMANDS[name] else stdout
    assert text == (FILES / "expected" / name).read_text(encoding="utf-8")


def test_lift_of_an_interval_map_exits_2(monkeypatch, capsys):
    monkeypatch.chdir(FILES)
    code, out, err = run(capsys, ["lift", "--iet", "cubic_a.iet"])
    assert (code, out) == (2, "")
    assert err.startswith("error: rotation requires circle semantics\n")


def test_float_output_keeps_the_callers_decimal_precision(capsys):
    """`--float` renders with its own precision and leaves the caller's
    decimal context as it was."""
    with decimal.localcontext() as context:
        context.prec = 28
        code, out, _ = run(capsys, ["ay", "--genus", "3", "--check", "--float"])
        assert code == 0 and "alpha ~ " in out
        assert decimal.getcontext().prec == 28


HELP_GOLDEN = json.loads((DATA / "help.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(HELP_GOLDEN))
def test_help_matches_golden(name, monkeypatch, capsys):
    """`ietsaf --help` and `ietsaf <command> --help` at 80 columns: the
    prog, description, usage lines and every option's help text, recorded
    before the argument tree was built from a command table."""
    monkeypatch.setenv("COLUMNS", "80")
    case = HELP_GOLDEN[name]
    with pytest.raises(SystemExit) as info:
        cli.main(case["argv"])
    assert (info.value.code, capsys.readouterr().out) == (case["exit"], case["stdout"])


# -- the command table: the exact match, and argparse for every other argv ---------


def test_well_formed_lines_never_build_the_argparse_tree(ay3, tmp_path, monkeypatch,
                                                         capsys):
    """Every argv of SUBCOMMANDS, of the error-line golden and of the file
    goldens is taken by `_match`: with the argparse tree made unbuildable,
    each gives the exit code, stdout, stderr and --out file it gives when
    argparse parses it."""
    monkeypatch.chdir(FILES)
    out = tmp_path / "out.iet"
    argvs = ([command(name, ay3, str(out)) for name in SUBCOMMANDS]
             + [case["argv"] for case in ERROR_GOLDEN.values()]
             + [[arg.replace("{out}", str(out)) for arg in argv]
                for argv in FILE_COMMANDS.values()])

    def outcome(argv):
        out.unlink(missing_ok=True)
        code, stdout, err = run(capsys, argv)
        return (code, stdout, [line for line in err.splitlines()
                               if not line.startswith("elapsed:")],
                out.read_text(encoding="utf-8") if out.exists() else None)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_match", lambda argv: None)
        by_argparse = [outcome(argv) for argv in argvs]

    def refuse():
        raise AssertionError("argparse tree built for a well-formed argv")

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", refuse)
    assert [outcome(argv) for argv in argvs] == by_argparse


def test_a_well_formed_command_does_not_load_argparse():
    probe = ("import sys; from ietsaf import cli; "
             "code = cli.main(['vanishing', '--minpoly', '-1,-1,-1,1', '--json']); "
             "print(code, 'argparse' in sys.modules)")
    env = dict(os.environ,
               PYTHONPATH=str(Path(ietsaf.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=env, check=True)
    assert result.stdout.splitlines()[-1] == "0 False"


def test_an_abbreviated_option_falls_back_to_argparse(capsys):
    abbreviated = ["vanishing", "--min=-1,-1,-1,1"]
    assert cli._match(abbreviated) is None
    code, out = _same_as_joined(capsys, abbreviated, ["vanishing", "--minpoly=-1,-1,-1,1"])
    assert code == 0 and out.startswith("minimal polynomial: ")


def test_a_bad_int_is_argparses_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["nonlift", "--minpoly=-1,-1,-1,1", "--genus=x"])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    assert err.splitlines()[0].startswith("usage: ietsaf nonlift ")
    assert err.splitlines()[-1] == (
        "ietsaf nonlift: error: argument --genus: invalid int value: 'x'")


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is an optional test dependency
    given = None

# Pieces of each command's well-formed lines: a value joined by '=' or as
# a separate token (the pairs), signed ints and underscores, spaces.
OWN_PIECES = {
    "saf": ["f.iet", "--json", "--float"],
    "vanishing": [("--minpoly", "-1,-1,-1,1"), "--minpoly=1,-3,1", ("--interval", "1,2"),
                  "--json"],
    "nonlift": [("--minpoly", "1,-3,1"), ("--genus", "3"), "--genus=+4", "--oracle",
                "--json"],
    "ay": [("--genus", " 3"), "--genus=1_0", "--check", ("--out", "o.iet"), "--json",
           "--float"],
    "induce": [("--iet", "a b.iet"), ("--sub", "-1/2,1,0"), "--out=o.iet"],
    "lift": [("--iet", "f.iet"), ("--out", "o.iet")],
    "compose": [("--iet", "f.iet"), "--iet2=g.iet", ("--out", "o.iet")],
    "invert": ["--iet=f.iet", ("--out", "")],
}
# Pieces of any command line: every command and option, abbreviations,
# help, version, '--', '-', values that start with '-', bad ints and
# empty values.  Repeated options come from repeated draws.
ARGV_PIECES = [
    *OWN_PIECES, "--json", "--float", "--oracle", "--check", "--minpoly", "--interval",
    "--genus", "--out", "--iet", "--iet2", "--sub", ("--out", "-x"), ("--iet", "--json"),
    ("--genus", "-2"), "--genus=-2", ("--genus", "x"), "--genus=", "--interval=-1, 2",
    "--json=", "--min=-1,-1,-1,1", "--js", ("--gen", "3"), "--i", "-h", "--help",
    "--version", "--", "-", "-1", "-x", "a b", "3", "",
]


def _flatten(pieces):
    return [token for piece in pieces
            for token in (piece if isinstance(piece, tuple) else (piece,))]


if given is None:

    def test_match_agrees_with_argparse():
        pytest.skip("hypothesis is not installed")

else:

    @st.composite
    def command_lines(draw):
        """A command, some of its own pieces and, in half the lines, one or
        two of any command's."""
        name = draw(st.sampled_from(sorted(OWN_PIECES)))
        pieces = (draw(st.lists(st.sampled_from(OWN_PIECES[name]), unique=True))
                  + draw(st.one_of(st.just([]), st.lists(st.sampled_from(ARGV_PIECES),
                                                         min_size=1, max_size=2))))
        return [name, *_flatten(draw(st.permutations(pieces)))]

    @settings(max_examples=1000, deadline=None)
    @given(command_lines())
    def test_match_agrees_with_argparse(argv):
        """Whenever `_match` takes an argv, argparse takes it too, without
        an exit, and gives a namespace with the same attributes."""
        argv = cli._join_signed_values(argv)
        args = cli._match(argv)
        if args is not None:
            try:
                expected = vars(cli._parser().parse_args(argv))
            except SystemExit:
                expected = "argparse exits"
            assert vars(args) == expected
