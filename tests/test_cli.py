"""The command line contract: exit codes, stable stdout, argument forms."""

import json

import pytest

from ietsaf import ay_lift, cli, dumps_iet
from ietsaf.errors import IterationCapError


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
        "vanishing": ["vanishing", "--minpoly", "-1,-1,-1,1", "--float"],
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


def test_malformed_iet_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.iet"
    path.write_text('{"modulus": "-1,1,1,1"\n', encoding="utf-8")
    code, out, err = run(capsys, ["saf", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid IET file")


def test_iteration_cap_exits_3(monkeypatch, capsys):
    def give_up(*args, **kwargs):
        raise IterationCapError("cap exceeded")

    monkeypatch.setattr(cli, "vanishing_by_reciprocity", give_up)
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
    assert json.loads(out)["all_pass"] is True


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
