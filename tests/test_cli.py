"""Command-line behavior: golden outputs, exit codes, config handling."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import nearfields
from nearfields.cli import _build_parser, main

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    (["exotic-add", "1", "1", "--json"], "exotic_add_1_1.json"),
    (["exotic-add", "12/35", "18/25", "--json"], "exotic_add_12_35_18_25.json"),
    (["enumerate-additions", "--field", "f9", "--json"], "enumerate_f9.json"),
    (["sigma", "--json", "6/5"], "sigma_6_5.json"),
    (
        ["char-map", "--carrier", "q", "--addition", "exotic", "--bound", "12", "--json"],
        "char_map_exotic_12.json",
    ),
    (["qmc-check", "--field", "f9", "--map", "scale:4", "--json"], "qmc_scale4_f9.json"),
    (["verify-rho", "--carrier", "f9", "--addition", "a=5", "--json"], "verify_rho_f9_a5.json"),
    (["factor-quad", "7", "3", "--den", "10", "--json"], "factor_quad_7_3_den10.json"),
    (["factor-int", "-360", "--json"], "factor_int_neg360.json"),
    (["factor-rat", "--json", "--", "-9/4"], "factor_rat_neg9_4.json"),
    (["sigma-inv", "8", "2", "--den", "5", "--json"], "sigma_inv_8_2_den5.json"),
    (
        ["endoq", "12/35", "--perm", "2:3,3:2", "--eta", "5:-1", "--nu", "7:-1", "--json"],
        "endoq_12_35_twists.json",
    ),
    (
        ["nvs-verify", "--field", "f9", "--psi", "pow:5", "--phi", "pow:3", "--json"],
        "nvs_verify_f9_pow5_pow3.json",
    ),
    (
        ["isom-check", "--field", "f27", "--a1", "native", "--a2", "5", "--json"],
        "isom_check_f27_native_5.json",
    ),
    (["modnear-check", "--json"], "modnear_check.json"),
    # the last two pairs of the default bitmap: a select and a rank among
    # the split primes in its last, partial block
    (
        ["sigma", "--json", "--height-bound", "50000000", "49988849/49988843"],
        "sigma_49988849_49988843.json",
    ),
    (["sigma-inv", "5367", "1591", "--json"], "sigma_inv_5367_1591.json"),
]

BROKEN_F4_TABLE = "table:0,1,2,3,1,0,2,3,2,3,0,1,3,2,1,0"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_golden_outputs_byte_identical(capsys):
    for argv, name in GOLDEN_CASES:
        code, out, _ = _run(capsys, argv)
        assert code == 0, argv
        assert out == (GOLDEN / name).read_text(), argv


def test_golden_lists_agree():
    # The goldens on disk, GOLDEN_CASES and CI's check of the installed
    # entry point name the same files with the same argv, so a golden added
    # to one list cannot miss the others.
    workflow = Path(__file__).parent.parent / ".github" / "workflows" / "tests.yml"
    ci = {}
    for line in workflow.read_text().splitlines():
        command, sep, target = line.partition("| diff - tests/golden/")
        if not sep:
            continue
        argv = shlex.split(command)
        prefix = 1 if argv[0] == "nearfields" else 3
        assert argv[:prefix] in (["nearfields"], ["python", "-m", "nearfields"]), line
        name = target.strip()
        assert name not in ci, name
        ci[name] = argv[prefix:]
    cases = dict((name, argv) for argv, name in GOLDEN_CASES)
    assert len(cases) == len(GOLDEN_CASES) == 17
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(cases)
    assert ci == cases


def test_reruns_are_deterministic(capsys):
    argv = ["char-map", "--carrier", "q", "--addition", "exotic", "--bound", "10", "--json"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_known_sums_and_images(capsys):
    code, out, _ = _run(capsys, ["exotic-add", "--json", "--", "1/3", "1/5"])
    assert code == 0 and json.loads(out)["result"] == "31/15"
    code, out, _ = _run(capsys, ["exotic-add", "--json", "--", "-2", "-1"])
    assert code == 0 and json.loads(out)["result"] == "-13"
    code, out, _ = _run(capsys, ["exotic-add", "--json", "1", "2"])
    assert code == 0 and json.loads(out)["result"] == "13"
    code, out, _ = _run(capsys, ["sigma-inv", "--json", "8", "2", "--den", "5"])
    assert code == 0 and json.loads(out)["result"] == "6/5"
    code, out, _ = _run(capsys, ["endoq", "--json", "12", "--perm", "2:3,3:2"])
    assert code == 0 and json.loads(out)["result"] == "18"


def test_enumeration_classes_for_f9(capsys):
    code, out, _ = _run(capsys, ["enumerate-additions", "--field", "f9", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == [[1, 3], [5, 7]]
    assert payload["distinct_tables"] == 2


def test_every_subcommand_has_schema_one(capsys):
    quick = [
        ["factor-int", "--json", "12"],
        ["factor-rat", "--json", "31/15"],
        ["factor-quad", "--json", "8", "2", "--den", "5"],
        ["sigma", "--json", "6/5"],
        ["sigma-inv", "--json", "0", "1"],
        ["exotic-add", "--json", "1", "1"],
        ["endoq", "--json", "12"],
        ["verify-rho", "--json", "--carrier", "f4"],
        ["char-map", "--json", "--carrier", "f4", "--bound", "8"],
        ["enumerate-additions", "--json", "--field", "f4"],
        ["isom-check", "--json", "--field", "f9", "--a1", "1", "--a2", "5"],
        ["modnear-check", "--json"],
        ["nvs-verify", "--json", "--field", "f9", "--psi", "id", "--phi", "pow:3"],
        ["qmc-check", "--json", "--field", "f9", "--map", "id"],
        ["epsilon", "--json", "--alpha", "2", "--z", "1+1j"],
    ]
    for argv in quick:
        code, out, _ = _run(capsys, argv)
        assert code == 0, argv
        payload = json.loads(out)
        assert payload["schema"] == 1 and payload["ok"] is True, argv


def test_failing_verification_exits_one(capsys):
    code, out, _ = _run(
        capsys, ["verify-rho", "--carrier", "f4", "--addition", BROKEN_F4_TABLE, "--json"]
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    bad = [c for c in payload["report"]["checks"] if not c["ok"]]
    assert bad and all(c["witness"] is not None for c in bad)


def test_usage_errors_exit_two(capsys):
    cases = [
        ["enumerate-additions", "--field", "f11"],
        ["verify-rho", "--carrier", "f9", "--addition", "exotic"],
        ["verify-rho", "--carrier", "q", "--addition", "a=5"],
        ["verify-rho", "--carrier", "f4", "--addition", "table:0,1,2"],
        ["qmc-check", "--field", "f9", "--map", "table:0,0,0,0,0,0,0,0,0"],
        ["nvs-verify", "--field", "f9", "--psi", "scale:99", "--phi", "id"],
        ["nvs-verify", "--field", "f9", "--psi", "id", "--phi", "scale:2"],
        ["factor-int", "0"],
        ["epsilon", "--alpha", "1j", "--z", "1"],
        # not finite: alpha, z, beta = 1 / 1e-320, and r**alpha
        ["epsilon", "--json", "--alpha", "nan", "--z", "1"],
        ["epsilon", "--json", "--alpha", "1", "--z", "inf"],
        ["epsilon", "--json", "--alpha", "1e-320", "--z", "2"],
        ["epsilon", "--json", "--alpha", "1000", "--z", "1e10"],
    ]
    for argv in cases:
        code, out, err = _run(capsys, argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error:"), argv


def test_malformed_input_exits_two(capsys, tmp_path, monkeypatch):
    # Exit 1 means a failed verification; input that does not parse is a
    # usage error, reported on stderr without a traceback.
    cases = [
        ["factor-int", "abc"],
        ["exotic-add", "x", "1"],
        ["exotic-add", "1/0", "1"],
        ["epsilon", "--alpha", "zz", "--z", "1"],
        ["endoq", "12", "--perm", "2"],
        ["nvs-verify", "--field", "f9", "--psi", "pow:x", "--phi", "id"],
        ["verify-rho", "--carrier", "f9", "--addition", "a=x"],
        ["verify-rho", "--carrier", "q", "--seed", "-1"],
    ]
    for argv in cases:
        code, out, err = _run(capsys, argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error:"), argv
    cfg = tmp_path / "cfg.json"
    for content in (None, "{", '{"seed": "x"}', "[1]"):
        if content is not None:
            cfg.write_text(content)
        monkeypatch.setenv("NEARFIELDS_CONFIG", str(cfg))
        code, out, err = _run(capsys, ["verify-rho", "--carrier", "q"])
        assert code == 2, content
        assert out == "" and err.startswith("error:"), content


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_height_gate_and_norm_ceiling(capsys):
    big = str(10**7)
    code, _, err = _run(capsys, ["exotic-add", big, "1"])
    assert code == 2 and "height" in err
    code, _, err = _run(capsys, ["exotic-add", "1", big, "--height-bound", str(10**8)])
    assert code == 0
    code, _, err = _run(
        capsys, ["exotic-add", "--norm-ceiling", "10", "--", "9973/2", "9967/3"]
    )
    assert code == 2 and err


def test_verify_rho_refuses_rather_than_pass_on_skipped_pairs(capsys):
    # At sum-norm ceiling 1 nearly every exotic sum is refused; the check
    # must not pass on the few pairs that need no sum.
    argv = ["verify-rho", "--carrier", "q", "--addition", "exotic", "--trials", "50"]
    code, out, err = _run(capsys, argv + ["--norm-ceiling", "1", "--json"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "ceiling 1" in err, err
    code, out, _ = _run(capsys, argv + ["--json"])
    assert code == 0
    assert json.loads(out)["report"]["counts"] == {"pairs": 50, "skipped": 0}


def test_char_map_refuses_a_bound_past_its_ceiling(capsys):
    code, out, err = _run(capsys, ["char-map", "--carrier", "f9", "--bound", "100001"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "ceiling 100000" in err, err


def test_char_map_bound_below_the_characteristic_is_a_usage_error(capsys):
    code, out, err = _run(capsys, ["char-map", "--carrier", "f25", "--bound", "3"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "past the bound" in err, err
    code, out, _ = _run(capsys, ["char-map", "--carrier", "f25", "--bound", "5", "--json"])
    assert code == 0 and json.loads(out)["characteristic"] == 5


def test_scale_index_outside_the_carrier_is_a_usage_error(capsys):
    for c, argv in (
        (99, ["nvs-verify", "--field", "f9", "--psi", "scale:99", "--phi", "id"]),
        (9, ["qmc-check", "--field", "f9", "--map", "scale:9"]),
        (-1, ["qmc-check", "--field", "f9", "--map", "scale:-1"]),
    ):
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == "", argv
        assert err == f"error: scale index {c} outside the carrier\n", argv


def test_norm_ceiling_gates_sigma_inv_and_factor_quad(capsys):
    # (8 + 2w)/5 has norm 100/25 = 4: admitted at ceiling 4, refused at 3.
    pinned = {
        "sigma-inv": '{"command":"sigma-inv","input":[8,2,5],"ok":true,"result":"6/5","schema":1}\n',
        "factor-quad": '{"command":"factor-quad","input":[8,2,5],"ok":true,'
        '"result":{"factors":[[[2,0],1],[[-1,1],1],[[0,1],-1]],"unit":1},"schema":1}\n',
    }
    for command, expected in pinned.items():
        argv = [command, "--json", "8", "2", "--den", "5"]
        for extra in ([], ["--norm-ceiling", "4"]):
            code, out, err = _run(capsys, argv + extra)
            assert code == 0 and out == expected and err == "", (argv, extra)
        code, out, err = _run(capsys, argv + ["--norm-ceiling", "3"])
        assert code == 2 and out == "", argv
        assert "norm 4" in err and "ceiling 3" in err, err
        # The norm is the square of a 41-digit semiprime: far past the default
        # ceiling, so the command refuses before any factoring starts.
        semiprime = str(100000000000000000039 * 100000000000000000129)
        code, out, err = _run(capsys, [command, semiprime, "0"])
        assert code == 2 and out == "", command
        assert f"ceiling {10**12}" in err, err


def test_config_file_defaults_and_flag_precedence(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "trials": 40, "output": "json"}))
    monkeypatch.setenv("NEARFIELDS_CONFIG", str(cfg))
    code, out, _ = _run(capsys, ["verify-rho", "--carrier", "q"])
    assert code == 0
    assert json.loads(out)["report"]["counts"]["pairs"] == 40
    code, out, _ = _run(capsys, ["verify-rho", "--carrier", "q", "--trials", "25"])
    assert json.loads(out)["report"]["counts"]["pairs"] == 25

    cfg.write_text(json.dumps({"no_such_key": 1}))
    code, _, err = _run(capsys, ["exotic-add", "1", "1"])
    assert code == 2 and "no_such_key" in err


def test_text_mode_renders_reports(capsys):
    code, out, _ = _run(capsys, ["verify-rho", "--carrier", "f9", "--addition", "a=5"])
    assert code == 0
    assert "rho axioms" in out and "[ok  ] identity_property" in out
    code, out, _ = _run(capsys, ["enumerate-additions", "--field", "f9"])
    assert "- [1, 3]" in out and "- [5, 7]" in out


def test_reports_go_to_stdout_errors_to_stderr(capsys):
    code, out, err = _run(capsys, ["exotic-add", "1", "1", "--json"])
    assert code == 0 and out and err == ""
    code, out, err = _run(capsys, ["enumerate-additions", "--field", "f99"])
    assert code == 2 and out == "" and err != ""


# Which subcommands take each tuning flag; every other subcommand rejects it.
FLAG_COMMANDS = {
    "--seed": {"verify-rho", "char-map"},
    "--trials": {"verify-rho"},
    "--height-bound": {"sigma", "exotic-add", "verify-rho"},
    "--norm-ceiling": {"factor-quad", "sigma-inv", "exotic-add", "verify-rho", "char-map"},
}

MINIMAL_ARGV = {
    "factor-int": ["12"],
    "factor-rat": ["1/2"],
    "factor-quad": ["8", "2"],
    "sigma": ["6/5"],
    "sigma-inv": ["8", "2"],
    "exotic-add": ["1", "2"],
    "endoq": ["12"],
    "verify-rho": ["--carrier", "f4"],
    "char-map": ["--carrier", "f4"],
    "enumerate-additions": ["--field", "f4"],
    "isom-check": ["--field", "f9", "--a1", "1", "--a2", "5"],
    "modnear-check": [],
    "nvs-verify": ["--field", "f9", "--psi", "id", "--phi", "id"],
    "qmc-check": ["--field", "f9", "--map", "id"],
    "epsilon": ["--alpha", "2", "--z", "1"],
}


def test_tuning_flags_only_where_they_apply(capsys):
    parser = _build_parser()
    for command, argv in MINIMAL_ARGV.items():
        for flag, takers in FLAG_COMMANDS.items():
            if command in takers:
                args = parser.parse_args([command, *argv, flag, "7"])
                assert getattr(args, flag[2:].replace("-", "_")) == 7
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args([command, *argv, flag, "7"])
                assert exc.value.code == 2, (command, flag)
                assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["factor-int", "12", "--seed", "3"])
    assert exc.value.code == 2


def test_config_file_keys_reach_commands_without_the_flag(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "trials": 40, "height_bound": 1, "norm_ceiling": 3}))
    monkeypatch.setenv("NEARFIELDS_CONFIG", str(cfg))
    code, out, err = _run(capsys, ["exotic-add", "1", "2"])
    assert code == 2 and "exceeds the bound 1" in err
    code, out, err = _run(capsys, ["factor-quad", "8", "2", "--den", "5"])
    assert code == 2 and "ceiling 3" in err
    code, out, err = _run(capsys, ["factor-int", "--json", "12"])
    assert code == 0 and json.loads(out)["result"]["factors"] == [[2, 2], [3, 1]]


def _cut_report(argv, unbuffered):
    """Run the CLI, read the first 400 bytes of its output and close the
    pipe; return the exit status, stderr and the bytes read."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(nearfields.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "nearfields", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(400)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err, head


@pytest.mark.parametrize("mode", [["--json"], []])
def test_reader_closing_early_exits_without_a_traceback(mode):
    # Like `nearfields char-map ... | head -c 400`: the output (about 1 MB)
    # outgrows the pipe, so the write meets a closed reader.
    code, err, head = _cut_report(["char-map", "--carrier", "q", "--bound", "20000", *mode], False)
    assert code == 1
    assert err == b""
    assert len(head) == 400


@pytest.mark.parametrize("mode", [["--json"], []])
def test_reader_closing_early_exits_one_when_unbuffered(mode):
    # Unbuffered, a write to the pipe can come back short once the reader
    # has left; the report must still count as cut, not as written.
    code, err, head = _cut_report(["char-map", "--carrier", "q", "--bound", "20000", *mode], True)
    assert code == 1
    assert err == b""
    assert len(head) == 400
