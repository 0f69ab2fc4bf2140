import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from dataclasses import dataclass

import numpy as np
import pytest

import torusphase
from torusphase import cli, transforms, verify
from torusphase.cli import main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str


@pytest.fixture()
def runner(capsys, monkeypatch):
    return capsys, monkeypatch


def invoke(runner, args, env=None):
    """Run `main` in this process on `args`, with `env` set for the call only."""
    capsys, monkeypatch = runner
    capsys.readouterr()
    with monkeypatch.context() as patch:
        for key, value in (env or {}).items():
            patch.setenv(key, value)
        with pytest.raises(SystemExit) as stop:
            main(args, prog_name="torusphase")
    out, err = capsys.readouterr()
    return Result(stop.value.code, out, err)


def test_gen_fourier_d2_exact(runner):
    res = invoke(runner, ["gen", "--d", "2", "--kind", "fourier"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    rows = np.asarray(doc["rows"])
    mat = rows[..., 0] + 1j * rows[..., 1]
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(mat, [[s, s], [s, -s]], atol=1e-12)


def test_gen_warns_on_composite_dimension(runner):
    res = invoke(runner, ["gen", "--d", "4", "--kind", "u"])
    assert res.exit_code == 0
    assert "not prime" in res.stderr
    doc = json.loads(res.stdout)
    assert doc["dim"] == 4


def test_gen_schwinger_requires_label(runner):
    res = invoke(runner, ["gen", "--d", "3", "--kind", "schwinger"])
    assert res.exit_code == 2
    res = invoke(runner, ["gen", "--d", "3", "--kind", "schwinger", "--m", "1,1"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["m"] == [1, 1]


def test_gen_csv_format(runner):
    res = invoke(runner, ["gen", "--d", "2", "--kind", "v", "--format", "csv"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "# D=2"
    assert lines[1] == "# kind=v"
    assert lines[2] == "i,j,re,im"
    assert len(lines) == 3 + 4


def test_gen_rejects_tiny_dimension(runner):
    res = invoke(runner, ["gen", "--d", "1", "--kind", "u"])
    assert res.exit_code == 2


def test_verify_suite_passes_at_prime(runner):
    res = invoke(runner, ["verify", "--d", "5", "--suite", "schwinger"])
    assert res.exit_code == 0
    assert res.stdout.startswith("suite=schwinger D=5 tol=")
    assert res.stdout.rstrip().splitlines()[-1].startswith("PASS:")


def test_verify_tolerance_env_override(runner):
    res = invoke(runner, ["verify", "--d", "3", "--suite", "wigner"],
                 env={"TORUSPHASE_TOL": "1e-30"})
    assert res.exit_code == 1
    assert f"tol={1e-30:.16e}" in res.stdout
    assert res.stdout.rstrip().splitlines()[-1].startswith("FAIL:")


def test_verify_malformed_tolerance_env_exits_2(runner):
    res = invoke(runner, ["verify", "--d", "3", "--suite", "wigner"],
                 env={"TORUSPHASE_TOL": "1e-1O"})
    assert res.exit_code == 2
    assert "TORUSPHASE_TOL='1e-1O'" in res.stderr


def test_verify_fock_suite(runner):
    res = invoke(runner, ["verify", "--d", "7", "--suite", "fock"])
    assert res.exit_code == 0
    assert res.stdout.startswith("suite=fock D=7 tol=")
    assert res.stdout.rstrip().splitlines()[-1] == "PASS: 6 checks, 0 failed"


def test_verify_transforms_composite_exits_2(runner):
    res = invoke(runner, ["verify", "--d", "4", "--suite", "transforms"])
    assert res.exit_code == 2
    assert "DegenerateSpectrumError" in res.stderr


def test_wigner_fock_state_csv(runner):
    res = invoke(runner, ["wigner", "--d", "3", "--state", "fock:0"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert "V1,V2,W" in lines
    data = [l for l in lines if not l.startswith("#") and not l.startswith("V1")]
    total = sum(float(l.split(",")[2]) for l in data)
    assert abs(total - 1.0) < 1e-10


def test_wigner_even_dimension_not_real_exits_2(runner):
    res = invoke(runner, ["wigner", "--d", "4", "--state", "random:3"])
    assert res.exit_code == 2
    assert "error: NonRealWignerError: " in res.stderr
    assert res.stdout == ""


def test_wigner_number_phase_mass(runner):
    res = invoke(runner, ["wigner", "--d", "5", "--state", "fock:2",
                          "--basis", "number-phase", "--format", "json"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    w = np.asarray(doc["values"])
    assert abs(w.sum() * (2 * np.pi / 5) - 1.0) < 1e-10


def test_wigner_decompose_requires_number_phase(runner):
    res = invoke(runner, ["wigner", "--d", "3", "--state", "fock:0", "--decompose"])
    assert res.exit_code == 2


def test_wigner_decompose_emits_both_parts(runner):
    res = invoke(runner, ["wigner", "--d", "3", "--state", "random:7",
                          "--basis", "number-phase", "--decompose"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert "J,theta,W_even,W_odd" in lines


def test_wigner_malformed_state_spec(runner):
    res = invoke(runner, ["wigner", "--d", "3", "--state", "bogus:1"])
    assert res.exit_code == 2


def test_wigner_missing_state_file(runner):
    res = invoke(runner, ["wigner", "--d", "3", "--state", "file:/no/such/file.json"])
    assert res.exit_code == 3


def test_wigner_state_file_round_trip(runner, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    res = invoke(runner, ["wigner", "--d", "3", "--state", f"file:{path}"])
    assert res.exit_code == 0


def test_spectrum_frozen_values_d3(runner):
    res = invoke(runner, ["spectrum", "--d", "3", "--m", "1,0", "--mp", "0,1",
                          "--format", "json"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    c = 2.0 / np.sqrt(3.0)
    assert abs(doc["C"] - c) < 1e-12
    assert np.allclose(sorted(doc["f"]), [c - 1.0, c, c + 1.0], atol=1e-12)


def test_spectrum_collinear_exits_2(runner):
    res = invoke(runner, ["spectrum", "--d", "5", "--m", "1,1", "--mp", "2,2"])
    assert res.exit_code == 2
    assert "CollinearVectorsError" in res.stderr


@pytest.mark.parametrize("args, error", [
    (["spectrum", "--d", "9", "--m", "3,0", "--mp", "0,1"], "DegenerateSpectrumError"),
    (["spectrum", "--d", "9", "--m", "1,0", "--mp", "0,3"], "DegenerateSpectrumError"),
    (["index", "--d", "2", "--case", "oscillator"], "SingularDeformationError"),
    (["index", "--d", "7", "--case", "quarter-cross"], "CaseConditionError"),
    (["converge", "--primes", "4"], "NonPrimeDimensionError"),
    (["transform", "--d", "9", "--r", "1,1,0,1"], "DegenerateSpectrumError"),
    (["index", "--d", "7", "--case", "custom"], "CaseConditionError"),
    # malformed numbers: usage errors (no error class), never a traceback or a PASS
    (["verify", "--d", "3", "--suite", "all", "--samples", "0"], None),
    (["verify", "--d", "3", "--suite", "transforms", "--samples", "0"], None),
    (["verify", "--d", "3", "--suite", "schwinger", "--samples", "-1"], None),
    (["verify", "--d", "4", "--suite", "qosc", "--samples", "0"], None),
    (["verify", "--d", "5", "--suite", "sl2", "--samples", "0"], None),
    (["verify", "--d", "5", "--suite", "wigner", "--samples", "0"], None),
    (["verify", "--d", "5", "--suite", "numberphase", "--samples", "0"], None),
    (["verify", "--d", "3", "--suite", "wigner", "--seed", "-1"], None),
    (["wigner", "--d", "3", "--state", "random:-3"], None),
    (["verify", "--d", "3", "--suite", "wigner", "--tol", "nan"], None),
    (["verify", "--d", "3", "--suite", "wigner", "--tol", "inf"], None),
    (["verify", "--d", "3", "--suite", "wigner", "--tol", "0"], None),
    (["verify", "--d", "3", "--suite", "wigner", "--tol", "-1e-9"], None),
    (["transform", "--d", "5", "--r", "0,-1,1,0", "--tol", "nan"], None),
    (["transform", "--d", "5", "--r", "0,-1,1,0", "--tol", "0"], None),
    (["converge", "--primes", "3,5", "--gamma", "nan"], None),
    (["converge", "--primes", "3,5", "--gamma", "inf"], None),
    (["converge", "--primes", "3,5", "--observable", "wigner", "--gamma", "nan"], None),
    (["gen", "--d", "5", "--kind", "schwinger", "--m", "1,2,3"], None),
    (["transform", "--d", "5", "--r", "0,-1,1"], None),
    # D past the command's bound, refused before any array is allocated
    (["gen", "--d", "99999999999999999999", "--kind", "u"], "DimensionTooLargeError"),
    (["wigner", "--d", "3000000", "--state", "fock:1"], "DimensionTooLargeError"),
    (["verify", "--d", "4097", "--suite", "all"], "DimensionTooLargeError"),
    (["verify", "--d", "4097", "--suite", "numberphase"], "DimensionTooLargeError"),
    (["index", "--d", "4097", "--case", "oscillator"], "DimensionTooLargeError"),
    (["converge", "--primes", "11,100003", "--observable", "wigner"], "DimensionTooLargeError"),
])
def test_refused_inputs_exit_2_with_the_error_class(runner, args, error):
    res = invoke(runner, args)
    assert res.exit_code == 2
    assert "Traceback" not in res.stderr
    errors = [ln for ln in res.stderr.splitlines() if ln.startswith("error: ")]
    if error is None:
        assert res.stdout == "" and errors == []
        assert res.stderr.startswith("Usage: torusphase ")
        assert len([ln for ln in res.stderr.splitlines() if ln.startswith("Error: ")]) == 1
    else:
        assert len(errors) == 1 and errors[0].startswith(f"error: {error}: "), res.stderr


def test_a_dimension_past_the_bound_is_named(runner):
    res = invoke(runner, ["verify", "--d", "4097", "--suite", "schwinger"])
    assert res.exit_code == 2
    assert "error: DimensionTooLargeError: D=4097 is above 4096" in res.stderr


# a 20-digit component overflowed int64 (a traceback); 4e9 wrapped the int64
# cross value 16000000003999999999 into the q and spectrum of the wrong c mod D
@pytest.mark.parametrize("args", [
    ["gen", "--d", "5", "--kind", "schwinger", "--m", "12345678901234567890,1"],
    ["gen", "--d", "5", "--kind", "schwinger", "--m", "1,-4000000000"],
    ["spectrum", "--d", "5", "--m", "12345678901234567890,1", "--mp", "0,1"],
    ["spectrum", "--d", "5", "--m", "4000000000,1", "--mp", "1,4000000001", "--format", "json"],
])
def test_a_label_component_from_2_to_the_31_is_a_usage_error(runner, args):
    res = invoke(runner, args)
    assert res.exit_code == 2 and res.stdout == ""
    assert "Traceback" not in res.stderr
    assert "of magnitude 2^31 or more" in res.stderr.splitlines()[-1], res.stderr


def test_a_label_component_below_2_to_the_31_is_accepted(runner):
    # c = big^2 - 1 = 8 mod 2D: the q and spectrum of the pair (1,0), (0,8)
    big = (1 << 31) - 1
    res = invoke(runner, ["spectrum", "--d", "5", "--m", f"{big},1", "--mp", f"1,{big}",
                          "--format", "json"])
    assert res.exit_code == 0, res.stderr
    doc = json.loads(res.stdout)
    small = json.loads(invoke(runner, ["spectrum", "--d", "5", "--m", "1,0", "--mp", "0,8",
                                       "--format", "json"]).stdout)
    assert doc["cross"] == big * big - 1
    assert (doc["q"], doc["f"]) == (small["q"], small["f"])


@pytest.mark.parametrize("suite", ["wigner", "transforms"])
def test_per_point_kernel_suites_are_refused_past_4096_before_allocating(runner, suite):
    tracemalloc.start()
    try:
        res = invoke(runner, ["verify", "--d", "4097", "--suite", suite])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 2
    assert "error: DimensionTooLargeError: D=4097 is above 4096" in res.stderr
    assert peak < 1 << 20, peak           # one D x D complex array is 268 MB


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_tolerance_env_must_be_positive_and_finite(runner, value):
    res = invoke(runner, ["verify", "--d", "3", "--suite", "wigner"],
                 env={"TORUSPHASE_TOL": value})
    assert res.exit_code == 2
    assert res.stdout == ""
    assert f"TORUSPHASE_TOL={value!r}" in res.stderr


@pytest.mark.parametrize("args, key, value", [
    (["gen", "--d", "5", "--kind", "schwinger", "--m", "-12,34"], "m", (-12, 34)),
    (["transform", "--d", "11", "--r", "-30,5,7,12"], "r", (-30, 5, 7, 12)),
    (["spectrum", "--d", "5", "--m", "1,0", "--mp", "-1,0"], "mp", (-1, 0)),
    (["index", "--d", "7", "--case", "custom", "--cross", "-3"], "cross", -3),
    (["index", "--d", "7", "--case", "unit-cross", "--sign", "-1"], "sign", "-1"),
    (["converge", "--gamma", "-0.5"], "gamma", -0.5),
])
def test_values_that_start_with_a_minus_sign_parse(runner, monkeypatch, args, key, value):
    seen = {}
    monkeypatch.setattr(cli, args[0], lambda **kw: seen.update(kw))
    res = invoke(runner, args)
    assert res.exit_code == 0, res.stderr
    assert seen[key] == value


@pytest.mark.parametrize("args, key, value", [
    (["gen", "--d", "5", "--kind", "schwinger", "--m", "-12,34"], "m", [-12, 34]),
    (["transform", "--d", "11", "--r", "-30,5,7,12"], "R", [[3, 5], [7, 1]]),
])
def test_negative_labels_run_end_to_end(runner, args, key, value):
    res = invoke(runner, args)
    assert res.exit_code == 0, res.stderr
    assert json.loads(res.stdout)[key] == value


def test_index_linear_frozen_value(runner):
    res = invoke(runner, ["index", "--d", "5", "--case", "linear"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert abs(doc["I"] - 0.4481911493503724) < 1e-12
    assert abs(doc["f0"] - 5.0 / (2.0 * np.pi)) < 1e-14


def test_index_cyclic_case_vanishes(runner):
    res = invoke(runner, ["index", "--d", "5", "--case", "unit-cross"])
    assert res.exit_code == 0
    assert abs(json.loads(res.stdout)["I"]) < 1e-14


def test_index_quarter_cross_needs_divisibility(runner):
    res = invoke(runner, ["index", "--d", "7", "--case", "quarter-cross"])
    assert res.exit_code == 2
    res = invoke(runner, ["index", "--d", "13", "--case", "quarter-cross"])
    assert res.exit_code == 0


def test_converge_csv_output(runner):
    res = invoke(runner, ["converge", "--primes", "3,5"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert "# observable=number-exp" in lines
    assert "D,residual" in lines
    data = [l for l in lines if l and l[0].isdigit()]
    assert [l.split(",")[0] for l in data] == ["3", "5"]


def test_converge_rejects_bad_prime_list(runner):
    res = invoke(runner, ["converge", "--primes", "3,x"])
    assert res.exit_code == 2


@pytest.mark.parametrize("observable", ["number-exp", "wigner"])
def test_converge_refuses_a_composite_ladder(runner, observable):
    res = invoke(runner, ["converge", "--primes", "4,6", "--observable", observable])
    assert res.exit_code == 2
    assert res.stderr == "error: NonPrimeDimensionError: 4 is not prime\n"


@pytest.mark.parametrize("suite", ["qosc", "sl2"])
def test_verify_class_sweep_passes_at_large_prime(runner, suite):
    for d in (31, 101):
        start = time.perf_counter()
        res = invoke(runner, ["verify", "--d", str(d), "--suite", suite])
        assert res.exit_code == 0, res.stdout
        assert "orbit_conjugation" in res.stdout
    assert time.perf_counter() - start < 15.0


def test_transform_fourier_map(runner):
    res = invoke(runner, ["transform", "--d", "5", "--r", "0,-1,1,0"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["R"] == [[0, 4], [1, 0]]
    assert doc["unitary_residual"] < 1e-12
    assert doc["worst_residual"] < 1e-9


def test_transform_above_d64_checks_the_sampled_labels():
    # D^4 > 2^24: the covariance report takes lattice._checked_labels, 104 at
    # D = 401, not all D^2 window labels (an O(D^4) sweep of several minutes)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p), OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "torusphase.cli", "transform", "--d", "401",
                           "--r", "3,5,7,12"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert len(doc["per_m"]) == 104
    assert doc["worst_residual"] < 1e-13
    assert all(rec["phase"] in ([1.0, 0.0], [-1.0, 0.0]) for rec in doc["per_m"])


def test_transform_rejects_composite_and_nonsymplectic(runner):
    res = invoke(runner, ["transform", "--d", "4", "--r", "0,-1,1,0"])
    assert res.exit_code == 2
    res = invoke(runner, ["transform", "--d", "5", "--r", "1,1,1,0"])
    assert res.exit_code == 2
    assert "NonSymplecticMapError" in res.stderr


def test_out_file_matches_stdout(runner, tmp_path):
    path = tmp_path / "op.json"
    res_file = invoke(runner, ["gen", "--d", "3", "--kind", "fourier",
                               "--out", str(path)])
    assert res_file.exit_code == 0
    res_std = invoke(runner, ["gen", "--d", "3", "--kind", "fourier"])
    assert path.read_text() == res_std.stdout


def test_out_unwritable_path_exits_3(runner):
    res = invoke(runner, ["gen", "--d", "3", "--kind", "u",
                          "--out", "/no/such/dir/op.json"])
    assert res.exit_code == 3


def test_output_is_deterministic(runner):
    a = invoke(runner, ["wigner", "--d", "5", "--state", "random:11"]).stdout
    b = invoke(runner, ["wigner", "--d", "5", "--state", "random:11"]).stdout
    assert a == b


# -- what one CLI call imports ---------------------------------------------

_PROBE = """
import json, sys
before = set(sys.modules)
from torusphase.cli import main
try:
    main(args=sys.argv[1:], prog_name="torusphase")
finally:
    print("MODULES " + json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)
"""
_SRC = str(Path(torusphase.__file__).resolve().parents[1])
_LAYERS = {"lattice", "schwinger", "deformed", "transforms", "wigner", "numberphase",
           "limits", "fock", "verify", "serialization"}


def loaded_by(args, cwd=None):
    """Exit code, stdout, stderr and the names of the modules one fresh CLI process loads.

    Modules the interpreter had loaded before the CLI was imported (by `site`,
    for instance) are left out.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)
    err, _, modules = proc.stderr.rpartition("MODULES ")
    return proc.returncode, proc.stdout, err, set(json.loads(modules))


def layers(modules):
    return {m.split(".", 1)[1] for m in modules if m.startswith("torusphase.")}


def outside_stdlib(modules):
    """Loaded modules that are neither the standard library's nor the CLI's own."""
    own = {"torusphase", "torusphase.cli", "torusphase.errors"}
    return {m for m in modules
            if m not in own and m.split(".", 1)[0] not in sys.stdlib_module_names}


def test_help_imports_no_numpy_and_no_layer():
    rc, out, _, modules = loaded_by(["--help"])
    assert rc == 0 and "Usage:" in out
    assert "numpy" not in modules
    assert layers(modules) == {"cli", "errors"}
    assert outside_stdlib(modules) == set()


@pytest.mark.parametrize("command", ["gen", "verify", "wigner", "spectrum", "index",
                                     "converge", "transform"])
def test_command_help_exits_0_without_numpy(command):
    rc, out, _, modules = loaded_by([command, "--help"])
    assert rc == 0 and "Usage:" in out
    assert "numpy" not in modules
    assert layers(modules) == {"cli", "errors"}
    assert outside_stdlib(modules) == set()


@pytest.mark.parametrize("state", ["fock:2", "v:3", "phase:2", "random:5"])
def test_torus_wigner_imports_only_its_layers(state):
    rc, out, _, modules = loaded_by(["wigner", "--d", "13", "--state", state])
    assert rc == 0 and out.startswith("# D=13")
    assert layers(modules) & {"deformed", "verify", "transforms", "limits", "fock",
                              "numberphase"} == set()


@pytest.mark.parametrize("args", [
    ["wigner", "--d", "13", "--state", "random:5", "--basis", "number-phase"],
    ["wigner", "--d", "13", "--state", "random:5", "--basis", "number-phase", "--decompose"],
    ["converge", "--observable", "wigner", "--primes", "11,23"],
])
def test_number_phase_grids_skip_the_basis_and_verify_layers(args):
    rc, out, _, modules = loaded_by(args)
    assert rc == 0 and out.startswith("#")
    assert layers(modules) & {"schwinger", "deformed", "transforms", "verify"} == set()


@pytest.mark.parametrize("args", [["transform", "--d", "13", "--r", "2,3,5,8"],
                                  ["gen", "--d", "7", "--kind", "schwinger", "--m", "2,-9"]])
def test_transform_and_gen_skip_the_deformed_and_verify_layers(args):
    rc, out, _, modules = loaded_by(args)
    assert rc == 0 and out.startswith("{")
    assert layers(modules) & {"deformed", "verify"} == set()


def test_verify_imports_every_suite_module():
    rc, _, _, modules = loaded_by(["verify", "--d", "3", "--suite", "all"])
    assert rc == 0
    assert layers(modules) >= _LAYERS


def test_verify_single_suite_imports_only_its_layers():
    rc, out, _, modules = loaded_by(["verify", "--d", "3", "--suite", "schwinger"])
    assert rc == 0 and out.rstrip().splitlines()[-1].startswith("PASS:")
    assert layers(modules) & {"deformed", "fock", "limits", "numberphase", "transforms",
                              "wigner"} == set()


def test_verify_transforms_builds_no_kernel_and_sweeps_only_the_generators(runner):
    # kernel_rotation and translation_covariance are exact sign checks, and
    # covariance is swept on the generators (1, 0) and (0, 1) of each map
    rc, out, _, modules = loaded_by(["verify", "--d", "5", "--suite", "transforms"])
    assert rc == 0 and out.rstrip().splitlines()[-1].startswith("PASS:")
    assert "torusphase.wigner" not in modules
    sizes = []
    sweep = transforms._sweep
    runner[1].setattr(transforms, "_sweep",
                      lambda G, smap, labels, phase: sizes.append(len(labels))
                      or sweep(G, smap, labels, phase))
    assert invoke(runner, ["verify", "--d", "5", "--suite", "transforms"]).exit_code == 0
    assert sizes and max(sizes) <= 2, sizes


def test_verify_schwinger_leaves_numpy_ma_unloaded():
    # the basis Gram rows loop over the m1 of the labels; np.unique loaded numpy.ma
    rc, _, _, modules = loaded_by(["verify", "--d", "5", "--suite", "schwinger"])
    assert rc == 0
    assert "numpy.ma" not in modules


@pytest.mark.parametrize("args", [
    *(["verify", "--d", "5", "--suite", suite] for suite in verify._DISPATCH),
    ["verify", "--d", "7", "--suite", "fock"],
    ["verify", "--d", "4", "--suite", "all"],
    ["verify", "--d", "101", "--suite", "transforms"],
    ["wigner", "--d", "13", "--state", "random:5"],
    ["transform", "--d", "31", "--r", "3,5,7,12"],
    ["converge", "--observable", "wigner", "--primes", "11,23"],
    ["gen", "--d", "7", "--kind", "schwinger", "--m", "2,-9"],
], ids="-".join)
def test_seeded_draws_load_neither_numpy_random_nor_openssl(args):
    # the package draws from lattice.Sampler, the label sample above D = 64
    # too, so numpy.random (and OpenSSL through secrets and hashlib) never loads
    rc, _, err, modules = loaded_by(args)
    assert rc in (0, 1), err                  # D = 4 FAILs gated rows
    assert modules & {"numpy.random", "secrets", "_hashlib"} == set()


def test_verify_unknown_suite_is_a_usage_error():
    rc, _, err, modules = loaded_by(["verify", "--d", "5", "--suite", "bogus"])
    assert rc == 2
    assert "Invalid value for '--suite'" in err
    assert "verify" not in layers(modules)


def test_cli_suite_names_match_verify_dispatch():
    assert cli.SUITES == verify.SUITES == (*verify._DISPATCH, "all")
