"""Tests for the command line front end: config parsing, hashing, artifact
layout, and exit codes."""

import contextlib
import inspect
import io
import json
import os
import string
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fraclab.cli as cli_module
import fraclab.rate as rate_module
from fraclab.cli import config_hash, load_run_config, main, parse_config_text
from fraclab.fields import GridSpec, field_from_spectrum
from fraclab.models import (
    DIFFUSION_FAMILIES,
    FLUX_FAMILIES,
    NOISE_FAMILIES,
    ConfigurationError,
    build_model,
    linearize_model,
)
from fraclab.rate import mdp_rate_exact
from fraclab.skeleton import control_to_csv, random_control

BASE = """\
# minimal noise-off run
model.flux.kind = burgers
model.flux.clamp = 4.0
model.diffusion.kind = linear
model.diffusion.slope = 0.5
model.diffusion.theta = 0.5
model.noise.kind = diagonal-decay
model.noise.truncation = 6
grid.n = 32
solver.dt = 1e-3
solver.t_end = 0.05
solver.snapshot_count = 6
seed = 3
"""

BASE_JSON = json.dumps({
    "model": {
        "flux": {"kind": "burgers", "clamp": 4.0},
        "diffusion": {"kind": "linear", "slope": 0.5, "theta": 0.5},
        "noise": {"kind": "diagonal-decay", "truncation": 6},
    },
    "grid": {"n": 32},
    "solver": {"dt": 1e-3, "t_end": 0.05, "snapshot_count": 6},
    "seed": 3,
})


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def base_with(drop=(), **overrides):
    gone = tuple(overrides) + tuple(drop)
    lines = [ln for ln in BASE.splitlines()
             if ln and not any(ln.startswith(k + " ") for k in gone)]
    lines += [f"{k} = {v}" for k, v in overrides.items()]
    return "\n".join(lines) + "\n"


class TestConfigParsing:
    def test_key_value_lines_with_comments(self):
        entries = parse_config_text("a.b = 1  # trailing\n\n# full line\nc = x\n")
        assert entries["a.b"] == (1, 1)
        assert entries["c"] == ("x", 4)

    def test_scalar_types(self):
        entries = parse_config_text(
            "i = 3\nf = 2.5e-3\nt = true\nb = false\n"
            "tup = 1e-2,1e-3\nword = rusanov\n")
        values = {k: v for k, (v, _) in entries.items()}
        assert values["i"] == 3 and isinstance(values["i"], int)
        assert values["f"] == pytest.approx(2.5e-3)
        assert values["t"] is True and values["b"] is False
        assert values["tup"] == (1e-2, 1e-3)
        assert values["word"] == "rusanov"

    def test_duplicate_key_rejected_with_line(self):
        with pytest.raises(ConfigurationError, match="line 2.*duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_config_text("just words\n")

    def test_json_form_matches_key_value_form(self):
        flat = parse_config_text(BASE)
        from_json = parse_config_text(BASE_JSON)
        assert {k: v for k, (v, _) in flat.items()} == \
               {k: v for k, (v, _) in from_json.items()}

    def test_json_syntax_error_names_line(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_config_text('{\n  "a": ,\n}')

    def test_unknown_section_rejected(self):
        text = BASE + "physics.c = 3\n"
        with pytest.raises(ConfigurationError, match="physics"):
            load_run_config("simulate", None, text)

    def test_unknown_solver_option_rejected(self):
        text = BASE + "solver.step_size = 1e-3\n"
        with pytest.raises(ConfigurationError, match="solver.step_size"):
            load_run_config("simulate", None, text)

    @pytest.mark.parametrize("key", [
        "model.flux.kind", "model.diffusion.kind", "model.diffusion.theta",
        "model.noise.kind", "grid.n", "solver.dt", "solver.t_end",
    ])
    def test_missing_required_key_named(self, key):
        text = "\n".join(ln for ln in BASE.splitlines()
                         if not ln.startswith(key + " "))
        with pytest.raises(ConfigurationError, match=key):
            load_run_config("simulate", None, text)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            load_run_config("simulate", None, base_with(seed="3.5"))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            load_run_config("simulate", None, BASE, seed=-1)
        with pytest.raises(ConfigurationError, match="non-negative"):
            load_run_config("simulate", None, base_with(seed="-4"))

    def test_boolean_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="integer"):
            load_run_config("simulate", None, base_with(seed="true"))

    def test_override_and_seed_flags_take_effect(self):
        cfg = load_run_config("simulate", None, BASE, seed=11,
                              overrides=["solver.dt=5e-4"])
        assert cfg.seed == 11
        assert cfg.entries["solver.dt"] == pytest.approx(5e-4)

    def test_bad_override_shape_rejected(self):
        with pytest.raises(ConfigurationError, match="override"):
            load_run_config("simulate", None, BASE, overrides=["solver.dt"])

    def test_non_numeric_solver_value_rejected(self):
        with pytest.raises(ConfigurationError, match="solver.dt"):
            load_run_config("simulate", None, base_with(**{"solver.dt": "fast"}))


class TestConfigHash:
    def test_stable_under_key_reordering(self):
        flat = {k: v for k, (v, _) in parse_config_text(BASE).items()}
        reordered = dict(reversed(list(flat.items())))
        assert config_hash("simulate", flat) == config_hash("simulate", reordered)

    def test_sensitive_to_values_and_command(self):
        flat = {k: v for k, (v, _) in parse_config_text(BASE).items()}
        changed = dict(flat, **{"solver.dt": 5e-4})
        assert config_hash("simulate", flat) != config_hash("simulate", changed)
        assert config_hash("simulate", flat) != config_hash("skeleton", flat)

    def test_json_and_text_forms_share_hash(self):
        a = load_run_config("simulate", None, BASE)
        b = load_run_config("simulate", None, BASE_JSON)
        assert a.hash == b.hash

    def test_seed_flag_changes_hash(self):
        a = load_run_config("simulate", None, BASE)
        b = load_run_config("simulate", None, BASE, seed=11)
        assert a.hash != b.hash


class TestSimulateCommand:
    def test_noise_off_constant_data_stays_constant(self, tmp_path):
        cfg = write(tmp_path, BASE)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        run_dirs = os.listdir(out)
        assert len(run_dirs) == 1 and run_dirs[0].startswith("simulate-")
        rows = (tmp_path / "out" / run_dirs[0] / "trajectory.csv").read_text()
        values = [float(r.split(",")[2]) for r in rows.splitlines()[1:]]
        assert values and all(v == pytest.approx(1.0, abs=1e-13) for v in values)

    def test_rerun_identical_bytes_except_manifest_timestamp(self, tmp_path):
        cfg = write(tmp_path, BASE)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--config", cfg, "--out", out_a]) == 0
        assert main(["simulate", "--config", cfg, "--out", out_b]) == 0
        (run_name,) = os.listdir(out_a)
        assert os.listdir(out_b) == [run_name]
        dir_a = tmp_path / "a" / run_name
        dir_b = tmp_path / "b" / run_name
        for name in sorted(os.listdir(dir_a)):
            bytes_a = (dir_a / name).read_bytes()
            bytes_b = (dir_b / name).read_bytes()
            if name == "manifest.json":
                man_a, man_b = json.loads(bytes_a), json.loads(bytes_b)
                man_a.pop("created"), man_b.pop("created")
                assert man_a == man_b
            else:
                assert bytes_a == bytes_b

    def test_reordered_config_reuses_run_directory(self, tmp_path):
        lines = BASE.splitlines()
        cfg_a = write(tmp_path, "\n".join(lines) + "\n", "a.cfg")
        cfg_b = write(tmp_path, "\n".join(reversed(lines)) + "\n", "b.cfg")
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg_a, "--out", out]) == 0
        assert main(["simulate", "--config", cfg_b, "--out", out]) == 0
        assert len(os.listdir(out)) == 1

    def test_different_config_gets_fresh_directory(self, tmp_path):
        cfg_a = write(tmp_path, BASE, "a.cfg")
        cfg_b = write(tmp_path, base_with(**{"solver.dt": "5e-4"}), "b.cfg")
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg_a, "--out", out]) == 0
        assert main(["simulate", "--config", cfg_b, "--out", out]) == 0
        assert len(os.listdir(out)) == 2

    def test_missing_theta_exits_2_and_names_key(self, tmp_path, capsys):
        text = "\n".join(ln for ln in BASE.splitlines()
                         if not ln.startswith("model.diffusion.theta"))
        cfg = write(tmp_path, text)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "model.diffusion.theta" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "nope.cfg" in capsys.readouterr().err

    def test_unstable_dt_exits_2_with_line(self, tmp_path, capsys):
        cfg = write(tmp_path, base_with(**{"solver.dt": "0.05"}))
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "solver.dt" in err and "stable" in err

    def test_blowup_exits_3_and_names_step(self, tmp_path, capsys):
        text = """\
model.flux.kind = burgers
model.flux.clamp = 50.0
model.diffusion.kind = linear
model.diffusion.slope = 0.01
model.diffusion.theta = 0.5
model.noise.kind = additive
model.noise.truncation = 4
grid.n = 64
solver.dt = 3e-4
solver.t_end = 1.8
solver.cfl_safety = 1.0
solver.flux_scheme = spectral
initial.kind = harmonic
initial.amplitude = 3.0
initial.base = 0.0
"""
        cfg = write(tmp_path, text)
        with np.errstate(all="ignore"):
            code = main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == 3
        assert "step" in capsys.readouterr().err


class TestOtherCommands:
    def test_skeleton_requires_noise_off(self, tmp_path, capsys):
        cfg = write(tmp_path, base_with(**{"solver.eps": "1e-2"}) +
                    "control.kind = random\n")
        code = main(["skeleton", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "eps" in capsys.readouterr().err

    @pytest.mark.parametrize("control", ["", "control.kind = random\n"],
                             ids=["uncontrolled", "controlled"])
    def test_regularization_requires_noise_off(self, tmp_path, capsys, control):
        cfg = write(tmp_path, base_with(**{"solver.eps": "1e-2"}) + control)
        code = main(["experiment", "regularization", "--config", cfg,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "line 14: solver.eps: regularization runs are noise free" \
            in capsys.readouterr().err

    def test_skeleton_writes_control_artifact(self, tmp_path):
        cfg = write(tmp_path, BASE + "control.kind = random\n"
                                     "control.intervals = 4\n")
        out = str(tmp_path / "out")
        assert main(["skeleton", "--config", cfg, "--out", out]) == 0
        (run_name,) = os.listdir(out)
        names = set(os.listdir(tmp_path / "out" / run_name))
        assert {"trajectory.csv", "control.csv", "manifest.json"} <= names

    def test_oracle_writes_one_row_per_mode(self, tmp_path):
        cfg = write(tmp_path, BASE)
        out = str(tmp_path / "out")
        assert main(["oracle", "--config", cfg, "--out", out]) == 0
        (run_name,) = os.listdir(out)
        rows = (tmp_path / "out" / run_name / "modes.csv").read_text().splitlines()
        assert rows[0] == "k,drift_re,drift_im,weight_sq,star_variance"
        assert len(rows) == 1 + 32
        for row in rows[1:]:
            cells = row.split(",")
            int(cells[0])
            for cell in cells[1:]:
                float(cell)

    def test_oracle_prints_undriven_modes_as_zero(self, tmp_path):
        # diagonal-decay noise (K = 6, N = 32) drives the frequencies |k| <= 6;
        # the others hold only transform rounding
        cfg = write(tmp_path, BASE)
        out = str(tmp_path / "out")
        assert main(["oracle", "--config", cfg, "--out", out]) == 0
        (run_name,) = os.listdir(out)
        rows = (tmp_path / "out" / run_name / "modes.csv").read_text().splitlines()
        for row in rows[1:]:
            k, _, _, weight_sq, variance = row.split(",")
            if abs(int(k)) <= 6:
                assert float(weight_sq) > 0.0 and float(variance) > 0.0
            else:
                assert (weight_sq, variance) == ("0.0", "0.0")

    def test_rate_exact_writes_report_and_control(self, tmp_path):
        text = base_with(**{"model.noise.kind": "paired-harmonic"})
        text = text.replace("model.noise.truncation = 6",
                            "model.noise.pairs = 6")
        cfg = write(tmp_path, text + "rate.target.mode = 2\n"
                                     "rate.target.re = 0.05\n")
        out = str(tmp_path / "out")
        assert main(["rate", "--config", cfg, "--out", out]) == 0
        (run_name,) = os.listdir(out)
        report = json.loads((tmp_path / "out" / run_name / "report.json").read_text())
        assert report["converged"] is True and report["value"] > 0.0
        assert report["control_csv"] == "control.csv"
        assert (tmp_path / "out" / run_name / "control.csv").exists()


class TestExperimentCommand:
    def test_clt_passes_and_records_report(self, tmp_path, capsys):
        cfg = write(tmp_path, base_with(drop=("model.flux.clamp",),
                                        **{"model.flux.kind": "advection",
                                           "model.flux.speed": "0.3"}) +
                    "experiment.eps_grid = 1e-2,1e-4\n"
                    "experiment.samples = 100\n")
        out = str(tmp_path / "out")
        code = main(["experiment", "clt", "--config", cfg, "--out", out,
                     "--workers", "2"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        (run_name,) = os.listdir(out)
        assert run_name.startswith("experiment-clt-")
        report = json.loads((tmp_path / "out" / run_name / "report.json").read_text())
        assert report["passed"] is True
        assert report["cells"]

    def test_divergence_in_a_worker_exits_3_naming_eps(self, tmp_path, capsys):
        # the error crosses the pool back to the driver, which names the slice
        cfg = write(tmp_path, BASE + "experiment.eps_grid = 1e300, 1e-2\n"
                    "experiment.samples = 100\n")
        with np.errstate(all="ignore"):
            code = main(["experiment", "clt", "--config", cfg, "--workers", "2",
                         "--out", str(tmp_path / "o")])
        assert code == 3
        assert "at eps = 1e+300 lost finiteness" in capsys.readouterr().err

    def test_failing_verdict_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, base_with(drop=("model.flux.clamp",),
                                        **{"model.flux.kind": "advection",
                                           "model.flux.speed": "0.0"}) +
                    "initial.kind = harmonic\n"
                    "initial.amplitude = 0.3\n"
                    "experiment.which = eta\n"
                    "experiment.ladder = 1e-2,9.99e-3,1e-3\n")
        code = main(["experiment", "regularization", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_worker_count_leaves_artifacts_unchanged(self, tmp_path):
        cfg = write(tmp_path, BASE +
                    "experiment.eps = 1e-2\n"
                    "experiment.pairs = 2\n"
                    "experiment.samples = 100\n")
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["experiment", "contraction", "--config", cfg,
                     "--out", out_a, "--workers", "1"]) == 0
        assert main(["experiment", "contraction", "--config", cfg,
                     "--out", out_b, "--workers", "2"]) == 0
        (run_name,) = os.listdir(out_a)
        report_a = (tmp_path / "a" / run_name / "report.json").read_bytes()
        report_b = (tmp_path / "b" / run_name / "report.json").read_bytes()
        assert report_a == report_b

    def test_unknown_experiment_rejected_by_parser(self, tmp_path):
        cfg = write(tmp_path, BASE)
        with pytest.raises(SystemExit):
            main(["experiment", "bogus", "--config", cfg])


# each numeric key with a command (and the settings) under which a run reads it
NUMERIC_KEYS = tuple(
    [(("simulate",), (), key) for key in (
        "seed", "grid.n", "solver.dt", "solver.t_end", "solver.eta",
        "solver.gamma", "solver.eps", "solver.cfl_safety",
        "solver.snapshot_count", "initial.value", "model.flux.clamp",
        "model.diffusion.slope", "model.diffusion.theta",
        "model.noise.truncation")]
    + [(("simulate",), ("model.noise.kind=paired-harmonic",), "model.noise.pairs")]
    + [(("simulate",), ("initial.kind=harmonic",), key) for key in (
        "initial.base", "initial.amplitude", "initial.mode", "initial.phase")]
    + [(("skeleton",), ("control.kind=random",), key) for key in (
        "control.truncation", "control.intervals", "control.amplitude",
        "control.seed")]
    + [(("rate",), (), key) for key in (
        "rate.target.mode", "rate.target.re", "rate.target.im", "rate.eta",
        "rate.intervals")]
    + [(("rate",), ("rate.method=iterative",), key) for key in (
        "rate.dt", "rate.penalty", "rate.penalty_growth", "rate.rounds",
        "rate.maxiter", "rate.gradient_tol", "rate.residual_target")]
    + [(("experiment", "contraction"), (), key) for key in (
        "experiment.pairs", "experiment.samples", "experiment.eps",
        "experiment.tol")]
    + [(("experiment", "clt"), (), key) for key in (
        "experiment.eps_grid", "experiment.eta", "experiment.samples",
        "experiment.modes")]
    + [(("experiment", "mass-martingale"), (), key) for key in (
        "experiment.eps", "experiment.samples")]
    + [(("experiment", "regularization"), (), "experiment.ladder")]
    + [(("experiment", "condition2"), (), key) for key in (
        "experiment.eps_grid", "experiment.samples", "experiment.controls",
        "experiment.intervals", "experiment.amplitude", "experiment.delta",
        "experiment.level_bound")]
    + [(("experiment", "mdp"), (), key) for key in (
        "experiment.a", "experiment.eps_grid", "experiment.samples",
        "experiment.modes")]
)


def _case(key):
    return next(case for case in NUMERIC_KEYS if case[2] == key)


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(NUMERIC_KEYS),
       bad=st.one_of(st.sampled_from(["nan", "inf", "-inf", "1e9x", ""]),
                     st.text(string.ascii_letters, min_size=1, max_size=8)))
@example(case=_case("solver.dt"), bad="nan")
@example(case=_case("solver.t_end"), bad="inf")
@example(case=_case("initial.value"), bad="nan")
@example(case=_case("solver.eta"), bad="inf")
@example(case=_case("solver.eps"), bad="nan")
@example(case=_case("initial.amplitude"), bad="abc")
@example(case=_case("experiment.samples"), bad="1e9x")
@example(case=_case("model.noise.truncation"), bad="2.5")
@example(case=_case("model.noise.pairs"), bad="2.5")
# sample counts below each experiment's floor
@example(case=_case("experiment.samples"), bad="99")
@example(case=(("experiment", "clt"), (), "experiment.samples"), bad="8")
@example(case=(("experiment", "mass-martingale"), (), "experiment.samples"), bad="499")
@example(case=(("experiment", "condition2"), (), "experiment.samples"), bad="0")
@example(case=(("experiment", "mdp"), (), "experiment.samples"), bad="0")
def test_bad_numeric_value_exits_2_naming_key(tmp_path_factory, case, bad):
    command, extra, key = case
    root = tmp_path_factory.mktemp("numeric")
    cfg = write(root, BASE)
    argv = [*command, "--config", cfg, "--out", str(root / "out"),
            "--workers", "1"]
    for item in (*extra, f"{key}={bad}"):
        argv += ["--override", item]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 2
    assert key in err.getvalue()


# count keys and the command (and settings) under which a run reads them
COUNT_KEYS = (
    [_case(key) for key in ("initial.mode", "control.intervals",
                            "rate.intervals", "rate.rounds", "rate.maxiter")]
    + [(("rate",), ("rate.method=iterative",), "rate.intervals")]
    + [_case(key) for key in ("model.noise.truncation", "model.noise.pairs")]
    + [_case(key) for key in ("experiment.pairs", "experiment.controls")])


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("case", COUNT_KEYS,
                         ids=lambda case: "+".join((*case[1], case[2])))
def test_count_below_one_exits_2_naming_key(tmp_path, case, value):
    command, extra, key = case
    cfg = write(tmp_path, BASE)
    argv = [*command, "--config", cfg, "--out", str(tmp_path / "out"),
            "--workers", "1"]
    for item in (*extra, f"{key}={value}"):
        argv += ["--override", item]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 2
    assert key in err.getvalue() and "at least 1" in err.getvalue()


@pytest.mark.parametrize("mode", [16, 17, 40])
def test_initial_mode_at_or_above_nyquist_exits_2_naming_key(tmp_path, mode):
    # on grid.n = 32 the sine of mode 16 vanishes on the nodes and larger
    # modes alias, so each would start silently from the constant or a
    # lower mode
    code, err = _exit_and_error(tmp_path, ("simulate",), (
        "initial.kind=harmonic", f"initial.mode={mode}", "initial.amplitude=0.3"))
    assert code == 2
    assert "initial.mode: mode must lie in 1..15" in err


def test_internal_error_exits_4_with_traceback(tmp_path, monkeypatch, capsys):
    def broken(cfg):
        raise RuntimeError("broken command")

    monkeypatch.setitem(cli_module._RUNNERS, "simulate", broken)
    cfg = write(tmp_path, BASE)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: broken command" in err


# a misspelt key in each section the schema check covers, with the command
# that reads the section
UNKNOWN_KEYS = (
    (("simulate",), "grid.nodes = 32"),
    (("simulate",), "initial.valu = 3"),
    (("skeleton",), "control.interval = 4"),
    (("experiment", "clt"), "experiment.sample = 10"),
    (("rate",), "rate.target.moed = 2"),
    (("rate",), "rate.max_iter = 5"),
    (("simulate",), "seed.value = 4"),
    # a removed key: sqrt(eps)/lambda_eps is sqrt(eps / lambda_eps^2)
    (("simulate",), "solver.lambda_eps = 1.0"),
    # a parameter the chosen family does not take
    (("simulate",), "model.flux.clampp = 3"),
)


@pytest.mark.parametrize("case", UNKNOWN_KEYS, ids=lambda case: case[1].split(" ")[0])
def test_unknown_key_exits_2_naming_key_and_line(tmp_path, case):
    command, line = case
    key = line.split(" ")[0]
    cfg = write(tmp_path, BASE + line + "\n")
    lineno = len(BASE.splitlines()) + 1
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*command, "--config", cfg, "--out", str(tmp_path / "out"),
                     "--workers", "1"])
    assert code == 2
    assert f"line {lineno}: {key}: unknown config key" in err.getvalue()


def test_parameter_of_another_family_exits_2_naming_key_and_line(tmp_path):
    # BASE sets model.noise.truncation on line 8, which paired-harmonic lacks
    text = BASE.replace("model.noise.kind = diagonal-decay",
                        "model.noise.kind = paired-harmonic")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["simulate", "--config", write(tmp_path, text),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "line 8: model.noise.truncation: unknown config key" in err.getvalue()


def test_keys_of_other_commands_and_kinds_still_run(tmp_path):
    cfg = write(tmp_path, BASE + "control.kind = zero\n"
                                 "control.intervals = 4\n"
                                 "initial.amplitude = 0.3\n"
                                 "experiment.samples = 10\n"
                                 "rate.method = iterative\n"
                                 "rate.penalty = 5\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


# one config that every command below reads; solver.eps turns the noise on
STARTUP_CONFIG = base_with(drop=("model.flux.clamp",), **{
    "model.flux.kind": "advection", "model.flux.speed": "0.3",
    "model.noise.kind": "paired-harmonic", "solver.eps": "1e-2"}).replace(
        "model.noise.truncation = 6", "model.noise.pairs = 3") + """\
experiment.eps_grid = 1e-2
experiment.samples = 100
rate.method = exact
rate.target.mode = 2
rate.target.re = 0.05
"""

STARTUP_SCRIPT = """\
import sys
from fraclab.cli import main
cfg, out = sys.argv[1:]
codes = [main([*command, "--config", cfg, "--out", out, "--workers", "1"])
         for command in (["simulate"], ["oracle"], ["experiment", "clt"], ["rate"])]
print(codes)
print(sorted(name for name in sys.modules
             if name == "scipy" or name.startswith("scipy.")))
"""


def test_commands_without_the_optimizer_never_import_scipy(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cfg = write(tmp_path, STARTUP_CONFIG)
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, cfg, str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    codes, modules = done.stdout.splitlines()[-2:]
    assert json.loads(codes) == [0, 0, 0, 0], done.stdout
    assert modules == "[]"


def test_iterative_rate_calls_the_module_level_minimize(tmp_path, monkeypatch):
    calls = []
    minimize = rate_module.minimize

    def counting(*args, **kwargs):
        calls.append(kwargs.get("method"))
        return minimize(*args, **kwargs)

    monkeypatch.setattr(rate_module, "minimize", counting)
    cfg = write(tmp_path, STARTUP_CONFIG.replace("rate.method = exact",
                                                 "rate.method = iterative")
                + "rate.intervals = 2\nrate.rounds = 2\nrate.maxiter = 3\n")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["rate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code in (0, 1)
    assert calls == ["L-BFGS-B", "L-BFGS-B"]


# a value outside its key's kind or admitted values, with the command (and
# settings) under which a run would read the key
OUT_OF_SCHEMA = (
    (("experiment", "condition2"), (), "experiment.intervals=-2"),
    (("experiment", "condition2"), (), "experiment.intervals=0"),
    (("skeleton",), ("control.kind=random",), "control.seed=-1"),
    (("skeleton",), ("control.kind=random",), "control.truncation=3"),
    (("rate",), (), "rate.eta=-1"),
    (("experiment", "mdp"), (), "experiment.linear_check=yes"),
    (("simulate",), (), "model.diffusion.theta=1.5"),
    (("simulate",), (), "model.noise.q=-1"),
    (("simulate",), (), "model.flux.clamp=-1"),
    (("experiment", "regularization"), (), "experiment.which=foo"),
    (("experiment", "mdp"), (), "experiment.a=0.7"),
    (("experiment", "condition2"), (), "experiment.level_bound=-1"),
    (("experiment", "contraction"), (), "experiment.eps=-1"),
    (("experiment", "clt"), (), "experiment.eta=-1"),
    (("rate",), ("rate.method=iterative",), "rate.dt=-1"),
    (("rate",), ("rate.method=iterative",), "rate.flux_scheme=weno"),
    # a step that does not divide t_end, and one beyond the stable step
    (("rate",), ("rate.method=iterative",), "rate.dt=3e-3"),
    (("rate",), ("rate.method=iterative",), "rate.dt=0.05"),
    (("simulate",), (), "solver.dt=-1"),
    (("simulate",), (), "solver.dt=3e-3"),
)


def _exit_and_error(tmp_path, command, overrides):
    cfg = write(tmp_path, BASE)
    argv = [*command, "--config", cfg, "--out", str(tmp_path / "out"),
            "--workers", "1"]
    for item in overrides:
        argv += ["--override", item]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("case", OUT_OF_SCHEMA, ids=lambda case: case[2])
def test_out_of_schema_value_exits_2_naming_key(tmp_path, case):
    command, extra, item = case
    code, err = _exit_and_error(tmp_path, command, (*extra, item))
    key = item.split("=")[0]
    assert code == 2
    assert f"{key}: " in err


# input files that are missing or do not fit the run, with the command that
# reads them
FILE_CASES = (
    (("simulate",), ("initial.kind=csv", "initial.path=missing.csv")),
    (("skeleton",), ("control.kind=csv", "control.path=missing.csv")),
    (("rate",), ("rate.target.kind=csv", "rate.target.path=missing.csv")),
    (("skeleton",), ("control.kind=csv", "control.path=three-modes.csv")),
)


@pytest.mark.parametrize("case", FILE_CASES, ids=lambda case: case[1][1])
def test_unusable_input_file_exits_2_naming_key(tmp_path, monkeypatch, case):
    command, overrides = case
    monkeypatch.chdir(tmp_path)
    control_to_csv(random_control(0, 3, 0.05, intervals=2), "three-modes.csv")
    code, err = _exit_and_error(tmp_path, command, overrides)
    key = overrides[1].split("=")[0]
    assert code == 2
    assert f"{key}: " in err


# commands that linearize about the run's constant initial state, with the
# settings under which they do
LINEARIZING = (
    (("experiment", "clt"), ()),
    (("experiment", "mdp"), ("experiment.linear_check=true",)),
    (("oracle",), ()),
    (("rate",), ()),
)


@pytest.mark.parametrize("case", LINEARIZING, ids=lambda case: "-".join(case[0]))
def test_nonconstant_initial_state_exits_2_naming_initial_kind(tmp_path, case):
    command, extra = case
    code, err = _exit_and_error(tmp_path, command, (*extra, "initial.kind=harmonic"))
    assert code == 2
    assert "initial.kind: " in err


def _run_artifacts(tmp_path, command, overrides):
    """The run directory of a passing command on the BASE config."""
    out = tmp_path / "out"
    before = set(os.listdir(out)) if out.exists() else set()
    code, err = _exit_and_error(tmp_path, command, overrides)
    assert code == 0, err
    (run_name,) = set(os.listdir(out)) - before
    return out / run_name


@pytest.mark.parametrize("scheme", ["rusanov", "spectral"])
@pytest.mark.parametrize("value", ["1.0", "2.0"])
def test_oracle_prints_the_variances_clt_checks(tmp_path, scheme, value):
    overrides = (f"solver.flux_scheme={scheme}", f"initial.value={value}")
    rows = (_run_artifacts(tmp_path, ("oracle",), overrides) / "modes.csv"
            ).read_text().splitlines()[1:]
    star = {int(row.split(",")[0]): float(row.split(",")[4]) for row in rows}
    report = json.loads((_run_artifacts(
        tmp_path, ("experiment", "clt"),
        (*overrides, "experiment.eps_grid=1e-2,1e-4", "experiment.samples=100"))
        / "report.json").read_text())
    oracles = {cell["params"]["mode"]: cell["extra"]["oracle"]
               for cell in report["cells"]
               if cell["params"]["kind"] == "mode-variance"}
    assert sorted(oracles) == [1, 2]
    for k, oracle in oracles.items():
        assert star[k] == pytest.approx(oracle, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("scheme", ["rusanov", "spectral"])
def test_clt_checks_every_driven_mode_at_the_oracle_variance(tmp_path, scheme):
    # diagonal-decay (K = 6) drives |k| <= 6: each checked mode's oracle is
    # its star_variance in modes.csv bit for bit
    overrides = (f"solver.flux_scheme={scheme}",)
    star = {}
    for row in (_run_artifacts(tmp_path, ("oracle",), overrides) / "modes.csv"
                ).read_text().splitlines()[1:]:
        k, _, _, weight_sq, variance = row.split(",")
        if float(weight_sq) > 0.0:
            star[int(k)] = float(variance)
    assert sorted(star) == list(range(-6, 7))
    report = json.loads((_run_artifacts(
        tmp_path, ("experiment", "clt"),
        (*overrides, "experiment.eps_grid=1e-2,1e-4", "experiment.samples=100",
         "experiment.modes=" + ",".join(str(k) for k in sorted(star))))
        / "report.json").read_text())
    oracles = {cell["params"]["mode"]: cell["extra"]["oracle"]
               for cell in report["cells"]
               if cell["params"]["kind"] == "mode-variance"}
    assert oracles == star


# a linear model whose two harmonic noise pairs drive |k| <= 2 only
PAIRED = """\
model.flux.kind = advection
model.flux.speed = 1.0
model.diffusion.kind = linear
model.diffusion.slope = 0.5
model.diffusion.theta = 0.5
model.noise.kind = paired-harmonic
model.noise.pairs = 2
grid.n = 32
solver.dt = 1e-3
solver.t_end = 0.05
initial.kind = constant
initial.value = 0.0
experiment.modes = 1,5
experiment.samples = 100
experiment.linear_check = true
"""


@pytest.mark.parametrize("command", [("experiment", "clt"), ("experiment", "mdp")])
def test_undriven_checked_mode_exits_2_naming_key_and_line(tmp_path, command):
    cfg = write(tmp_path, PAIRED, name="lin.cfg")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*command, "--config", cfg, "--out", str(tmp_path / "out"),
                     "--workers", "1"])
    assert code == 2
    assert "lin.cfg line 13: experiment.modes: the noise does not drive mode 5" \
        in err.getvalue()


def test_exact_rate_linearizes_about_the_initial_state(tmp_path):
    # Burgers' slope and the frozen noise both follow the state
    values = {}
    for value in ("1.0", "2.0"):
        report = json.loads((_run_artifacts(
            tmp_path, ("rate",), (f"initial.value={value}",)) / "report.json"
            ).read_text())
        values[value] = report["value"]
    grid = GridSpec(32)
    spectrum = np.zeros(32, dtype=complex)
    spectrum[1] = spectrum[-1] = 0.1
    model = build_model(json.loads(BASE_JSON)["model"])
    expected = mdp_rate_exact(field_from_spectrum(grid, spectrum),
                              linearize_model(model, 2.0), 0.05).value
    assert values["2.0"] == expected
    assert values["1.0"] != values["2.0"]


# one control row over the run's horizon and six noise modes, with one
# non-finite breakpoint or coefficient
NON_FINITE_CONTROLS = {
    "nan-coefficient": "0.0,0.05,nan,0,0,0,0,0",
    "inf-coefficient": "0.0,0.05,inf,0,0,0,0,0",
    "nan-end-time": "0.0,nan,0.1,0,0,0,0,0",
    "inf-end-time": "0.0,inf,0.1,0,0,0,0,0",
}


@pytest.mark.parametrize("row", NON_FINITE_CONTROLS.values(), ids=NON_FINITE_CONTROLS)
def test_non_finite_control_csv_exits_2_naming_key(tmp_path, row):
    path = tmp_path / "control.csv"
    path.write_text("t_start,t_end,l_1,l_2,l_3,l_4,l_5,l_6\n" + row + "\n")
    code, err = _exit_and_error(tmp_path, ("skeleton",),
                                ("control.kind=csv", f"control.path={path}"))
    assert code == 2
    assert "control.path: " in err


# values that only a command's driver can check, with the command
DRIVER_CASES = (
    (("experiment", "clt"), "experiment.eps_grid = 1e-3,1e-2"),
    (("experiment", "clt"), "initial.kind = harmonic"),
    (("experiment", "regularization"), "experiment.ladder = 1e-2,1e-3"),
    (("experiment", "clt"), "experiment.modes = 1,40"),
    (("experiment", "condition2"), "experiment.level_bound = 1e-9"),
)


@pytest.mark.parametrize("case", DRIVER_CASES, ids=lambda case: case[1].split(" ")[0])
def test_driver_list_check_exits_2_naming_key_and_line(tmp_path, case):
    command, line = case
    key = line.split(" ")[0]
    cfg = write(tmp_path, BASE + line + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*command, "--config", cfg, "--out", str(tmp_path / "out"),
                     "--workers", "1"])
    assert code == 2
    assert f"line {len(BASE.splitlines()) + 1}: {key}: " in err.getvalue()


def _off_kind(key):
    """Override texts of values outside the kind or admitted values of key."""
    schema = cli_module._SCHEMA[key]
    letters = st.text(string.ascii_letters, min_size=1, max_size=8)
    numbers = st.one_of(st.integers(-10**6, 10**6).map(str),
                        st.floats(-1e6, 1e6).map(repr))
    if schema.kind is str:
        return st.one_of(numbers, st.sampled_from(["true", "false"]),
                         letters.filter(lambda text: text not in schema.names)
                         if schema.names else st.nothing())
    if schema.kind is bool:
        return st.one_of(numbers, letters.filter(
            lambda text: text.lower() not in ("true", "false")))
    bad = [st.sampled_from(["nan", "inf", "-inf", "true", "", "1e9x"]), letters]
    if schema.kind is int:
        bad.append(st.floats(-1e6, 1e6).filter(lambda v: v != int(v)).map(repr))
    if not schema.many:
        bad.append(st.just("1,2"))
    if schema.bound is not None:
        values = (st.integers(-10**6, 10**6) if schema.kind is int
                  else st.floats(-1e6, 1e6))
        bad.append(values.filter(lambda v: not schema.bound[0](v)).map(repr))
    return st.one_of(*bad)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_value_outside_the_schema_exits_2_naming_key(tmp_path_factory, data):
    key = data.draw(st.sampled_from(sorted(cli_module._SCHEMA)), label="key")
    text = data.draw(_off_kind(key), label="text")
    code, err = _exit_and_error(tmp_path_factory.mktemp("schema"), ("simulate",),
                                (f"{key}={text}",))
    assert code == 2
    assert f"{key}: " in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_mass_martingale_passes_when_the_noise_moves_no_mass(tmp_path, workers):
    # paired-harmonic modes have zero spatial mean: the drift is rounding
    text = base_with(**{"model.noise.kind": "paired-harmonic"}).replace(
        "model.noise.truncation = 6", "model.noise.pairs = 3")
    cfg = write(tmp_path, text + "experiment.samples = 500\n")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["experiment", "mass-martingale", "--config", cfg,
                     "--out", str(tmp_path / "out"), "--workers", workers])
    assert code == 0, out.getvalue()


def test_readme_key_table_lists_the_schema_keys():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        listed = [line.split("`")[1] for line in fh if line.startswith("| `")]
    model_params = {
        f"model.{block}.{name}"
        for block, families in (("flux", FLUX_FAMILIES),
                                ("diffusion", DIFFUSION_FAMILIES),
                                ("noise", NOISE_FAMILIES))
        for factory in families.values()
        for name in inspect.signature(factory).parameters}
    assert len(listed) == len(set(listed))
    assert set(listed) == set(cli_module._SCHEMA) | model_params


def test_every_rate_option_has_a_schema_row():
    # only solver.<field> rows are generated from a dataclass: a new
    # RateOptions field needs its own row, or the key would be unknown
    for name in rate_module.RateOptions.__dataclass_fields__:
        assert f"rate.{name}" in cli_module._SCHEMA, name
