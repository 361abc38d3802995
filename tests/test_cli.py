"""Tests for the command line front end: config parsing, hashing, artifact
layout, and exit codes."""

import contextlib
import io
import json
import os
import string

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fraclab.cli import config_hash, load_run_config, main, parse_config_text
from fraclab.models import ConfigurationError

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
        "solver.gamma", "solver.eps", "solver.lambda_eps", "solver.cfl_safety",
        "solver.snapshot_count", "initial.value", "model.flux.clamp",
        "model.diffusion.slope", "model.diffusion.theta",
        "model.noise.truncation")]
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
