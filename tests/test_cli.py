import inspect
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from periodic_hyp import boundary as bd
from periodic_hyp import cli, systems
from periodic_hyp import periodic_solver as ps
from periodic_hyp.errors import BoundaryMapError, ConvergenceError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def base_e2_cfg(Nt=32, Nx=32, k=0.5, K=1e-6):
    return {
        "system": {"name": "linear_reflect_2x2",
                   "params": {"speed": 1.0, "L": 1.0, "domain_radius": 0.1}},
        "boundary": {"T_star": 2.0, "gains": {"k": k},
                     "forcing": [[{"amplitude": 1.0, "harmonic": 1}], []]},
        "grid": {"Nt": Nt, "Nx": Nx},
        "solver": {"K": K, "tol": 1e-10, "max_iter": 200},
        "experiment": {"eps": [0.01]},
    }


class TestConfigParsing:
    def test_unknown_top_key_rejected(self, tmp_path):
        data = base_e2_cfg()
        data["extra"] = 1
        assert cli.run(["validate", "--config", write_cfg(tmp_path, data)]) == 2

    def test_unknown_nested_key_rejected(self, tmp_path):
        data = base_e2_cfg()
        data["solver"]["relaxation"] = 0.5
        assert cli.run(["validate", "--config", write_cfg(tmp_path, data)]) == 2

    def test_unknown_system_rejected(self, tmp_path):
        data = base_e2_cfg()
        data["system"]["name"] = "unheard_of"
        assert cli.run(["validate", "--config", write_cfg(tmp_path, data)]) == 2

    def test_missing_file(self):
        assert cli.run(["validate", "--config", "/nope/absent.yaml"]) == 2

    def test_mode_key_rejected(self, tmp_path, capsys):
        # the subcommand selects the run; the old key names itself
        data = base_e2_cfg()
        data["experiment"]["mode"] = "periodic"
        assert cli.run(["validate", "--config", write_cfg(tmp_path, data)]) == 2
        assert "unknown keys in 'experiment': ['mode']" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(systems.BUILTINS))
    def test_builder_keywords_are_the_params(self, tmp_path, capsys, name):
        """Every builder keyword is a config param; set to its default it
        validates as the config without params does."""
        data = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
        outs = []
        for params in ({p.name: p.default for p in inspect.signature(
                systems.BUILTINS[name].system).parameters.values()}, None):
            data["system"]["params"] = params
            assert cli.run(["validate", "--config", write_cfg(tmp_path, data)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and f"system: {name}" in outs[0]

    def test_json_config_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_e2_cfg()))
        assert cli.run(["validate", "--config", str(path)]) == 0

    def test_exponents_without_a_dot_are_numbers(self, tmp_path):
        """1e-10 is a str to YAML 1.1 but a number to JSON and YAML 1.2; the
        config reads it unquoted as a number, quoted as a str."""
        text, path = yaml.safe_dump(base_e2_cfg()), tmp_path / "cfg.yaml"
        path.write_text(text.replace("tol: 1.0e-10", "tol: 1e-10")
                        .replace("K: 1.0e-06", "K: 1E-6").replace("T_star: 2.0", "T_star: 2e0"))
        cfg = cli.load_config(path)
        assert (cfg.solver.tol, cfg.solver.K, cfg.T_star) == (1e-10, 1e-6, 2.0)
        path.write_text(text.replace("tol: 1.0e-10", "tol: '1e-10'"))
        with pytest.raises(cli.ConfigError, match="'solver.tol' must be a finite number"):
            cli.load_config(path)
        assert yaml.safe_load("tol: 1e-10") == {"tol": "1e-10"}  # no global loader change


class TestValidate:
    def test_shipped_configs_pass(self):
        for name in ("linear_damped_scalar.yaml", "linear_reflect_2x2.yaml",
                     "quasilinear_euler_damping.yaml", "sweep_reflect.yaml"):
            code = cli.run(["validate", "--config", str(CONFIGS / name)])
            assert code == 0, name

    def test_supercritical_gain_fails(self, tmp_path):
        cfg = base_e2_cfg(k=1.2)
        assert cli.run(["validate", "--config", write_cfg(tmp_path, cfg)]) == 3

    def test_K_below_minimal_fails(self, tmp_path):
        # homogeneous source needs a strictly positive shift
        cfg = base_e2_cfg(K=0.0)
        assert cli.run(["validate", "--config", write_cfg(tmp_path, cfg)]) == 3

    def test_slow_speeds_fail_without_rescaling(self, tmp_path):
        cfg = base_e2_cfg()
        cfg["system"]["params"]["speed"] = 0.5
        assert cli.run(["validate", "--config", write_cfg(tmp_path, cfg)]) == 3

    def test_theta_convergence_error_exits_4(self, tmp_path, monkeypatch, capsys):
        def disagree(theta):
            raise ConvergenceError("scaling methods disagree")

        monkeypatch.setattr(bd, "minimal_characterizing_number", disagree)
        code = cli.run(["validate", "--config", write_cfg(tmp_path, base_e2_cfg())])
        assert code == 4
        assert "non-convergence: scaling methods disagree" in capsys.readouterr().err

    def test_a_failed_theta_eigensolve_exits_4(self, tmp_path, monkeypatch, capsys):
        def fail(B):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        code = cli.run(["validate", "--config", write_cfg(tmp_path, base_e2_cfg())])
        assert code == 4
        assert "eigensolve of a theta class failed" in capsys.readouterr().err

    def test_an_uncaught_gate_error_follows_the_lines_before_it(self, monkeypatch, capsys):
        """validate prints each gate as it checks it: an error no gate
        catches exits with the lines of the gates before it on stdout."""
        path = str(CONFIGS / "linear_reflect_2x2.yaml")
        assert cli.run(["validate", "--config", path]) == 0
        lines = capsys.readouterr().out.splitlines()

        def broken(bspec):
            raise BoundaryMapError("non-finite derivative of boundary map 0")

        monkeypatch.setattr(bd, "validate_forcing", broken)
        assert cli.run(["validate", "--config", path]) == 3
        out, err = capsys.readouterr()
        before = lines[:[line.split(":")[0] for line in lines].index("theta") + 1]
        assert len(before) == 8 and out.splitlines() == before
        assert "hypothesis failure: non-finite derivative of boundary map 0" in err

    def test_prints_summary(self, tmp_path, capsys):
        cli.run(["validate", "--config", write_cfg(tmp_path, base_e2_cfg())])
        out = capsys.readouterr().out
        assert "theta" in out and "K_min" in out and "certificate" in out
        assert "hypotheses: PASS" in out

    @pytest.mark.parametrize("name", ["linear_damped_scalar", "linear_reflect_2x2",
                                      "quasilinear_euler_damping"])
    def test_prints_the_certificate_of_the_solve_set_up(self, name, capsys):
        """theta, M3 and the margin printed are those of the record the
        solve derives (``SweepContext.for_solve``) and reports."""
        path = CONFIGS / f"{name}.yaml"
        assert cli.run(["validate", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        cfg = cli.load_config(path)
        spec, bspec = cli._build(cfg, cfg.eps[0])
        cert = ps.SweepContext.for_solve(spec, bspec, cfg.solver.K).certificate
        assert f"M3: {cert.M3:.6g}" in lines
        assert f"theta: {cert.theta:.6g}" in lines
        margin = f"(margin {cert.margin:.6g})"
        assert any(line.startswith("certificate: ") and line.endswith(margin) for line in lines)

    @pytest.mark.parametrize("name", ["linear_damped_scalar", "linear_reflect_2x2",
                                      "quasilinear_euler_damping", "sweep_reflect"])
    def test_the_forcing_line_gives_the_measured_gain(self, name, capsys):
        """Every built-in map has dG/dh = 1; the line states it and names
        no rescaled signals."""
        path = CONFIGS / f"{name}.yaml"
        assert cli.run(["validate", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        cfg = cli.load_config(path)
        rep = bd.validate_forcing(cli._build(cfg, min(cfg.eps))[1])
        assert rep.max_gain == pytest.approx(1.0, abs=1e-9)
        forcing = [line for line in lines if line.startswith("forcing")]
        assert forcing == [f"forcing C1 norm: {rep.h_c1_max:.6g}, periodicity residual: "
                           f"{rep.periodicity_residual:.2e}, gain at origin: 1"]
        assert not any("rescaled" in line for line in lines)

    @pytest.mark.parametrize("argv", [["validate", "--jobs", "2"], ["validate", "--out", "o"],
                                      ["validate", "--seed", "1"], ["periodic", "--seed", "1"],
                                      ["stability", "--jobs", "2"]])
    def test_a_flag_the_subcommand_does_not_read_exits_2(self, argv):
        path = str(CONFIGS / "linear_reflect_2x2.yaml")
        assert cli.run(argv[:1] + ["--config", path] + argv[1:]) == 2


class TestPeriodic:
    def test_reflection_amplitude_reproduced(self, tmp_path):
        cfg = base_e2_cfg(Nt=64, Nx=64)
        out = tmp_path / "out"
        code = cli.run(["periodic", "--config", write_cfg(tmp_path, cfg),
                        "--out", str(out)])
        assert code == 0
        data = np.load(out / "field.npz")
        amp = np.abs(data["values"][:, -1, 0]).max()
        assert amp == pytest.approx(0.01 / 0.75, abs=2e-4)
        lines = (out / "iteration_report.csv").read_text().splitlines()
        assert lines[0] == "iteration,delta"
        side = json.loads((out / "iteration_report.json").read_text())
        assert side["converged"] is True
        assert side["certificate"]["ok"] is True

    def test_unconverged_exits_4(self, tmp_path):
        # gain close to 1 contracts too slowly for a 3-sweep budget
        cfg = base_e2_cfg(Nt=16, Nx=16, k=0.9)
        cfg["solver"]["max_iter"] = 3
        out = tmp_path / "out"
        code = cli.run(["periodic", "--config", write_cfg(tmp_path, cfg),
                        "--out", str(out)])
        assert code == 4

    def test_impossible_out_dir_exits_io(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg = base_e2_cfg(Nt=16, Nx=16)
        code = cli.run(["periodic", "--config", write_cfg(tmp_path, cfg),
                        "--out", str(blocker / "sub")])
        assert code == 5

    def test_deterministic_outputs(self, tmp_path):
        cfg = base_e2_cfg(Nt=32, Nx=32)
        cfg_path = write_cfg(tmp_path, cfg)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.run(["periodic", "--config", cfg_path, "--out", str(out)]) == 0
            outs.append((out / "iteration_report.csv").read_bytes())
        assert outs[0] == outs[1]


FLOOR_NOTE = ("note: the decay reached the discretization floor at transit {}: "
              "too few samples above it to fit")


def reflection_floor_cfg(N):
    """The reflection example at N x N, perturbed, over 8 transits."""
    cfg = base_e2_cfg(Nt=N, Nx=N)
    cfg["experiment"] = {"eps": [0.01],
                         "perturbation": 0.005, "t_end": 8.0,
                         "record_every": 0.25}
    return cfg


def reflection_stability(tmp_path, N):
    """A CLI stability run on the reflection example at N x N; returns its
    JSON sidecar."""
    out = tmp_path / "out"
    code = cli.run(["stability", "--config", write_cfg(tmp_path, reflection_floor_cfg(N)),
                    "--out", str(out)])
    assert code == 0
    lines = (out / "stability_report.csv").read_text().splitlines()
    assert lines[0] == "t,phi,dphi"
    return json.loads((out / "stability_report.json").read_text())


class TestStability:
    def test_reflection_decay(self, tmp_path, capsys):
        # one reflection with gain 0.5 per transit; the unperturbed run's
        # floor keeps the samples where Phi stopped falling out of the fit
        side = reflection_stability(tmp_path, 128)
        assert abs(side["fitted_decay"] - 0.5) <= 0.01
        assert "discretization floor" not in capsys.readouterr().out

    def test_a_decay_that_reaches_the_floor_fits_nothing_and_says_so(self, tmp_path, capsys):
        # at 64 x 64 only the samples at 0, 1 and 2 T0 sit above 10x the floor
        side = reflection_stability(tmp_path, 64)
        assert side["fitted_decay"] is None and side["floor_transit"] == 3
        lines = capsys.readouterr().out.splitlines()
        assert "stability: fitted per-transit decay None, derivative decay None" in lines
        assert lines[-1] == FLOOR_NOTE.format(3)

    @pytest.mark.parametrize("perturbation", [0.0, 0.005])
    def test_an_unperturbed_run_says_it_measures_no_decay(self, tmp_path, capsys,
                                                          perturbation):
        cfg = base_e2_cfg()
        cfg["experiment"] = {"eps": [0.01], "perturbation": perturbation,
                             "t_end": 4.0, "record_every": 0.5}
        code = cli.run(["stability", "--config", write_cfg(tmp_path, cfg),
                        "--out", str(tmp_path / "out")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        warned = [ln for ln in lines if "perturbation 0" in ln]
        if perturbation:
            assert warned == []
        else:
            assert warned == ["warning: perturbation 0: no decay is measured "
                              "(experiment.perturbation)"]
            assert "stability: fitted per-transit decay None, " in "\n".join(lines)

    @pytest.mark.parametrize("perturbation, marches", [(0.0, 1), (0.005, 2)])
    def test_an_unperturbed_run_is_its_own_floor_run(self, tmp_path, monkeypatch,
                                                     perturbation, marches):
        """The floor run is marched only when the initial data differ from
        the periodic state; otherwise the one run is both, and its deviation
        sits on its own floor from transit 0."""
        calls = []
        run = cli.ivp.run

        def counted(*args, **kwargs):
            calls.append(args[0])
            return run(*args, **kwargs)

        monkeypatch.setattr(cli.ivp, "run", counted)
        cfg = base_e2_cfg()
        cfg["experiment"] = {"eps": [0.01], "perturbation": perturbation,
                             "t_end": 4.0, "record_every": 0.5}
        out = tmp_path / "out"
        assert cli.run(["stability", "--config", write_cfg(tmp_path, cfg),
                        "--out", str(out)]) == 0
        assert len(calls) == marches
        if perturbation == 0:
            side = json.loads((out / "stability_report.json").read_text())
            assert side["floor_transit"] == 0 and side["fitted_decay"] is None


class TestSweep:
    def test_cells_and_aggregate(self, tmp_path):
        cfg = base_e2_cfg(Nt=32, Nx=32)
        cfg["experiment"] = {"eps": [0.005, 0.01],
                             "perturbation": 0.002, "t_end": 6.0,
                             "record_every": 0.25}
        out = tmp_path / "sweep"
        code = cli.run(["sweep", "--config", write_cfg(tmp_path, cfg),
                        "--out", str(out), "--jobs", "1"])
        assert code == 0
        rates = (out / "rates.csv").read_text().splitlines()
        assert rates[0].startswith("eps,fitted_beta,fitted_decay")
        assert len(rates) == 3
        for eps in ("0.005", "0.01"):
            assert (out / f"eps_{eps}" / "field.npz").exists()
            assert (out / f"eps_{eps}" / "stability_report.csv").exists()
        # amplitude roughly doubles with eps: check aggregate c0 column
        rows = [line.split(",") for line in rates[1:]]
        c0s = [float(r[4]) for r in rows]
        assert 1.8 < c0s[1] / c0s[0] < 2.2

    def test_process_pool_matches_one_job(self, tmp_path):
        """--jobs 2 sends each cell's RunConfig to a spawned worker; the
        aggregate and every cell's files match the in-process run."""
        cfg = base_e2_cfg(Nt=16, Nx=16)
        cfg["experiment"] = {"eps": [0.005, 0.01], "perturbation": 0.002,
                             "t_end": 2.0, "record_every": 0.25}
        path = write_cfg(tmp_path, cfg)
        for jobs in ("1", "2"):
            assert cli.run(["sweep", "--config", path, "--out",
                            str(tmp_path / jobs), "--jobs", jobs]) == 0
        files = sorted(p.relative_to(tmp_path / "1")
                       for p in (tmp_path / "1").rglob("*") if p.is_file())
        assert len(files) == 11  # rates.csv and five files per cell
        for rel in files:
            assert (tmp_path / "2" / rel).read_bytes() == (tmp_path / "1" / rel).read_bytes(), rel

    def test_a_cell_that_reaches_the_floor_says_so(self, tmp_path, capsys):
        # the 64 x 64 stability case above, as cells of a sweep: each cell
        # that fits nothing prints the stability note after its rates
        cfg = reflection_floor_cfg(64)
        cfg["experiment"]["eps"] = [0.01, 0.02]
        code = cli.run(["sweep", "--config", write_cfg(tmp_path, cfg),
                        "--out", str(tmp_path / "sweep"), "--jobs", "1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()[-4:]
        for (rates, note), eps, transit in zip((lines[:2], lines[2:]), ("0.01", "0.02"), (3, 2)):
            assert rates.startswith(f"eps={eps}: beta=") and rates.endswith(", decay=None")
            assert note == f"eps={eps}: " + FLOOR_NOTE.format(transit)

    def test_an_unwritable_aggregate_exits_io(self, tmp_path, capsys):
        cfg = base_e2_cfg(Nt=16, Nx=16)
        cfg["experiment"] = {"eps": [0.01], "perturbation": 0.002,
                             "t_end": 2.0, "record_every": 0.25}
        out = tmp_path / "sweep"
        (out / "rates.csv").mkdir(parents=True)
        code = cli.run(["sweep", "--config", write_cfg(tmp_path, cfg),
                        "--out", str(out), "--jobs", "1"])
        assert code == 5
        captured = capsys.readouterr()
        assert captured.err.startswith(f"i/o failure: cannot write {out / 'rates.csv'}: ")
        assert "cannot write" not in captured.out

    @pytest.mark.parametrize("eps", [[0.01, 0.01], [0.01, 0.005, 0.0100000001]])
    def test_two_cells_of_one_directory_exit_2(self, tmp_path, capsys, eps):
        """eps that agree to 6 significant digits name one directory,
        eps_0.01: the sweep runs no cell and writes nothing."""
        cfg = base_e2_cfg(Nt=16, Nx=16)
        cfg["experiment"] = {"eps": eps, "perturbation": 0.002,
                             "t_end": 2.0, "record_every": 0.25}
        out = tmp_path / "sweep"
        code = cli.run(["sweep", "--config", write_cfg(tmp_path, cfg),
                        "--out", str(out), "--jobs", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: 'experiment.eps' gives two cells the directory {out / 'eps_0.01'}\n")
        assert not out.exists()

    def test_failed_cell_keeps_its_row(self, tmp_path):
        # eps = 0.09 drives the reflected amplitude 1.33 eps past the
        # neighborhood radius 0.1; validation runs at the smallest eps only
        cfg = base_e2_cfg(Nt=16, Nx=16)
        cfg["experiment"] = {"eps": [0.09, 0.005],
                             "perturbation": 0.002, "t_end": 2.0,
                             "record_every": 0.25}
        out = tmp_path / "sweep"
        code = cli.run(["sweep", "--config", write_cfg(tmp_path, cfg),
                        "--out", str(out), "--jobs", "1"])
        assert code == 3
        rates = (out / "rates.csv").read_text().splitlines()
        assert rates[0].startswith("eps,fitted_beta,fitted_decay")
        assert rates[0].endswith(",exit_code")
        ok, failed = (line.split(",") for line in rates[1:])
        assert float(ok[0]) == 0.005 and ok[-1] == "0" and ok[4] != ""
        assert float(failed[0]) == 0.09 and failed[-1] == "3"
        assert failed[1:-1] == [""] * 4


@pytest.mark.parametrize("section, key, value", [
    ("grid", "Nt", 4),
    ("grid", "Nx", 7),
    ("grid", "Nt", float("inf")),
    ("solver", "max_iter", "abc"),
    ("solver", "max_iter", 2.5),
    ("solver", "max_iter", 0),
    ("solver", "tol", 0.0),
    ("solver", "tol", -1e-8),
    ("experiment", "t_end", 0.0),
    ("experiment", "record_every", -0.25),
    ("boundary", "T_star", -2.0),
    ("boundary", "T_star", 0.0),
    # YAML true (also yes, on) is a bool, not the number 1
    ("solver", "tol", True),
    ("solver", "max_iter", True),
    ("boundary", "T_star", True),
    ("experiment", "t_end", True),
    # a quoted number is a YAML str, not a number (a quoted 1e-10: see
    # test_exponents_without_a_dot_are_numbers; safe_dump leaves it unquoted)
    ("solver", "tol", "1.0e-10"),
    ("solver", "K", "0.1"),
    ("grid", "Nt", "32"),
    ("boundary", "T_star", "2"),
    ("experiment", "perturbation", "0.01"),
    ("solver", "tol", b"5"),  # !!binary
])
def test_bad_numbers_exit_2(tmp_path, capsys, section, key, value):
    data = base_e2_cfg()
    data[section][key] = value
    assert cli.run(["validate", "--config", write_cfg(tmp_path, data)]) == 2
    assert f"config error: '{section}.{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("key, edit", [
    ("experiment.eps", lambda d: d["experiment"].update(eps=["5"])),
    ("system.params.speed", lambda d: d["system"]["params"].update(speed="1.0")),
    ("boundary.gains.k", lambda d: d["boundary"]["gains"].update(k="0.5")),
    ("amplitude", lambda d: d["boundary"]["forcing"][0][0].update(amplitude="0.01")),
    ("harmonic", lambda d: d["boundary"]["forcing"][0][0].update(harmonic="2")),
    ("phase", lambda d: d["boundary"]["forcing"][0][0].update(phase="0.5")),
], ids=["eps_entry", "params", "gains", "amplitude", "harmonic", "phase"])
def test_quoted_numbers_in_nested_keys_exit_2(tmp_path, capsys, key, edit):
    """A quoted number is refused wherever a number goes, and the error
    names its key."""
    data = base_e2_cfg()
    edit(data)
    assert cli.run(["validate", "--config", write_cfg(tmp_path, data)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: '{key}' must be a finite number")


@pytest.mark.parametrize("eps", ["5", "0.01", "55", {"a": 1}])
def test_eps_neither_a_number_nor_a_list_exits_2(tmp_path, capsys, eps):
    """A string or mapping eps is refused whole, not read one character or
    key at a time."""
    data = base_e2_cfg()
    data["experiment"]["eps"] = eps
    assert cli.run(["validate", "--config", write_cfg(tmp_path, data)]) == 2
    assert capsys.readouterr().err == (
        f"config error: 'experiment.eps' must be a number or a list, got {eps!r}\n")


@pytest.mark.parametrize("edit", [
    lambda d: d["system"]["params"].update(speed=-1.0),
    lambda d: d["system"]["params"].update(domain_radius=0.0),
    lambda d: d["boundary"]["forcing"][0][0].update(harmonic="abc"),
    lambda d: d["boundary"]["forcing"][0][0].update(phase="xyz"),
    lambda d: d["experiment"].update(eps=[float("nan")]),
    lambda d: d["boundary"]["forcing"][0][0].update(amplitude=float("inf")),
    lambda d: d["system"].update(name=["linear_reflect_2x2"]),
    lambda d: d["system"].update(params=["speed"]),
    lambda d: d["boundary"].update(gains=0.5),
    lambda d: d["boundary"]["forcing"][0].append(0.5),
    lambda d: d.update(solver=None),
], ids=["speed", "domain_radius", "harmonic", "phase", "eps_nan", "amplitude_inf",
        "name_list", "params_list", "gains_number", "harmonic_number", "solver_null"])
def test_values_a_builder_rejects_exit_2(tmp_path, capsys, edit):
    data = base_e2_cfg()
    edit(data)
    assert cli.run(["validate", "--config", write_cfg(tmp_path, data)]) == 2
    assert "config error:" in capsys.readouterr().err


def euler_cfg():
    return yaml.safe_load((CONFIGS / "quasilinear_euler_damping.yaml").read_text())


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["boundary"].update(forcing=0.5), "boundary.forcing must be a list (one entry per family)"),
    (lambda d: d["boundary"].update(forcing=[0.5]), "each forcing entry must be a list of harmonics"),
    (lambda d: d["boundary"]["forcing"][0][0].pop("amplitude"),
     "each harmonic needs an amplitude"),
    (lambda d: d["boundary"]["forcing"][0][0].update(amplitude=-0.01),
     "'amplitude' must be nonnegative, got -0.01"),
    (lambda d: d["solver"].update(K=-1.0), "'solver.K' must be nonnegative, got -1.0"),
    (lambda d: d["experiment"].update(eps=[0.01, -0.01]),
     "'experiment.eps' must be nonnegative, got -0.01"),
    (lambda d: d["experiment"].update(perturbation=-0.005),
     "'experiment.perturbation' must be nonnegative, got -0.005"),
    (lambda d: d["experiment"].update(eps=[]), "'experiment.eps' must hold at least one value"),
    (lambda d: d.pop("grid"), "missing required section 'grid'"),
    (lambda d: d["boundary"]["forcing"].append([]), "forcing has 3 entries; system has 2"),
], ids=["forcing_number", "entry_number", "no_amplitude", "amplitude", "K", "eps",
        "perturbation", "eps_empty", "no_grid", "three_entries"])
def test_each_config_refusal_exits_2_with_its_message(tmp_path, capsys, edit, message):
    data = base_e2_cfg()
    edit(data)
    assert cli.run(["validate", "--config", write_cfg(tmp_path, data)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("system: [linear_reflect_2x2\n", "config does not parse"),
    ("- system\n- grid\n", "config root must be a mapping"),
])
def test_a_file_that_is_no_config_mapping_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert cli.run(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_a_scalar_eps_is_accepted(tmp_path):
    data = base_e2_cfg()
    data["experiment"]["eps"] = 0.01
    assert cli.load_config(write_cfg(tmp_path, data)).eps == [0.01]
    assert cli.run(["validate", "--config", write_cfg(tmp_path, data)]) == 0


@pytest.mark.parametrize("base, edit, line", [
    (euler_cfg, lambda d: d["system"]["params"].update(base_c=0.02),
     "structural hypotheses FAILED: signature is not (1, 1)"),
    (base_e2_cfg, lambda d: d["boundary"]["forcing"][0][0].update(harmonic=1.5),
     "forcing periodicity FAILED: forcing not 2.0-periodic"),
], ids=["euler_slow_sound", "harmonic_1.5"])
def test_a_failed_gate_exits_3_with_its_line(tmp_path, capsys, base, edit, line):
    data = base()
    edit(data)
    assert cli.run(["validate", "--config", write_cfg(tmp_path, data)]) == 3
    assert line in capsys.readouterr().out


def test_an_unconverged_stability_solve_exits_4(tmp_path, capsys):
    data = base_e2_cfg(Nt=16, Nx=16)
    data["solver"]["max_iter"] = 2
    code = cli.run(["stability", "--config", write_cfg(tmp_path, data),
                    "--out", str(tmp_path / "out")])
    assert code == 4
    assert "non-convergence: periodic solve did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["stability", "--seed", "-1"], ["sweep", "--seed", "-1"],
                                  ["sweep", "--jobs", "0"], ["sweep", "--jobs", "-2"]])
def test_a_seed_or_job_count_out_of_range_exits_2_before_any_solve(tmp_path, capsys, argv):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, base_e2_cfg(Nt=16, Nx=16))
    assert cli.run(argv[:1] + ["--config", path, "--out", str(out)] + argv[1:]) == 2
    assert f"argument {argv[1]}: must be at least" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, least", [
    ("grid", "Nt", 16.0, 8), ("grid", "Nx", 32.0, 8), ("solver", "max_iter", 200.0, 1),
])
def test_an_integer_written_with_a_decimal_point_exits_2(tmp_path, capsys, section, key,
                                                         value, least):
    """The config reads a size as the library does: 16.0 is no integer."""
    data = base_e2_cfg()
    data[section][key] = value
    assert cli.run(["validate", "--config", write_cfg(tmp_path, data)]) == 2
    assert capsys.readouterr().err == (
        f"config error: '{section}.{key}' must be an integer of at least {least}, "
        f"got {value!r}\n")


def test_the_solver_section_is_read_into_an_iteration_config(tmp_path):
    cfg = cli.load_config(write_cfg(tmp_path, base_e2_cfg(Nt=16, Nx=32)))
    assert cfg.solver == ps.IterationConfig(Nt=16, Nx=32, K=1e-6, tol=1e-10, max_iter=200)


def test_a_run_that_leaves_the_neighborhood_warns_and_exits_0(tmp_path, capsys):
    data = base_e2_cfg()
    data["experiment"]["perturbation"] = 0.2
    assert cli.run(["stability", "--config", write_cfg(tmp_path, data),
                    "--out", str(tmp_path / "out")]) == 0
    assert "warning: run stopped before t_end (left the neighborhood)" in (
        capsys.readouterr().out.splitlines())


def test_a_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    """The text decoding's ValueError is refused like every other value."""
    path = tmp_path / "cfg.yaml"
    path.write_bytes(b"system: {name: linear_reflect_2x2}\n# \xff\xfe\n")
    assert cli.run(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: 'utf-8' codec can't decode")
