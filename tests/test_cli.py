import json

import numpy as np
import pytest

from blocklaser import cli
from blocklaser.cli import ConfigError, main, resolve_config


def read_table(path):
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            if ": " in line[2:]:
                key, _, value = line[2:].partition(": ")
                meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return meta, columns, np.array(rows)


def test_config_precedence(tmp_path):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text("command: steady\nn: 7\nw: 0.3\n")
    cfg = resolve_config(["--config", str(cfg_file), "--n", "9"])
    assert cfg["command"] == "steady"
    assert cfg["n"] == 9          # flag beats file
    assert cfg["w"] == 0.3        # file beats default
    cfg = resolve_config(["sweep", "--config", str(cfg_file)])
    assert cfg["command"] == "sweep"  # positional beats file


def test_preset_supplies_command_and_parameters():
    cfg = resolve_config(["--preset", "fig2a-blockaded"])
    assert cfg["command"] == "sweep"
    assert cfg["engine"] == "cumulant"
    assert cfg["n"] == 100000
    cfg = resolve_config(["g2", "--preset", "fig2c", "--n", "10"])
    assert cfg["command"] == "g2"
    assert cfg["n"] == 10


def test_missing_command_is_a_config_error():
    with pytest.raises(ConfigError):
        resolve_config(["--n", "4"])


def test_unknown_config_key_rejected(tmp_path):
    cfg_file = tmp_path / "run.yaml"
    # removed options are unknown keys too
    for key in ("bogus_knob", "reltol", "threads", "abstol"):
        cfg_file.write_text(f"command: steady\n{key}: 3\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config(["--config", str(cfg_file)])


@pytest.mark.parametrize("key,value", [
    ("engine", "symetric"), ("format", "jsn"), ("w_scale", "logg"),
    ("w_unit", "kelvin"), ("dt", "abc"), ("omega_max", "abc"), ("n", "3.7"),
    ("n", "true"), ("n", "null"), ("draws", "2.5"),
])
def test_config_file_value_outside_its_type_is_config_error(key, value,
                                                            tmp_path, capsys):
    # checked like a flag before any command runs, instead of being echoed
    # and run as something else, truncated or ending in a traceback
    cfg = {"command": "steady", "n": "3", "g": "0.5", key: value}
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text("".join(f"{k}: {v}\n" for k, v in cfg.items()))
    assert main(["--config", str(cfg_file),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert f"config error: {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("n", "0"), ("m", "0"), ("seed", "-1"),
                                       ("tol_obs", "nan")])
def test_validate_flag_outside_its_domain_exits_before_solving(key, value,
                                                               monkeypatch,
                                                               capsys):
    def solve(cfg):
        raise AssertionError("handler ran")

    monkeypatch.setitem(cli._HANDLERS, "validate", solve)
    flag = "--" + key.replace("_", "-")
    assert main(["validate", "--draws", "1", flag, value]) == 2
    assert f"config error: {key} must be" in capsys.readouterr().err


def test_config_file_values_are_typed_like_flags(tmp_path):
    # YAML reads 1e-3 as a string and 1 as an int; both take the flag's type
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text("command: validate\ntol_obs: 1e-3\n")
    cfg = resolve_config(["--config", str(cfg_file)])
    assert cfg["tol_obs"] == 0.001 and type(cfg["tol_obs"]) is float
    out = tmp_path / "steady.csv"
    cfg_file.write_text("command: steady\nn: 3\ng: 0.5\nkappa: 1\n")
    assert main(["--config", str(cfg_file), "--out", str(out)]) == 0
    meta, _, _ = read_table(out)
    assert meta["kappa"] == "1.0"


def test_presets_and_table_agree():
    for preset in cli.PRESETS.values():
        for key, value in preset.items():
            if key == "command":
                assert value in cli.COMMANDS
            else:
                assert cli._checked(key, value) == value
    read = set().union(*cli.READS.values()) | {"out", "format"}
    assert set(cli.OPTIONS) <= read


def test_nested_config_mapping_is_config_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text("command: sweep\nw:\n  min: 0.1\n  max: 1.0\n")
    assert main(["--config", str(cfg_file)]) == 2
    assert "'w' holds a mapping" in capsys.readouterr().err


def test_steady_csv_matches_api(tmp_path):
    out = tmp_path / "steady.csv"
    rc = main(["steady", "--n", "4", "--m", "1", "--g", "0.5", "--kappa", "1.0",
               "--w", "0.2", "--out", str(out)])
    assert rc == 0
    meta, columns, rows = read_table(out)
    assert columns == ["w", "w_tilde", "nb", "spsm", "sz"]
    from blocklaser import (ModelParams, enumerate_sector, build_liouvillian,
                            trace_functional, steady_state, expect_photon_number)
    p = ModelParams(4, 1, 0.5, 1.0, 0.2)
    sector = enumerate_sector(4, 1, 0)
    ss = steady_state(build_liouvillian(p, sector), trace_functional(sector))
    assert rows[0, 2] == pytest.approx(expect_photon_number(ss), rel=1e-12)
    assert meta["command"] == "steady"


def test_pump_unit_conversion(tmp_path):
    out = tmp_path / "u.csv"
    main(["steady", "--n", "10", "--m", "1", "--g", "0.3", "--kappa", "2.0",
          "--w", "1.5", "--w-unit", "kappa-over-n", "--out", str(out)])
    _, _, rows = read_table(out)
    assert rows[0, 0] == pytest.approx(1.5 * 2.0 / 10)
    assert rows[0, 1] == pytest.approx(1.5)
    main(["steady", "--n", "10", "--m", "1", "--g", "0.3", "--kappa", "2.0",
          "--w", "2.0", "--w-unit", "ncgamma", "--out", str(out)])
    _, _, rows = read_table(out)
    assert rows[0, 0] == pytest.approx(2.0 * 10 * 0.3 ** 2 / 2.0)


def test_sweep_grids(tmp_path):
    base = ["sweep", "--n", "12", "--m", "1", "--kappa-tilde", "0.4",
            "--w-min", "0.3", "--w-max", "2.0", "--w-steps", "5",
            "--w-unit", "kappa-over-n"]
    out1 = tmp_path / "a.csv"
    assert main(base + ["--out", str(out1)]) == 0
    _, _, rows = read_table(out1)
    assert np.allclose(rows[:, 1], np.linspace(0.3, 2.0, 5))
    assert np.all(np.diff(rows[:, 0]) > 0)
    out3 = tmp_path / "c.csv"
    assert main(base[:-2] + ["--w-unit", "kappa-over-n", "--w-scale", "log",
                             "--out", str(out3)]) == 0
    _, _, rows3 = read_table(out3)
    assert np.allclose(rows3[:, 1], np.geomspace(0.3, 2.0, 5))


def test_identical_runs_are_bit_identical(tmp_path):
    args = ["sweep", "--n", "8", "--m", "1", "--g", "0.4", "--w-min", "0.1",
            "--w-max", "1.0", "--w-steps", "4"]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_identical_g1_runs_with_geometric_tail_are_bit_identical(tmp_path):
    # the tail's long steps need onenormest's random norm estimates; the
    # global RNG moves in between, as in a longer session
    args = ["g1", "--n", "16", "--m", "1", "--g", "0.45", "--kappa", "1.0",
            "--w", "0.25", "--dt", "0.2", "--t-dense", "4.0",
            "--t-max", "500.0", "--n-tail", "12",
            "--fit-t-min", "50.0", "--fit-t-max", "500.0"]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    np.random.seed(1)
    assert main(args + ["--out", str(out1)]) == 0
    np.random.seed(2)
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_g1_runs_with_an_analytic_tail_are_bit_identical(tmp_path):
    # the correlation benchmark's fig2b point at N = 24: its tail turns
    # into the closed-form one-mode decay, and the header says where
    args = ["g1", "--preset", "fig2b", "--n", "24", "--g", repr(24 ** -0.5)]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    np.random.seed(1)
    assert main(args + ["--out", str(out1)]) == 0
    np.random.seed(2)
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta, _, rows = read_table(out1)
    delay = float(meta["analytic_tail_delay"])
    eigenvalue = complex(meta["analytic_tail_eigenvalue"])
    assert 50.0 < delay < 1500.0 and eigenvalue.real < 0.0
    # the walk's product count sits next to the tail delay
    keys = list(meta)
    assert keys.index("propagation_matvecs") + 1 == keys.index(
        "analytic_tail_delay")
    assert 0 < int(meta["propagation_matvecs"]) <= 5600
    assert rows[-1, 0] == 1500.0
    # a dense-only trace is propagated to its last delay
    out3 = tmp_path / "r3.csv"
    assert main(args + ["--t-max", "40.0", "--t-dense", "40.0",
                        "--n-tail", "0", "--out", str(out3)]) == 0
    meta, _, _ = read_table(out3)
    assert meta["analytic_tail_delay"] == "None"
    assert meta["analytic_tail_eigenvalue"] == "None"


def test_invalid_sweep_range_is_config_error(tmp_path):
    rc = main(["sweep", "--n", "8", "--m", "1", "--g", "0.4",
               "--w-min", "2.0", "--w-max", "1.0", "--w-steps", "4",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("key,value", [("w_min", "nan"), ("w_max", "nan"),
                                       ("w_max", "inf"), ("w_min", "-inf")])
def test_non_finite_sweep_bound_is_config_error(key, value, tmp_path, capsys):
    # a NaN bound passed the w_max > w_min check (comparisons with NaN are
    # false) and stopped later in model.validate, naming the pump field
    bounds = {"w_min": "0.1", "w_max": "1.0", key: value}
    flags = ["--" + k.replace("_", "-") + "=" + v for k, v in bounds.items()]
    out = str(tmp_path / "x.csv")
    assert main(["sweep", "--n", "3", "--g", "0.5", "--w-steps", "2",
                 "--out", out] + flags) == 2
    assert f"config error: {key} must be finite" in capsys.readouterr().err
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text("command: sweep\nn: 3\ng: 0.5\nw_steps: 2\n"
                        + "".join(f"{k}: {v}\n" for k, v in bounds.items()))
    assert main(["--config", str(cfg_file), "--out", out]) == 2
    assert f"config error: {key} must be finite" in capsys.readouterr().err


def test_missing_coupling_is_config_error():
    assert main(["steady", "--n", "4", "--m", "1", "--w", "0.2"]) == 2


@pytest.mark.parametrize("given", [["--kappa-tilde", "-1"],
                                   ["--kappa-tilde", "0.3", "--kappa", "0"]])
def test_kappa_tilde_outside_its_range_is_config_error(given, capsys):
    assert main(["steady", "--n", "4", "--w", "0.2"] + given) == 2
    assert "kappa, kappa_tilde must be positive" in capsys.readouterr().err


def test_conflicting_coupling_flags():
    assert main(["steady", "--n", "4", "--m", "1", "--g", "0.2",
                 "--kappa-tilde", "0.3", "--w", "0.2"]) == 2


def test_solver_failure_exit_code(tmp_path):
    # frozen atoms: degenerate steady state -> exit 3
    rc = main(["steady", "--n", "3", "--m", "1", "--g", "0.0", "--w", "0.0",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 3


def test_g1_g2_and_spectrum_outputs(tmp_path):
    common = ["--n", "6", "--m", "1", "--g", "0.45", "--kappa", "1.0",
              "--w", "0.25", "--dt", "0.2", "--t-dense", "12.0"]
    g1_out = tmp_path / "g1.csv"
    assert main(["g1"] + common + ["--out", str(g1_out)]) == 0
    meta, columns, rows = read_table(g1_out)
    assert columns == ["t", "re", "im", "abs"]
    assert rows[0, 1] == pytest.approx(1.0, abs=1e-10)
    assert np.abs(rows[:, 3]).max() <= 1.0 + 1e-9

    g2_out = tmp_path / "g2.csv"
    assert main(["g2"] + common + ["--out", str(g2_out)]) == 0
    meta, columns, rows = read_table(g2_out)
    assert columns == ["t", "g2"]
    assert abs(rows[0, 1]) < 1e-12
    assert meta["analytic_tail_delay"] == "None"   # a dense-only trace
    assert meta["analytic_tail_eigenvalue"] == "None"
    assert int(meta["propagation_matvecs"]) > 0

    sp_out = tmp_path / "s.csv"
    assert main(["spectrum"] + common + ["--t-dense", "120.0",
                                         "--omega-max", "4.0",
                                         "--omega-points", "801",
                                         "--out", str(sp_out)]) == 0
    meta, columns, rows = read_table(sp_out)
    assert columns == ["omega", "s"]
    area = np.trapezoid(rows[:, 1], rows[:, 0])
    assert area == pytest.approx(1.0, abs=0.1)
    assert "omega_eff" in meta
    assert meta["analytic_tail_delay"] == "None"   # a dense-only trace
    assert int(meta["propagation_matvecs"]) > 0


def test_header_echoes_fit_window_only_where_read(tmp_path):
    # g2 never fits, so the preset's fit window stays out of its header
    headers = {}
    for command in ("g1", "g2"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--preset", "fig2c", "--n", "4",
                     "--out", str(out)]) == 0
        headers[command], _, _ = read_table(out)
    assert not [k for k in headers["g2"] if k.startswith("fit_")]
    assert headers["g1"]["fit_t_min"] == "30.0"
    assert headers["g1"]["fit_t_max"] == "4500.0"


class _ReadLog(dict):
    """A config dict that records every key read from it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("argv", [
    ["steady", "--n", "3", "--g", "0.5"],
    ["sweep", "--n", "3", "--g", "0.5", "--w-min", "0.1", "--w-max", "0.5",
     "--w-steps", "2"],
    ["g1", "--n", "3", "--g", "0.5", "--t-dense", "2", "--t-max", "40",
     "--n-tail", "4", "--fit-t-min", "10", "--fit-t-max", "40"],
    ["g2", "--n", "3", "--g", "0.5", "--t-dense", "2"],
    ["spectrum", "--n", "3", "--g", "0.5", "--t-dense", "80",
     "--omega-points", "11"],
    ["cumulant", "--n", "30", "--g", "0.1", "--engine", "cumulant"],
    ["validate", "--n", "2", "--m", "1", "--draws", "1",
     "--trace-points", "5"],
])
def test_header_echoes_the_keys_the_command_reads(tmp_path, argv):
    out = tmp_path / "out.csv"
    cfg = _ReadLog(resolve_config(argv + ["--out", str(out)]))
    assert cli._HANDLERS[cfg["command"]](cfg) == 0
    meta, _, _ = read_table(out)
    read = cfg.read - {"command", "preset", "out"}
    echoed = set(meta) & set(cli.DEFAULTS)
    assert echoed == {k for k in read if cfg[k] is not None}


def test_spectrum_default_band_takes_omega_points(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--n", "3", "--m", "1", "--g", "0.5", "--w", "0.5",
                 "--t-dense", "80", "--omega-points", "11",
                 "--out", str(out)]) == 0
    meta, _, rows = read_table(out)
    assert meta["omega_points"] == "11"
    assert len(rows) == 11
    # the band is +- pi / (4 dt) of the default dt
    assert rows[-1, 0] == pytest.approx(np.pi / (4 * 0.05), rel=1e-12)


@pytest.mark.parametrize("command,given,message", [
    ("g1", ["--t-max", "200"], "t_max beyond t_dense needs n_tail"),
    ("g2", ["--t-max", "200"], "t_max beyond t_dense needs n_tail"),
    ("spectrum", ["--n-tail", "20"], "n_tail needs t_max beyond t_dense"),
    ("g1", ["--n-tail", "20"], "n_tail needs t_max beyond t_dense"),
    ("g1", ["--t-max", "20", "--n-tail", "10"],
     "n_tail needs t_max beyond t_dense"),
    ("g1", ["--fit-t-min", "10"], "fit_t_min needs fit_t_max"),
    ("spectrum", ["--fit-t-max", "30"], "fit_t_max needs fit_t_min"),
])
def test_half_given_option_pair_is_config_error(command, given, message,
                                                capsys):
    # raised before any solve, instead of echoing the half and ignoring it
    argv = [command, "--n", "3", "--m", "1", "--g", "0.5", "--w", "0.5"]
    assert main(argv + given) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["g1", "--dt", "0"], "dt must be positive"),
    (["g1", "--dt", "-0.1"], "dt must be positive"),
    (["g2", "--t-dense", "-1"], "t_dense must be non-negative"),
    (["validate", "--trace-points", "0"], "trace_points must be at least 1"),
    (["validate", "--draws", "0"], "draws must be at least 1"),
    (["spectrum", "--omega-points", "0"], "omega_points must be at least 1"),
    (["spectrum", "--t-dense", "0"], "spectrum needs at least two delays"),
    (["spectrum", "--omega-max", "nan"], "omega_max must be positive"),
    (["spectrum", "--omega-max", "0"], "omega_max must be positive"),
    (["spectrum", "--omega-max", "-2"], "omega_max must be positive"),
    (["spectrum", "--omega-max", "inf"], "omega_max must be positive"),
])
def test_invalid_grid_or_draw_count_is_config_error(argv, message, capsys):
    # raised before any solve instead of a traceback from the numerics
    assert main(argv + ["--n", "3", "--m", "1", "--g", "0.3"]) == 2
    assert message in capsys.readouterr().err


def test_cumulant_of_uncoupled_lossless_mode_is_solver_error(capsys):
    assert main(["cumulant", "--n", "5", "--g", "0", "--kappa", "0",
                 "--w", "0.3"]) == 3
    assert ("g = 0 and kappa = 0 leave the mode occupation undetermined"
            in capsys.readouterr().err)


@pytest.mark.parametrize("engine,header", [([], "cumulant"),
                                           (["--engine", "symmetric"], "cumulant"),
                                           (["--engine", "cumulant-normal"],
                                            "cumulant-normal")])
def test_cumulant_header_names_the_variant_that_ran(engine, header, tmp_path):
    out = tmp_path / "c.csv"
    assert main(["cumulant", "--n", "30", "--g", "0.1", "--out", str(out)]
                + engine) == 0
    meta, _, _ = read_table(out)
    assert meta["engine"] == header


def test_tail_grid_override_to_dense_only_still_runs(tmp_path):
    # t_max at the end of the dense grid needs no tail (README's g2 example)
    out = tmp_path / "g2.csv"
    assert main(["g2", "--preset", "fig2c", "--n", "4", "--t-dense", "2",
                 "--t-max", "2", "--n-tail", "0", "--out", str(out)]) == 0
    _, _, rows = read_table(out)
    assert len(rows) == 41


def test_cumulant_command_reports_closed_forms(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["cumulant", "--n", "100000", "--m", "1",
                 "--kappa-tilde", "0.25", "--w", "1.0",
                 "--w-unit", "kappa-over-n", "--out", str(out)]) == 0
    _, columns, rows = read_table(out)
    k = columns.index("nb_closed_form")
    assert rows[0, k] == 0.375
    assert rows[0, columns.index("nb")] == pytest.approx(0.375, abs=2e-4)


def test_structured_output_parses(tmp_path, capsys):
    rc = main(["steady", "--n", "3", "--m", "1", "--g", "0.4", "--w", "0.3",
               "--format", "structured"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"] == "blocklaser"
    assert doc["columns"] == ["w", "w_tilde", "nb", "spsm", "sz"]
    assert len(doc["data"]) == 1


def test_validate_roundtrip_and_failure_exit(tmp_path):
    out = tmp_path / "v.csv"
    rc = main(["validate", "--n", "2", "--m", "1", "--seed", "7",
               "--draws", "3", "--out", str(out)])
    assert rc == 0
    meta, columns, rows = read_table(out)
    assert float(meta["max_observable_deviation"]) < 1e-8
    assert float(meta["max_trace_deviation"]) < 1e-6
    # absurdly tight tolerance must flip the exit code to 4
    rc = main(["validate", "--n", "2", "--m", "1", "--seed", "7",
               "--draws", "2", "--tol-obs", "1e-30",
               "--out", str(tmp_path / "v2.csv")])
    assert rc == 4


def test_validate_rejects_oversized_system(tmp_path):
    rc = main(["validate", "--n", "7", "--m", "2", "--draws", "1",
               "--out", str(tmp_path / "v.csv")])
    assert rc == 2


def test_blockaded_preset_sweep_peaks_near_expected_pump(tmp_path):
    # coarse override of the preset grid around the expected maximum
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--preset", "fig2a-blockaded", "--w-min", "0.8",
               "--w-max", "2.4", "--w-steps", "17", "--out", str(out)])
    assert rc == 0
    meta, columns, rows = read_table(out)
    wt = rows[:, columns.index("w_tilde")]
    nb = rows[:, columns.index("nb")]
    assert wt[int(np.argmax(nb))] == pytest.approx(1.6, abs=0.15)
    assert np.nanmax(rows[:, columns.index("spsm")]) <= 0.125 + 1e-6


def test_preset_override_keeps_it_fast(tmp_path):
    # fig2c parameters scaled down for a smoke run; flags override the preset
    out = tmp_path / "g1.csv"
    rc = main(["g1", "--preset", "fig2c", "--n", "8", "--t-max", "60.0",
               "--n-tail", "10", "--fit-t-min", "20", "--fit-t-max", "60",
               "--out", str(out)])
    assert rc == 0
    meta, _, rows = read_table(out)
    assert meta["preset"] == "fig2c"
    assert rows[0, 1] == pytest.approx(1.0, abs=1e-10)
