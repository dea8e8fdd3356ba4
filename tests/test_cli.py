"""Tests for the command-line front end: config parsing, CSV output,
reproducibility across runs and thread counts, and exit codes."""

import json
import math

import pytest

from hetnetcov import mcsim
from hetnetcov.cli import (
    ConfigError,
    _params_at,
    db_to_linear,
    linear_to_db,
    load_config,
    main,
    run_sweep,
)


def base_config(**overrides):
    cfg = {
        "alpha": 3.0,
        "noise_db": -40.0,
        "tiers": [
            {"lambda": 1.0, "power": 25.0, "beta_db": 5.0, "m": 1},
            {"lambda": 5.0, "power": 1.0, "beta_db": 1.0, "m": 1},
        ],
        "sweep": {"variable": "beta1_db", "start": 1.0, "stop": 10.0,
                  "points": 4, "methods": ["closed", "mc"]},
        "sim": {"n_geometry": 200, "n_fading": 10, "seed": 11},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestDbConversion:
    def test_round_trip(self):
        for db in (-40.0, -3.0, 0.0, 1.0, 20.0):
            assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)

    def test_known_values(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(3.0) == pytest.approx(1.9952623149688795)


class TestLoadConfig:
    def test_shipped_configs_load(self):
        for name in ("fig1_coverage", "fig2_coverage_noise", "fig3_rate",
                     "fig1_nakagami23"):
            config = load_config(f"configs/{name}.json")
            assert config.params.alpha == 3.0

    def test_fields_converted_to_linear(self, tmp_path):
        config = load_config(write_config(tmp_path, base_config()))
        assert config.params.noise == pytest.approx(1e-4)
        assert config.params.tiers[0].threshold == pytest.approx(db_to_linear(5.0))

    def test_threshold_at_most_zero_db_rejected(self, tmp_path):
        cfg = base_config()
        cfg["tiers"][0]["beta_db"] = -1.0
        with pytest.raises(ConfigError, match="exceed 1"):
            load_config(write_config(tmp_path, cfg))

    def test_missing_field_named(self, tmp_path):
        cfg = base_config()
        del cfg["alpha"]
        with pytest.raises(ConfigError, match="alpha"):
            load_config(write_config(tmp_path, cfg))
        cfg = base_config()
        del cfg["tiers"][1]["power"]
        with pytest.raises(ConfigError, match=r"tiers\[1\].power"):
            load_config(write_config(tmp_path, cfg))

    def test_bad_json_line_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"alpha": 3.0,\n  "noise_db": }\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    def test_unknown_sweep_variable(self, tmp_path):
        cfg = base_config()
        cfg["sweep"]["variable"] = "power1"
        with pytest.raises(ConfigError, match="sweep.variable"):
            load_config(write_config(tmp_path, cfg))

    def test_rayleigh_requires_unit_shapes(self, tmp_path):
        cfg = base_config()
        cfg["tiers"][0]["m"] = 2
        cfg["sweep"]["methods"] = ["rayleigh"]
        with pytest.raises(ConfigError, match="rayleigh"):
            load_config(write_config(tmp_path, cfg))

    def test_degenerate_sweep_rejected(self, tmp_path):
        cfg = base_config()
        cfg["sweep"]["points"] = 1
        with pytest.raises(ConfigError, match="points"):
            load_config(write_config(tmp_path, cfg))
        cfg = base_config()
        cfg["sweep"]["start"] = cfg["sweep"]["stop"]
        with pytest.raises(ConfigError, match="start"):
            load_config(write_config(tmp_path, cfg))


class TestRunSweep:
    def test_rows_cover_sweep(self, tmp_path):
        config = load_config(write_config(tmp_path, base_config()))
        rows = run_sweep(config)
        assert [r["sweep_db"] for r in rows] == [1.0, 4.0, 7.0, 10.0]
        for row in rows:
            assert 0.0 <= row["closed"] <= 1.0
            assert 0.0 <= row["mc"] <= 1.0
            assert row["mc_se"] >= 0.0

    def test_bits_scale_rate(self, tmp_path):
        cfg = base_config()
        cfg["sweep"]["methods"] = ["closed"]
        config = load_config(write_config(tmp_path, cfg))
        nats = run_sweep(config, rate=True)
        bits = run_sweep(config, rate=True, bits=True)
        for a, b in zip(nats, bits):
            assert b["closed"] == pytest.approx(a["closed"] / math.log(2.0))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rate", [False, True])
    def test_noise_sweep_one_pass_matches_per_point(self, tmp_path, rate, threads):
        # The sweep simulates once and re-derives the SINR at each noise
        # power; that must equal a fresh simulation at every point.
        cfg = base_config()
        cfg["sweep"] = {"variable": "noise_db", "start": -20.0, "stop": 30.0,
                        "points": 3, "methods": ["mc"]}
        config = load_config(write_config(tmp_path, cfg))
        rows = run_sweep(config, rate=rate, threads=threads)
        for row in rows:
            params = _params_at(config, row["sweep_db"])
            if rate:
                est, _ = mcsim.mc_conditional_rate(params, config.sim, threads=threads)
            else:
                est = mcsim.mc_coverage(params, config.sim, threads=threads)
            assert row["mc"] == est.mean
            assert row["mc_se"] == est.std_error

    def test_nakagami_sweep_unique_integers(self, tmp_path):
        cfg = base_config()
        cfg["sweep"] = {"variable": "nakagami_pair", "start": 1.0, "stop": 3.0,
                        "points": 5, "methods": ["closed"]}
        config = load_config(write_config(tmp_path, cfg))
        rows = run_sweep(config)
        assert [r["sweep_db"] for r in rows] == [1.0, 2.0, 3.0]


class TestMain:
    def test_golden_reproducible_csv(self, tmp_path):
        path = write_config(tmp_path, base_config())
        outs = []
        for threads, name in ((1, "a.csv"), (3, "b.csv"), (1, "c.csv")):
            out = tmp_path / name
            rc = main(["--config", path, "--output", str(out),
                       "--threads", str(threads)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        header = outs[0].decode().splitlines()[0]
        assert header == "sweep_db,closed,mc,mc_se"

    def test_stdout_csv(self, tmp_path, capsys):
        cfg = base_config()
        cfg["sweep"]["methods"] = ["closed", "rayleigh"]
        cfg["tiers"][0]["beta_db"] = 1.0
        path = write_config(tmp_path, cfg)
        assert main(["--config", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "sweep_db,closed,rayleigh"
        assert len(lines) == 5

    def test_seed_override_changes_mc(self, tmp_path):
        path = write_config(tmp_path, base_config())
        a, b = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["--config", path, "--output", str(a), "--seed", "1"]) == 0
        assert main(["--config", path, "--output", str(b), "--seed", "2"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_rate_flag(self, tmp_path, capsys):
        cfg = base_config()
        cfg["sweep"]["methods"] = ["closed"]
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "--rate"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # Conditional rates at these thresholds sit well above 1 nat.
        assert all(float(line.split(",")[1]) > 1.0 for line in lines[1:])

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = base_config()
        cfg["tiers"][0]["beta_db"] = -3.0
        path = write_config(tmp_path, cfg)
        assert main(["--config", path]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("shape, shown", [(2.7, "2.7"), (2.0, "2.0"), ("2", '"2"'),
                                              (True, "true")])
    def test_non_integer_shape_exit_code(self, tmp_path, capsys, shape, shown):
        # int() would read 2.7 as 2 and true as 1: the simulator would draw
        # another fading law than the config names.
        cfg = base_config()
        cfg["tiers"][1]["m"] = shape
        assert main(["--config", write_config(tmp_path, cfg)]) == 1
        assert f"'tiers[1].m' must be an integer, got {shown}" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.json")]) == 1
        assert "config error" in capsys.readouterr().err
