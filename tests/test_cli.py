"""Tests for the command-line front end: config parsing, CSV output,
reproducibility across runs, and exit codes."""

import json
import math
import re
import warnings
from dataclasses import replace

import pytest

from hetnetcov import analysis, mcsim, model, pla
from hetnetcov.cli import (
    ConfigError,
    _blocks,
    _params_at,
    _swept,
    db_to_linear,
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
        # Tier 1: the beta1_db sweep replaces tier 0's threshold.
        cfg = base_config()
        cfg["tiers"][1]["beta_db"] = -1.0
        with pytest.raises(ConfigError, match="^tier 1: SINR threshold must exceed 1"):
            load_config(write_config(tmp_path, cfg))

    def test_beta1_sweep_ignores_config_threshold(self, tmp_path, capsys):
        # The sweep sets tier 0's threshold at every point, so the config's
        # own value is neither validated nor used.
        with open("configs/fig1_coverage.json") as fh:
            cfg = json.load(fh)
        cfg["tiers"][0]["beta_db"] = 0.0
        config = load_config(write_config(tmp_path, cfg))
        assert config.params.tiers[0].threshold == 1.0
        outputs = []
        for beta_db in (0.0, 5.0):
            cfg = base_config()
            cfg["sweep"]["methods"] = ["closed", "reference", "mc"]
            cfg["tiers"][0]["beta_db"] = beta_db
            assert main(["--config", write_config(tmp_path, cfg)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_beta1_sweep_start_validated(self, tmp_path, capsys):
        cfg = base_config()
        cfg["sweep"]["start"] = 0.0
        assert main(["--config", write_config(tmp_path, cfg)]) == 1
        assert ("config error: at 'sweep.start' = 0.0: tier 0: SINR threshold must exceed 1"
                in capsys.readouterr().err)

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
        # Five points from 1.0 to 1.4 all round to M = 1: one row.
        cfg = base_config()
        cfg["sweep"] = {"variable": "nakagami_pair", "start": 1.0, "stop": 1.4,
                        "points": 5, "methods": ["closed"]}
        with pytest.raises(ConfigError, match=re.escape(
                "'sweep.start' = 1.0 and 'sweep.stop' = 1.4 round to one Nakagami shape")):
            load_config(write_config(tmp_path, cfg))

    @pytest.mark.parametrize("variable, start, stop, key", [
        ("noise_db", -20.0, 4000.0, "'sweep.stop' is 4000.0 dB, too large for a float"),
        ("nakagami_pair", 1.0, 17.0, "at 'sweep.stop' = 17.0: tier 0: nakagami_m 17 exceeds"),
        ("nakagami_pair", 0.4, 3.0, "at 'sweep.start' = 0.4: tier 0: nakagami_m must be"),
    ])
    def test_sweep_ends_validated(self, tmp_path, variable, start, stop, key):
        # Every sweep variable is checked at both ends, on load.
        cfg = base_config()
        cfg["sweep"] = {"variable": variable, "start": start, "stop": stop,
                        "points": 3, "methods": ["closed"]}
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(write_config(tmp_path, cfg))


    def test_sim_defaults_and_region_radius(self, tmp_path):
        cfg = base_config(sim={"region_radius": 12.5})
        sim = load_config(write_config(tmp_path, cfg)).sim
        assert (sim.n_geometry, sim.n_fading, sim.seed, sim.region_radius) == (1000, 100, 0, 12.5)
        del cfg["sim"]
        assert load_config(write_config(tmp_path, cfg)).sim.region_radius is None


# One case per rejection path of the strict parser: (where the bad value
# goes, the value, the field the message must name).
STRICT_CASES = {
    "unknown-top": (("comment",), "x", "'comment'"),
    "unknown-tier": (("tiers", 1, "beta"), 1.0, "'tiers[1].beta'"),
    "unknown-sweep": (("sweep", "point"), 4, "'sweep.point'"),
    "unknown-sim": (("sim", "n_fadings"), 10, "'sim.n_fadings'"),
    "points-float": (("sweep", "points"), 2.5, "'sweep.points' must be an integer, got 2.5"),
    "n_geometry-float": (("sim", "n_geometry"), 200.0,
                         "'sim.n_geometry' must be an integer, got 200.0"),
    "n_fading-bool": (("sim", "n_fading"), True, "'sim.n_fading' must be an integer, got true"),
    "seed-string": (("sim", "seed"), "11", "'sim.seed' must be an integer, got \"11\""),
    "seed-negative": (("sim", "seed"), -3, "'sim.seed' must be non-negative, got -3"),
    "n_geometry-zero": (("sim", "n_geometry"), 0, "'sim.n_geometry' must be positive, got 0"),
    "n_fading-zero": (("sim", "n_fading"), 0, "'sim.n_fading' must be positive, got 0"),
    "n_geometry-one": (("sim", "n_geometry"), 1,
                       "'sim.n_geometry' must be at least 2 for a standard error, got 1"),
    "region_radius-negative": (("sim", "region_radius"), -1,
                               "'sim.region_radius' must be positive, got -1.0"),
    "alpha-string": (("alpha",), "3", "'alpha' must be a number, got \"3\""),
    "power-bool": (("tiers", 0, "power"), True, "'tiers[0].power' must be a number, got true"),
    "stop-null": (("sweep", "stop"), None, "'sweep.stop' must be a number, got null"),
    "stop-infinite": (("sweep", "stop"), math.inf, "'sweep.stop' must be finite, got Infinity"),
    "lambda-nan": (("tiers", 1, "lambda"), math.nan, "'tiers[1].lambda' must be finite, got NaN"),
    "noise_db-overflow": (("noise_db",), 4000, "'noise_db' is 4000.0 dB, too large for a float"),
    "beta_db-overflow": (("tiers", 0, "beta_db"), 4000,
                         "'tiers[0].beta_db' is 4000.0 dB, too large for a float"),
    "stop-overflow": (("sweep", "stop"), 4000.0, "'sweep.stop' is 4000.0 dB, too large for a float"),
    "noise_db-underflow": (("noise_db",), -4000, "'noise_db' is -4000.0 dB, too small for a float"),
    "beta_db-underflow": (("tiers", 1, "beta_db"), -4000,
                          "'tiers[1].beta_db' is -4000.0 dB, too small for a float"),
    "start-invalid": (("sweep", "start"), -3.0,
                      "at 'sweep.start' = -3.0: tier 0: SINR threshold must exceed 1"),
    "region_radius-string": (("sim", "region_radius"), "big",
                             "'sim.region_radius' must be a number, got \"big\""),
    "region_radius-null": (("sim", "region_radius"), None,
                           "'sim.region_radius' must be a number, got null"),
    "tiers-not-list": (("tiers",), {"lambda": 1.0}, "'tiers' must be a JSON list"),
    "tier-not-object": (("tiers", 0), 3, "'tiers[0]' must be a JSON object"),
    "sweep-not-object": (("sweep",), [], "'sweep' must be a JSON object"),
    "sim-not-object": (("sim",), 5, "'sim' must be a JSON object"),
    "methods-number": (("sweep", "methods"), 5,
                       "'sweep.methods' must be a JSON list of strings, got 5"),
    "methods-string": (("sweep", "methods"), "closed",
                       "'sweep.methods' must be a JSON list of strings, got \"closed\""),
}


class TestStrictConfig:
    @pytest.mark.parametrize("case", list(STRICT_CASES))
    def test_rejected_with_field_named(self, tmp_path, capsys, case):
        where, value, message = STRICT_CASES[case]
        cfg = base_config()
        target = cfg
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        assert main(["--config", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert message in err

    def test_shipped_configs_use_known_keys_only(self):
        # Every shipped config still loads now that unknown keys are errors
        # (test_shipped_configs_load), and keeps its own budget and seed.
        for name in ("fig1_coverage", "fig1_nakagami23", "fig2_coverage_noise", "fig3_rate"):
            sim = load_config(f"configs/{name}.json").sim
            assert (sim.n_geometry, sim.n_fading, sim.seed) == (10000, 100, 2024)


def network_config(tmp_path, variable, shapes, methods, points=4):
    """A two-tier config with the given shapes and an analytic sweep."""
    start, stop = (1.0, 20.0) if variable == "beta1_db" else (-20.0, 30.0)
    cfg = base_config()
    for tier, m in zip(cfg["tiers"], shapes):
        tier["m"] = m
    cfg["sweep"] = {"variable": variable, "start": start, "stop": stop,
                    "points": points, "methods": list(methods)}
    return load_config(write_config(tmp_path, cfg))


def counting(func, calls):
    """`func`, adding 1 to calls[0] at every call."""
    def counted(*args, **kwargs):
        calls[0] += 1
        return func(*args, **kwargs)

    return counted


class TestSweepPoints:
    """A threshold or noise sweep's points are arrays; its networks hold floats."""

    @pytest.mark.parametrize("variable", ["beta1_db", "noise_db"])
    def test_swept_arrays_keep_each_value_bits(self, tmp_path, variable):
        config = network_config(tmp_path, variable, (2, 3), ("closed",), points=7)
        values = config.sweep.values()
        thresholds, noises = _swept(config, values)
        assert thresholds.shape == (7, 2) and noises.shape == (7,)
        linear = [db_to_linear(float(value)) for value in values]
        own = [t.threshold for t in config.params.tiers]
        if variable == "beta1_db":
            assert thresholds.tolist() == [[beta, own[1]] for beta in linear]
            assert noises.tolist() == [config.params.noise] * 7
        else:
            assert thresholds.tolist() == [own] * 7
            assert noises.tolist() == linear

    @pytest.mark.parametrize("variable", ["beta1_db", "noise_db"])
    def test_networks_hold_python_floats(self, tmp_path, variable):
        config = network_config(tmp_path, variable, (2, 3), ("closed",), points=7)
        values = config.sweep.values()
        networks = [block[0] for block in _blocks(config, values)]
        networks += [_params_at(config, float(value)) for value in values]
        for params in networks:
            assert type(params.noise) is float
            assert [type(t.threshold) for t in params.tiers] == [float, float]

    @pytest.mark.parametrize("variable, end, got", [
        ("beta1_db", -3.0, f"(got {db_to_linear(-3.0)})"),
        ("noise_db", -4000.0, "(got 0.0)"),
    ])
    def test_sweep_end_error_prints_floats(self, tmp_path, capsys, variable, end, got):
        cfg = base_config()
        cfg["sweep"].update(variable=variable, start=end, stop=10.0)
        assert main(["--config", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: at 'sweep.start' = {end}: ")
        assert got in err
        assert "np.float64(" not in err


class TestSharedConstants:
    """The sweep builds the closed form's constants once per noise."""

    @pytest.mark.parametrize("rate", [False, True])
    @pytest.mark.parametrize("shapes", [(2, 3), (1, 1)])
    @pytest.mark.parametrize("variable", ["beta1_db", "noise_db"])
    def test_columns_equal_per_point_public_calls(self, tmp_path, variable, shapes, rate):
        methods = ("closed", "reference") + (("rayleigh",) if shapes == (1, 1) else ())
        config = network_config(tmp_path, variable, shapes, methods)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pla.PlaAccuracyWarning)
            rows = run_sweep(config, rate=rate)
            for row in rows:
                params = _params_at(config, row["sweep_db"])
                if rate:
                    expected = {"closed": analysis.average_rate(params),
                                "reference": analysis.rate_exact(params)}
                    if "rayleigh" in methods:
                        expected["rayleigh"] = analysis.rate_rayleigh(params)
                else:
                    expected = {"closed": analysis.coverage_probability(params),
                                "reference": analysis.coverage_reference(params)}
                    if "rayleigh" in methods:
                        expected["rayleigh"] = analysis.coverage_rayleigh(params)
                assert {m: row[m] for m in methods} == expected

    @pytest.mark.parametrize("variable, points", [("beta1_db", 6), ("noise_db", 300)])
    def test_exact_kernel_calls(self, tmp_path, monkeypatch, variable, points):
        # The displacement-form reference takes one kernel quadrature per
        # sweep: a threshold sweep's one noise power and a noise sweep's
        # every noise power are one array evaluation.
        config = network_config(tmp_path, variable, (2, 3), ("reference",), points=points)
        calls = [0]
        monkeypatch.setattr(pla, "exact_gamma_kernel_integral",
                            counting(pla.exact_gamma_kernel_integral, calls))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pla.PlaAccuracyWarning)
            run_sweep(config)
        assert calls[0] == 1

    @pytest.mark.parametrize("rate", [False, True])
    @pytest.mark.parametrize("shapes", [(2, 3), (1, 1)], ids=["m2_3", "m1_1"])
    @pytest.mark.parametrize("variable", ["beta1_db", "noise_db"])
    def test_validations_independent_of_points(self, tmp_path, monkeypatch, variable,
                                               shapes, rate):
        # Each analytic column is one array call over the sweep's points, and
        # the mc column reads one simulation pass: no network is validated
        # per point, so 300 points validate as often as 6.
        methods = ("closed", "reference", "mc") + (("rayleigh",) if shapes == (1, 1) else ())
        validate = model.validate
        counts = []
        for points in (6, 300):
            config = network_config(tmp_path, variable, shapes, methods, points=points)
            config = replace(config, sim=replace(config.sim, n_geometry=100, n_fading=10))
            calls = [0]
            monkeypatch.setattr(model, "validate", counting(validate, calls))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", pla.PlaAccuracyWarning)
                run_sweep(config, rate=rate)
            counts.append(calls[0])
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("rate", [False, True])
    @pytest.mark.parametrize("shapes, points", [((2, 3), 500), ((16, 1), 100)],
                             ids=["m2_3-500", "m16_1-100"])
    def test_dense_noise_sweep_equals_per_point_calls(self, tmp_path, pla_warnings, shapes,
                                                      points, rate):
        # The sweep builds its constants and reference kernel once, as
        # arrays over its noise powers; every row and every flagged point of
        # its PlaAccuracyWarnings must be those of per-point public calls,
        # with one warning per kernel call that flags a point.
        config = network_config(tmp_path, "noise_db", shapes, ("closed", "reference"),
                                points=points)

        def per_point():
            rows = []
            for value in config.sweep.values():
                params = _params_at(config, float(value))
                if rate:
                    routes = (analysis.average_rate(params), analysis.rate_exact(params))
                else:
                    routes = (analysis.coverage_probability(params),
                              analysis.coverage_reference(params))
                rows.append({"closed": routes[0], "reference": routes[1]})
            return rows

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows, swept, swept_calls = pla_warnings(lambda: run_sweep(config, rate=rate))
        expected, alone, alone_calls = pla_warnings(per_point)
        assert [{m: row[m] for m in ("closed", "reference")} for row in rows] == expected
        assert {w.category for w in caught} <= {pla.PlaAccuracyWarning}
        assert sorted(swept) == sorted(swept_calls)
        assert sorted(alone) == sorted(alone_calls)
        assert swept
        assert sorted(sum(swept, ())) == sorted(sum(alone, ()))

    @pytest.mark.parametrize("rate", [False, True])
    def test_same_warnings_as_per_point_calls(self, pla_warnings, rate):
        # fig2's noise sweep reaches the PLA kernel's noise-limited regime.
        config = load_config("configs/fig2_coverage_noise.json")
        config = replace(config, sweep=replace(config.sweep,
                                               methods=("closed", "rayleigh", "reference")))

        def per_point():
            for value in config.sweep.values():
                params = _params_at(config, float(value))
                if rate:
                    analysis.average_rate(params), analysis.rate_rayleigh(params)
                    analysis.rate_exact(params)
                else:
                    analysis.coverage_probability(params), analysis.coverage_rayleigh(params)
                    analysis.coverage_reference(params)

        _, swept, swept_calls = pla_warnings(lambda: run_sweep(config, rate=rate))
        _, alone, alone_calls = pla_warnings(per_point)
        assert swept
        assert sorted(swept) == sorted(swept_calls)
        assert sorted(alone) == sorted(alone_calls)
        assert sorted(sum(swept, ())) == sorted(sum(alone, ()))


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

    def test_bits_leave_coverage_unscaled(self, tmp_path):
        cfg = base_config()
        cfg["sweep"]["methods"] = ["closed", "reference"]
        config = load_config(write_config(tmp_path, cfg))
        assert run_sweep(config, bits=True) == run_sweep(config)

    @pytest.mark.parametrize("rate", [False, True])
    def test_noise_sweep_one_pass_matches_per_point(self, tmp_path, rate):
        # The sweep simulates once and re-derives the SINR at each noise
        # power; that must equal a fresh simulation at every point.
        cfg = base_config()
        cfg["sweep"] = {"variable": "noise_db", "start": -20.0, "stop": 30.0,
                        "points": 3, "methods": ["mc"]}
        config = load_config(write_config(tmp_path, cfg))
        rows = run_sweep(config, rate=rate)
        for row in rows:
            params = _params_at(config, row["sweep_db"])
            tier_max = mcsim.tier_max_sinr(mcsim.simulate_trials(params, config.sim),
                                           params.noise)
            estimator = mcsim.rate_from_tier_max if rate else mcsim.coverage_from_tier_max
            est = estimator(tier_max, [t.threshold for t in params.tiers])
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
        for name in ("a.csv", "b.csv", "c.csv"):
            out = tmp_path / name
            rc = main(["--config", path, "--output", str(out)])
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

    def test_seed_override_warns_once(self, tmp_path, capsys):
        # A small trial count warns once, naming load_config's line; the
        # SimConfig that --seed rebuilds does not warn again.
        cfg = base_config(sim={"n_geometry": 10, "n_fading": 10, "seed": 11})
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", path, "--seed", "3"]) == 0
        noisy = [w for w in caught if "estimates will be noisy" in str(w.message)]
        assert [w.filename for w in noisy] == [load_config.__code__.co_filename]

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
        cfg["tiers"][1]["beta_db"] = -3.0
        path = write_config(tmp_path, cfg)
        assert main(["--config", path]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [False, True])
    def test_non_finite_result_exit_code(self, tmp_path, capsys, rate):
        # Here the closed form's constants come out NaN; no CSV is written.
        cfg = base_config(alpha=2.000000001, noise_db=-2990.0)
        cfg["sweep"]["methods"] = ["closed"]
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["--config", path] + (["--rate"] if rate else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err and "nan" in captured.err

    def test_non_finite_mc_exit_code(self, tmp_path, capsys):
        # At alpha = 30 the simulated SINR of the strongest BS reads inf, so
        # its rate does too; that is a numerical failure, not a CSV value.
        with open("configs/fig1_nakagami23.json") as fh:
            cfg = json.load(fh)
        cfg["alpha"] = 30.0
        cfg["tiers"][0]["m"], cfg["tiers"][1]["m"] = 16, 1
        cfg["sweep"]["methods"] = ["reference", "mc"]
        cfg["sim"].update(n_geometry=50, n_fading=10)
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["--config", path, "--rate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure: mc rate is inf, not finite, at sweep_db = 1" in captured.err
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["--config", path]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 11

    @pytest.mark.parametrize("shape, shown", [(2.7, "2.7"), (2.0, "2.0"), ("2", '"2"'),
                                              (True, "true")])
    def test_non_integer_shape_exit_code(self, tmp_path, capsys, shape, shown):
        # int() would read 2.7 as 2 and true as 1: the simulator would draw
        # another fading law than the config names.
        cfg = base_config()
        cfg["tiers"][1]["m"] = shape
        assert main(["--config", write_config(tmp_path, cfg)]) == 1
        assert f"'tiers[1].m' must be an integer, got {shown}" in capsys.readouterr().err

    @pytest.mark.parametrize("variable, passes", [("beta1_db", 2), ("noise_db", 2),
                                                  ("nakagami_pair", 3)])
    def test_radius_check_reuses_sweep_pass(self, tmp_path, capsys, monkeypatch,
                                            variable, passes):
        # The sweep's first pass is the drift's inner disk; only the doubled
        # disk is simulated again.  A nakagami_pair sweep (two points here)
        # simulates each point, and the drift the first point's doubled
        # disk.  Every pass, the doubled disks' too, runs through
        # mcsim.simulate_trials.
        cfg = base_config()
        cfg["sweep"] = {"variable": variable, "start": 1.0, "stop": 2.0,
                        "points": 2, "methods": ["mc"]}
        path = write_config(tmp_path, cfg)
        config = load_config(path)
        # At the network of the sweep's first point.
        expected = mcsim.radius_doubling_drift(_params_at(config, 1.0), config.sim)
        calls = [0]
        monkeypatch.setattr(mcsim, "simulate_trials", counting(mcsim.simulate_trials, calls))
        assert main(["--config", path, "--radius-check"]) == 0
        assert calls[0] == passes
        resolution = 1.0 / (config.sim.n_geometry * config.sim.n_fading)
        assert (f"radius-doubling coverage drift: {expected:.3e} "
                f"(resolution 1/trials = {resolution:.1e})\n") in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit, first_point", [
        ("fig1_nakagami23", lambda cfg: cfg["tiers"][0].update(beta_db=0.0),
         lambda p: replace(p, tiers=(replace(p.tiers[0], threshold=db_to_linear(1.0)),
                                     p.tiers[1]))),
        ("fig2_coverage_noise", lambda cfg: cfg.update(noise_db=40.0),
         lambda p: replace(p, noise=db_to_linear(-20.0))),
    ], ids=["beta1_db-config-threshold-0dB", "noise_db-config-noise-40dB"])
    def test_radius_check_at_the_sweeps_network(self, tmp_path, capsys, name, edit,
                                                first_point):
        # The config's own value of the swept field is neither validated nor
        # simulated: the drift is measured at the network of the sweep's
        # first point, whose pass the sweep ran (beta_1 = 1 dB, noise -20 dB).
        with open(f"configs/{name}.json") as fh:
            cfg = json.load(fh)
        cfg["sim"]["n_geometry"] = 200
        edit(cfg)
        path = write_config(tmp_path, cfg)
        config = load_config(path)
        expected = mcsim.radius_doubling_drift(first_point(config.params), config.sim)
        assert main(["--config", path, "--radius-check"]) == 0
        resolution = 1.0 / (config.sim.n_geometry * config.sim.n_fading)
        assert (f"radius-doubling coverage drift: {expected:.3e} "
                f"(resolution 1/trials = {resolution:.1e})\n") in capsys.readouterr().err

    @pytest.mark.parametrize("variable, shape, methods, code", [
        ("beta1_db", 16, ["closed"], 1), ("beta1_db", 12, ["closed"], 1),
        ("beta1_db", 11, ["closed"], 0), ("beta1_db", 16, ["reference"], 0),
        ("nakagami_pair", None, ["closed"], 1),
    ])
    def test_closed_form_range_exit_code(self, tmp_path, capsys, variable, shape, methods,
                                         code):
        # At alpha = 30 the PLA kernel's Gamma((alpha/2) M + 1) overflows
        # float64 from M = 12: the closed form is refused on load, with both
        # fields named, while the reference still runs.
        cfg = base_config(alpha=30.0)
        cfg["sweep"]["methods"] = methods
        if variable == "nakagami_pair":
            cfg["sweep"].update(variable=variable, start=1.0, stop=16.0)
            field, shape = "'sweep.stop'", 16
        else:
            cfg["tiers"][0]["m"] = shape
            field = "'tiers[0].m'"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pla.PlaAccuracyWarning)
            assert main(["--config", write_config(tmp_path, cfg)]) == code
        captured = capsys.readouterr()
        if code:
            assert f"config error: 'alpha' = 30.0 with {field} = {shape}" in captured.err
            assert captured.out == ""
        else:
            assert captured.out.startswith("sweep_db,")

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["--config", path, "--seed", "-1"]) == 1
        assert "usage error: --seed must be non-negative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--threads", "2"], "unrecognized arguments: --threads 2"),
        (["--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: --config"),
    ], ids=["threads-removed", "unknown-flag", "missing-config"])
    def test_usage_error_exit_code(self, tmp_path, capsys, argv, message):
        # argparse itself would exit 2, the code of a numerical failure.
        config = [] if not argv else ["--config", write_config(tmp_path, base_config())]
        assert main(config + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: hetnetcov")
        assert message in err

    def test_help_exit_code(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: hetnetcov")

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.json")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing/out.csv", "."], ids=["missing-dir", "dir"])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, monkeypatch, target):
        # The path is checked before the sweep runs, not after it.
        cfg = base_config()
        cfg["sweep"]["methods"] = ["closed", "mc"]
        out = str(tmp_path / target)
        calls = [0]
        monkeypatch.setattr(mcsim, "simulate_trials", counting(mcsim.simulate_trials, calls))
        assert main(["--config", write_config(tmp_path, cfg), "--output", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"output error: cannot write '{out}': ")
        assert captured.out == ""
        assert calls[0] == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_output_file_kept_until_written(self, tmp_path, monkeypatch):
        # The early check neither creates nor truncates the output: a run
        # that fails in the sweep leaves an existing file as it was.
        out = tmp_path / "out.csv"
        out.write_text("kept\n")
        path = write_config(tmp_path, base_config())

        def fail(*args, **kwargs):
            raise RuntimeError("no covered trials")

        monkeypatch.setattr(mcsim, "simulate_trials", fail)
        assert main(["--config", path, "--output", str(out)]) == 2
        assert out.read_text() == "kept\n"
