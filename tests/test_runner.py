import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from cavnet import cli, correlations as corr, davies, dynamics, model, qla, runner


SRC = corr.PairSelector.from_label("11'")
DST = corr.PairSelector.from_label("33'")


def small(name, **overrides):
    defaults = dict(samples=240)
    defaults.update(overrides)
    return runner.ScenarioSpec.named(name, **defaults)


class TestScenarioSpec:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            runner.ScenarioSpec.named("bogus")
        with pytest.raises(ValueError):
            runner.ScenarioSpec(name="bogus")

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            runner.ScenarioSpec.named("fig2", samples=1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_duration_rejected(self, value):
        with pytest.raises(ValueError, match="t_max_lambda must be positive and finite"):
            runner.ScenarioSpec.named("fig3", t_max_lambda=value)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            runner.ScenarioSpec.named("custom", initial=())

    @pytest.mark.parametrize("size", [dict(sites_per_chain=4), dict(num_chains=1)])
    def test_other_network_sizes_rejected(self, size):
        # At N = 4 the fig2 column would be computed on cavities 3 and 2'.
        spec = runner.ScenarioSpec.named("fig2", samples=4)
        with pytest.raises(ValueError, match="two chains of three cavities"):
            runner.run_scenario(spec, model.NetworkConfig(**size))

    def test_named_defaults(self):
        spec = runner.ScenarioSpec.named("fig5")
        assert spec.initial == ("psi_b",)
        assert spec.gamma == (0.05, 0.5)
        assert spec.t_max_lambda == 20.0


class TestFig2:
    def test_curve_starts_at_zero_with_peak_near_transfer_time(self, default_cfg):
        spec = small("fig2", theta_list=(math.pi / 4,), t_max_lambda=4.0, samples=401)
        table = runner.run_scenario(spec, default_cfg)
        lts = np.array(table.column("lambda_t"))
        c33 = np.array(table.column("conc_33p"))
        assert c33[0] == pytest.approx(0.0, abs=1e-10)
        i = int(np.argmax(c33))
        assert lts[i] == pytest.approx(2 * math.pi / 3, abs=0.02)


class TestFig3:
    def test_middle_cavity_tangle_vanishes_at_transfer_time(self, lossless_cfg):
        spec = small("fig3", samples=600)
        table = runner.run_scenario(spec, lossless_cfg)
        lts = np.array(table.column("lambda_t"))
        det2 = np.array(table.column("det_2"))
        window = (lts > 1.8) & (lts < 2.4)
        i = np.flatnonzero(window)[np.argmin(det2[window])]
        t_min, v_min = runner._quadratic_peak(lts, -det2, int(i))
        assert -v_min < 1e-6
        assert t_min == pytest.approx(2 * math.pi / 3, abs=0.02)


class TestFig6:
    def test_discord_floor_applies(self, default_cfg, monkeypatch):
        # An optimizer that overshoots the minimal conditional entropy makes
        # Q = I - J negative; the figure must fail, not clip it to zero.
        basis = corr.MeasurementBasis(0.0, 0.0)
        monkeypatch.setattr(corr, "_x_conditional_entropy", lambda m, bloch: (-1.0, basis))
        with pytest.raises(RuntimeError, match="discord optimizer failure"):
            runner.run_scenario(small("fig6", t_max_lambda=1.0, samples=3), default_cfg)


class TestDiscordPath:
    @pytest.mark.parametrize("name", ["fig5", "fig6", "fig9"])
    def test_production_pairs_take_x_path(self, name, default_cfg, monkeypatch):
        # The dynamics conserves excitation parity, so every pair state is an
        # X state; one that reached the general optimizer would cost about
        # twenty times more per discord.
        def general(bloch):
            raise AssertionError(f"{name} pair state is not X-form; its Bloch matrix:\n{bloch}")

        monkeypatch.setattr(corr, "_general_conditional_entropy", general)
        spec = small(name, theta_list=(math.pi / 4, 0.4), samples=6)
        table = runner.run_scenario(spec, default_cfg)
        # Initial states that ignore theta run once per gamma.
        points = sum(len(spec.theta_list) if k in model.InitialStateSpec.THETA_KINDS else 1 for k in spec.initial)
        assert len(table.rows) == 6 * len(spec.gamma) * points


class TestThetaFreeStates:
    def test_theta_free_states_run_once_per_gamma(self, default_cfg, monkeypatch):
        evolved = []
        trajectory = runner.network_trajectory
        monkeypatch.setattr(
            runner, "network_trajectory", lambda c, init, *a: evolved.append(init) or trajectory(c, init, *a)
        )
        spec = runner.ScenarioSpec.named(
            "custom", initial=("psi_a", "rho_eq20"), theta_list=(0.3, 0.5), gamma=(0.0, 0.01), samples=3,
            t_max_lambda=1.0,
        )
        table = runner.run_scenario(spec, default_cfg)
        points = [(init.kind, init.theta) for init in evolved]
        assert points == [("psi_a", 0.3), ("psi_a", 0.5), ("rho_eq20", 0.3)] * 2
        assert [row[:3] for row in table.rows[::3]] == [
            (kind, theta, gamma) for gamma in (0.0, 0.01) for kind, theta in points[:3]
        ]

    def test_cli_theta_free_scenario_prints_each_row_once(self, capsys):
        run = ["scenario", "--scenario", "fig6", "--theta", "0.3", "--theta", "0.5", "--samples", "3"]
        assert cli.main(run) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3
        assert all(row.startswith("rho_eq20,0.3,") for row in rows)


class TestPeaks:
    def test_constant_series_has_no_peaks(self):
        times = np.linspace(0, 5, 100)
        assert runner.peak_sequence({"x": np.ones(100)}, times) == []

    def test_transfer_peak_order(self, lossless_cfg):
        spec = small("fig4", t_max_lambda=3.0, samples=400)
        table = runner.run_scenario(spec, lossless_cfg)
        events = {}
        for row in table.rows:
            pair, lt = row[3], row[4]
            events.setdefault(pair, lt)
        assert events["22'"] == pytest.approx(math.pi / 3, abs=0.02)
        assert events["33'"] == pytest.approx(2 * math.pi / 3, abs=0.02)
        assert events["22'"] < events["33'"]

    def test_bell_pair_on_middle_cavities_peaks_simultaneously(self, lossless_cfg):
        cfg = lossless_cfg
        vec = np.zeros(64, dtype=complex)
        vec[model.map_interleaved_index("GGGGGG")] = 1 / math.sqrt(2)
        vec[model.map_interleaved_index("GGEEGG")] = 1 / math.sqrt(2)
        rho0 = qla.PureState(vec, (2,) * 6).density()
        chain = davies.chain_generator(cfg)
        traj = dynamics.evolve_factorized(rho0, chain, dynamics.sample_grid(4.0, 500, chain.lambda_scale))
        series = {
            lbl: np.array(
                [corr.concurrence(corr.pair_state(s, corr.PairSelector.from_label(lbl))) for s in traj.states]
            )
            for lbl in ("11'", "33'")
        }
        assert np.max(np.abs(series["11'"] - series["33'"])) < 1e-9
        events = runner.peak_sequence(series, traj.times_lambda)
        assert events, "expected at least one simultaneous peak pair"
        by_group = {}
        for ev in events:
            by_group.setdefault(ev.simultaneous_group, []).append(ev)
        for group in by_group.values():
            assert {ev.pair for ev in group} == {"11'", "33'"}
            assert group[0].value == pytest.approx(group[1].value, abs=1e-9)


class TestTransmission:
    def test_lossless_ratio_is_three_quarters(self, lossless_cfg):
        res = runner.transmission_details(
            model.InitialStateSpec("psi_a", math.pi / 4), lossless_cfg, SRC, DST
        )
        assert res.ratio == pytest.approx(0.75, abs=1e-3)
        assert res.peak_time_lambda == pytest.approx(2 * math.pi / 3, abs=0.02)
        assert res.ratio_at_transfer == pytest.approx(0.75, abs=1e-3)

    def test_theta_independence_for_single_excitation(self, lossless_cfg):
        ratios = [
            runner.transmission_details(
                model.InitialStateSpec("psi_a", th), lossless_cfg, SRC, DST, samples=601
            ).ratio
            for th in (math.pi / 8, math.pi / 3)
        ]
        assert abs(ratios[0] - ratios[1]) < 0.005

    def test_double_excitation_ratios_ordered_in_theta(self, default_cfg):
        values = {
            th: runner.transmission_details(
                model.InitialStateSpec("psi_b", th), default_cfg, SRC, DST, samples=601
            ).ratio
            for th in (math.pi / 3, math.pi / 4, math.pi / 8)
        }
        assert values[math.pi / 3] > values[math.pi / 4] > values[math.pi / 8]

    def test_window_must_reach_the_transfer_time(self, lossless_cfg):
        # A shorter window has no sample at lambda*t = 2*pi/3 to report;
        # one that ends there reports its last sample, |u_3|^2 = 3/4.
        init = model.InitialStateSpec("psi_a", math.pi / 4)
        with pytest.raises(ValueError, match=r"t_max_lambda = 1 .*2\*pi/3"):
            runner.transmission_details(init, lossless_cfg, SRC, DST, t_max_lambda=1.0, samples=11)
        res = runner.transmission_details(init, lossless_cfg, SRC, DST, t_max_lambda=2 * math.pi / 3, samples=11)
        assert res.ratio_at_transfer == pytest.approx(0.75, abs=1e-12)

    def test_zero_initial_concurrence_rejected(self, default_cfg):
        with pytest.raises(ValueError):
            runner.transmission_details(
                model.InitialStateSpec("psi_a", 0.0), default_cfg, SRC, DST, samples=11
            ).ratio


class TestClosedForm:
    """Figures against the no-jump amplitudes u(t) of ``oracles.one_excitation_amplitudes``.

    A chain started in |site 1> stays |u><u| plus vacuum, so psi_a gives
    C_33'(t) = sin 2 theta |u_3(t)|^2.
    """

    @pytest.mark.parametrize(
        "gamma, units", [(0.0, "abs"), (0.01, "abs"), (0.5, "lambda")], ids=["lossless", "0.01abs", "0.5lambda"]
    )
    def test_fig2_is_sin_2theta_times_site_3_population(self, gamma, units):
        thetas = (math.pi / 8, math.pi / 4, math.pi / 3)
        spec = runner.ScenarioSpec.named("fig2", theta_list=thetas, gamma=(gamma,), gamma_units=units, samples=41)
        table = runner.run_scenario(spec, model.NetworkConfig())
        assert len(table.rows) == 3 * 41
        cfg = model.NetworkConfig(gamma=gamma, gamma_units=units)
        t = np.array(table.column("lambda_t")) / model.effective_coupling(cfg)
        u3 = oracles.one_excitation_amplitudes(cfg, t)[:, 2]
        expected = np.sin(2.0 * np.array(table.column("theta"))) * np.abs(u3) ** 2
        assert np.max(np.abs(np.array(table.column("conc_33p")) - expected)) < 1e-12

    @pytest.mark.parametrize("gamma, units", [(0.01, "abs"), (0.5, "lambda")], ids=["0.01abs", "0.5lambda"])
    @pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 3])
    def test_psi_a_transmission_is_site_3_population(self, theta, gamma, units):
        cfg = model.NetworkConfig(gamma=gamma, gamma_units=units)
        traj = runner.network_trajectory(cfg, model.InitialStateSpec("psi_a", theta), 4.0, 41)
        c0 = corr.concurrence(corr.pair_state(traj.states[0], SRC))
        ratios = np.array([corr.concurrence(corr.pair_state(s, DST)) for s in traj.states]) / c0
        u3 = oracles.one_excitation_amplitudes(cfg, traj.times_ns)[:, 2]
        assert np.max(np.abs(ratios - np.abs(u3) ** 2)) < 1e-12

    def test_amplitudes_transfer_three_quarters_and_keep_the_dark_ninth(self):
        lossless = model.NetworkConfig(gamma=0.0)
        t_star = (2.0 * math.pi / 3.0) / model.effective_coupling(lossless)
        assert abs(abs(oracles.one_excitation_amplitudes(lossless, [t_star])[0, 2]) ** 2 - 0.75) < 1e-12
        for gamma, units in ((0.01, "abs"), (0.5, "lambda")):
            cfg = model.NetworkConfig(gamma=gamma, gamma_units=units)
            # By Gamma t = 100 the bright modes are gone; |u_3|^2 is the dark mode's (1/3)^2.
            late = 100.0 / (cfg.kappa**2 * cfg.decay_rate())
            assert abs(abs(oracles.one_excitation_amplitudes(cfg, [late])[0, 2]) ** 2 - 1.0 / 9.0) < 1e-12

    def test_fig7_tangle_closed_form(self):
        # Lossless psi_b is s|vac> + c|u>|u'>.  Cavity 1's one-tangle is
        # 4 c^2 u1^2 (1 - c^2 u1^2); its pair with site j of its own chain
        # has C = 2 c^2 u1 uj, and with site j' the X-state arm
        # 2 u1 uj (s c - c^2 sqrt((1 - u1^2)(1 - uj^2))).
        spec = runner.ScenarioSpec.named("fig7", samples=101)
        table = runner.run_scenario(spec, model.NetworkConfig())
        assert len(table.rows) == 3 * 101
        cfg = model.NetworkConfig(gamma=0.0)
        t = np.array(table.column("lambda_t")) / model.effective_coupling(cfg)
        u = np.abs(oracles.one_excitation_amplitudes(cfg, t))
        theta = np.array(table.column("theta"))
        s, c = np.sin(theta)[:, None], np.cos(theta)[:, None]
        u1 = u[:, :1]
        cross = 2.0 * np.maximum(0.0, u1 * u * (s * c - c**2 * np.sqrt((1.0 - u1**2) * (1.0 - u**2))))
        pu1 = (c * u1)[:, 0] ** 2
        tau = 4.0 * pu1 * (1.0 - pu1) - 4.0 * c[:, 0] ** 2 * pu1 * (u[:, 1] ** 2 + u[:, 2] ** 2)
        expected = np.maximum(0.0, tau - (cross**2).sum(axis=1))
        assert np.max(np.abs(np.array(table.column("tangle")) - expected)) < 1e-12


class TestTables:
    def test_csv_deterministic(self, lossless_cfg):
        spec = small("fig3", samples=60)
        a, b = io.StringIO(), io.StringIO()
        runner.run_scenario(spec, lossless_cfg).to_csv(a)
        runner.run_scenario(spec, lossless_cfg).to_csv(b)
        assert a.getvalue() == b.getvalue()
        assert a.getvalue().startswith("initial,theta,gamma,lambda_t,det_1,det_2,det_3\n")

    def test_jsonl_mirrors_columns(self, lossless_cfg):
        import json

        spec = small("fig3", samples=24)
        table = runner.run_scenario(spec, lossless_cfg)
        buf = io.StringIO()
        table.to_jsonl(buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == len(table.rows)
        first = json.loads(lines[0])
        assert tuple(first) == table.columns

    def test_negative_zero_written_as_zero(self):
        import json

        table = runner.Table(("a", "b", "c"), ((-0.0, np.float64(-0.0), -1e-13),))
        csv, jsonl = io.StringIO(), io.StringIO()
        table.to_csv(csv)
        table.to_jsonl(jsonl)
        assert csv.getvalue() == "a,b,c\n0,0,-1e-13\n"
        record = json.loads(jsonl.getvalue())
        assert [math.copysign(1.0, record[k]) for k in "ab"] == [1.0, 1.0]
        assert record["c"] == -1e-13

    def test_simulate_table_columns(self, default_cfg):
        spec = runner.ScenarioSpec.named("custom", theta_list=(math.pi / 4,), t_max_lambda=2.0, samples=24)
        table = runner.run_scenario(spec, default_cfg)
        assert table.columns[:5] == ("initial", "theta", "gamma", "lambda_t", "purity")
        assert "conc_33p" in table.columns
        assert "det_2p" in table.columns
        spec8 = runner.ScenarioSpec.named("custom", initial=("psi2_chain",), t_max_lambda=2.0, samples=12)
        table8 = runner.run_scenario(spec8, default_cfg)
        assert "conc_13" in table8.columns


class TestConfigAndCli:
    def test_config_roundtrip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "\n".join(
                [
                    "[network]",
                    "gamma = 0.02",
                    "gamma_units = abs",
                    "kappa = 1.0",
                    "[scenario]",
                    "name = fig3",
                    "theta = 0.785398163",
                    "tmax_lambda = 2.0",
                    "samples = 24",
                ]
            )
        )
        parsed = cli.load_config(path)
        assert parsed["network"]["gamma"] == 0.02
        assert parsed["network"]["kappa"] == 1.0
        assert parsed["scenario"]["name"] == "fig3"
        assert parsed["scenario"]["samples"] == 24
        path.write_text("[integrator]\nrel_tol = 1e-8\n")
        with pytest.raises(ValueError, match="rel_tol.*exact"):
            cli.load_config(path)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[network]\ntemperature = 300\n", r"temperature.*\[network\]"),
            ("[network]\ngama = 0.5\n", r"gama.*\[network\]"),
            ("[scenario]\nthetas = 0.1\n", r"thetas.*\[scenario\]"),
            ("[fiber]\nlength = 1.0\n", r"\[fiber\]"),
            ("[DEFAULT]\ngamma = 0.1\n", r"\[DEFAULT\]"),
        ],
    )
    def test_config_rejects_unknown_sections_and_keys(self, tmp_path, text, named):
        path = tmp_path / "unknown.ini"
        path.write_text(text)
        with pytest.raises(ValueError, match=named):
            cli.load_config(path)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[scenario]\nsamples = 2.5\n", r"\[scenario\] samples = '2\.5': invalid literal for int"),
            ("[network]\nkappa = abc\n", r"\[network\] kappa = 'abc': could not convert"),
            ("[scenario]\ntheta = 0.1, x\n", r"\[scenario\] theta = '0\.1, x': could not convert"),
            ("[network]\ngamma = fast\n", r"\[network\] gamma = 'fast': could not convert"),
        ],
        ids=["int", "float", "numbers", "one-rate"],
    )
    def test_config_value_errors_name_the_key(self, tmp_path, text, named):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ValueError, match=named):
            cli.load_config(path)

    def test_config_rejects_per_site_network_gamma(self, tmp_path):
        path = tmp_path / "sites.ini"
        path.write_text("[network]\ngamma = 0.01, 0.02, 0.03\n")
        with pytest.raises(ValueError, match=r"\[network\] gamma.*per-site"):
            cli.load_config(path)

    def test_missing_config_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cli.load_config(tmp_path / "absent.ini")

    def test_cli_scenario_writes_csv(self, tmp_path):
        out = tmp_path / "fig3.csv"
        rc = cli.main(
            [
                "scenario",
                "--scenario",
                "fig3",
                "--gamma",
                "0",
                "--samples",
                "24",
                "--tmax-lambda",
                "2.0",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "initial,theta,gamma,lambda_t,det_1,det_2,det_3"
        assert len(lines) == 25

    def test_cli_config_with_flag_override(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[scenario]\nname = fig3\nsamples = 24\ntmax_lambda = 2.0\ngamma = 0\n"
        )
        out = tmp_path / "o.jsonl"
        rc = cli.main(
            ["scenario", "--config", str(path), "--samples", "12", "--format", "jsonl", "--out", str(out)]
        )
        assert rc == 0
        assert len(out.read_text().splitlines()) == 12

    def test_cli_config_network_gamma_feeds_scenario(self, capsys, tmp_path):
        path = tmp_path / "g.ini"
        path.write_text("[network]\ngamma = 0.5\ngamma_units = lambda\n")
        run = ["scenario", "--scenario", "transmission", "--initial", "psi_a", "--theta", "0.785398", "--samples", "81"]
        assert cli.main(run + ["--config", str(path)]) == 0
        via_config = capsys.readouterr().out
        assert cli.main(run + ["--gamma", "0.5", "--gamma-units", "lambda"]) == 0
        assert via_config == capsys.readouterr().out
        assert ",0.5,11',33'," in via_config
        path.write_text("[network]\ngamma = 0.01 0.02 0.03\n")
        for argv in (run + ["--config", str(path)], ["simulate", "--samples", "3", "--tmax-lambda", "1.0", "--config", str(path)]):
            with pytest.raises(SystemExit) as exit_:
                cli.main(argv)
            assert exit_.value.code == 2
            err = capsys.readouterr().err
            assert "cavnet: error: [network] gamma = '0.01 0.02 0.03'" in err and "per-site" in err

    def test_cli_simulate_stdout(self, capsys, tmp_path):
        rc = cli.main(
            ["simulate", "--initial", "psi2_chain", "--samples", "6", "--tmax-lambda", "1.0"]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert captured.splitlines()[0].startswith("initial,theta,gamma,lambda_t,purity")

    def test_cli_simulate_config_gamma_feeds_sweep(self, capsys, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[scenario]\ngamma = 0.5\ngamma_units = lambda\n")
        run = ["simulate", "--initial", "psi2_chain", "--samples", "6", "--tmax-lambda", "1.0"]
        assert cli.main(run + ["--config", str(path)]) == 0
        via_config = capsys.readouterr().out
        assert cli.main(run + ["--gamma", "0.5", "--gamma-units", "lambda"]) == 0
        assert via_config == capsys.readouterr().out
        assert via_config.splitlines()[1].startswith("psi2_chain,0.785398163397,0.5,0,")

    def test_cli_simulate_rejects_mixed_registers(self, tmp_path, capsys):
        path = tmp_path / "mix.ini"
        path.write_text("[scenario]\ninitial = psi_a psi2_chain\n")
        with pytest.raises(SystemExit) as exit_:
            cli.main(["simulate", "--config", str(path), "--samples", "3", "--tmax-lambda", "1"])
        assert exit_.value.code == 2
        assert "incompatible registers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--initial", "psi_a", "--initial", "psi2_chain"],
            ["scenario", "--scenario", "fig9", "--initial", "psi_a"],
            ["scenario", "--scenario", "fig5", "--initial", "psi1_chain"],
            ["transmission", "--tmax-lambda", "1"],
        ],
        ids=["mixed", "fig9-network", "fig5-chain", "short-window"],
    )
    def test_rejected_sweeps_evolve_nothing(self, argv, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(runner, "network_trajectory", lambda *args: calls.append(args))
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv + ["--samples", "3"])
        assert exit_.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command, own", [("simulate", "custom"), ("transmission", "transmission")])
    def test_cli_rejects_config_scenario_of_other_command(self, command, own, capsys, tmp_path):
        path = tmp_path / "n.ini"
        run = [command, "--initial", "psi_a", "--samples", "3", "--tmax-lambda", "2.5", "--config", str(path)]
        path.write_text("[scenario]\nname = fig5\n")
        with pytest.raises(SystemExit) as exit_:
            cli.main(run)
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cavnet: error: config [scenario] name = fig5 does not fit '{command}'" in captured.err
        path.write_text(f"[scenario]\nname = {own}\n")
        assert cli.main(run) == 0

    @pytest.mark.parametrize(
        "flags, message, config",
        [
            (["--gamma", "nan"], "gamma must be finite, got nan", None),
            (["--samples", "1"], "samples must be at least 2", None),
            (["--config", "absent.ini"], "config file absent.ini not found", None),
            ([], "unknown format 'xml'; known: csv, jsonl", "[scenario]\nformat = xml\n"),
            # Settings that only the sweep points check.
            (["--theta", "3"], "theta must lie in [0, pi/2]", None),
            ([], "decay rates must be nonnegative", "[scenario]\ngamma = -1\n"),
            ([], "unknown gamma_units 'furlongs'", "[scenario]\ngamma_units = furlongs\n"),
            (
                [],
                "scenarios run on two chains of three cavities, got num_chains = 2, sites_per_chain = 4",
                "[network]\nsites_per_chain = 4\n",
            ),
            # Initial states off the scenario's register, and a short transmission window.
            (
                ["--scenario", "fig9", "--initial", "psi_a"],
                "fig9 measures states on the register of psi1_chain, psi2_chain, not psi_a",
                None,
            ),
            (
                ["--scenario", "fig5", "--initial", "psi1_chain"],
                "fig5 measures states on the register of psi_b, not psi1_chain",
                None,
            ),
            (
                ["--scenario", "transmission", "--tmax-lambda", "1"],
                "t_max_lambda = 1 ends before the transfer time lambda*t = 2*pi/3",
                None,
            ),
            # The units take no alias and no other case.
            ([], "unknown gamma_units 'absolute'", "[scenario]\ngamma_units = absolute\n"),
        ],
    )
    def test_cli_bad_settings_are_one_line_usage_errors(self, capsys, tmp_path, flags, message, config):
        if config is not None:
            path = tmp_path / "bad.ini"
            path.write_text(config)
            flags = flags + ["--config", str(path)]
        with pytest.raises(SystemExit) as exit_:
            cli.main(["scenario", "--scenario", "fig3", "--samples", "4"] + flags)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"cavnet: error: {message}"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "setting, flag, config, default, from_config, from_flag",
        [
            ("gamma", "--gamma 0.3", "[scenario]\ngamma = 0.2", (0.05, 0.5), (0.2,), (0.3,)),
            ("gamma_units", "--gamma-units abs", "[scenario]\ngamma_units = lambda", "abs", "lambda", "abs"),
            ("kappa", "--kappa 0.9", "[network]\nkappa = 0.8", 1 / math.sqrt(2), 0.8, 0.9),
            ("theta_list", "--theta 0.5 --theta 0.6", "[scenario]\ntheta = 0.3", (math.pi / 4,), (0.3,), (0.5, 0.6)),
            ("t_max_lambda", "--tmax-lambda 7", "[scenario]\ntmax_lambda = 5", 20.0, 5.0, 7.0),
            ("samples", "--samples 40", "[scenario]\nsamples = 30", 800, 30, 40),
            (
                "initial",
                "--initial rho_eq20 --initial psi_a",
                "[scenario]\ninitial = psi_a",
                ("psi_b",),
                ("psi_a",),
                ("rho_eq20", "psi_a"),
            ),
            ("out", "--out f.csv", "[scenario]\nout = c.csv", None, "c.csv", "f.csv"),
            ("format", "--format csv", "[scenario]\nformat = jsonl", "csv", "jsonl", "csv"),
            ("name", "--scenario fig2", "[scenario]\nname = fig7", None, "fig7", "fig2"),
        ],
        ids=["gamma", "gamma_units", "kappa", "theta", "tmax_lambda", "samples", "initial", "out", "format", "name"],
    )
    def test_resolve_precedence(self, tmp_path, setting, flag, config, default, from_config, from_flag):
        # The scenario's default (fig5's, else ScenarioSpec's or NetworkConfig's),
        # then the config file, then the flag; no trajectory runs.
        path = tmp_path / "p.ini"
        path.write_text(config + "\n")
        base = ["scenario"] + ([] if setting == "name" else ["--scenario", "fig5"])

        def resolved(*extra):
            cfg, spec, out, fmt = cli.resolve(cli.build_parser().parse_args(base + list(extra)))
            return {"kappa": cfg.kappa, "out": out, "format": fmt, **vars(spec)}[setting]

        if setting == "name":
            # A scenario name has no default: without one the command is refused.
            with pytest.raises(ValueError, match="scenario name required"):
                resolved()
        else:
            assert resolved() == default
        assert resolved("--config", str(path)) == from_config
        assert resolved("--config", str(path), *flag.split()) == from_flag

    def test_cli_transmission(self, tmp_path):
        out = tmp_path / "ratios.csv"
        rc = cli.main(
            [
                "transmission",
                "--initial",
                "psi_a",
                "--theta",
                str(math.pi / 4),
                "--samples",
                "301",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("initial,theta,gamma,src,dst,ratio_max")
        assert len(lines) == 2
        ratio = float(lines[1].split(",")[5])
        assert ratio == pytest.approx(0.7494, abs=5e-3)


def test_import_loads_no_config_parser():
    # Settings resolve in the CLI alone: importing the package loads
    # neither it nor configparser.
    code = "import sys, cavnet; print(sorted({'configparser', 'cavnet.cli'} & set(sys.modules)))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=300)
    assert out.stdout.strip() == "[]"


def test_runtime_imports_no_scipy():
    # numpy is the only run-time dependency: importing cavnet, propagating
    # (fig5, fig9) and both discord paths must load no scipy module.
    code = """
import sys
import numpy as np
import cavnet
from cavnet import correlations, model, qla, runner
for name in ("fig5", "fig9"):
    runner.run_scenario(runner.ScenarioSpec.named(name, samples=5), model.NetworkConfig())
g = np.random.default_rng(0).normal(size=(4, 4)) + 1j * np.random.default_rng(1).normal(size=(4, 4))
m = g @ g.conj().T
correlations.quantum_discord(qla.density(m / np.trace(m).real, (2, 2)))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=300)
    assert out.stdout.strip() == "[]"


def test_reproduce_figures_rejects_bad_samples_before_writing(tmp_path):
    # Every scenario is checked before the first runs or the output
    # directory is made: a usage error, exit status 2, no traceback.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    outdir = tmp_path / "figures"
    script = str(root / "scripts" / "reproduce_figures.py")
    argv = [sys.executable, script, "--samples", "1", "--outdir", str(outdir)]
    out = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 2
    assert out.stderr.splitlines()[-1] == "reproduce_figures.py: error: samples must be at least 2"
    assert "Traceback" not in out.stderr
    assert not outdir.exists()
