import dataclasses
import importlib.util
import io
import math
import os
import re
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

    @pytest.mark.parametrize("setting", [dict(gamma=0.5), dict(gamma=0.0), dict(gamma_units="lambda")])
    def test_network_gamma_rejected(self, setting):
        # fig2 sweeps gamma = 0.01 from its spec; a config's own gamma would be dropped unseen.
        spec = runner.ScenarioSpec.named("fig2", samples=4)
        with pytest.raises(ValueError, match="the sweep takes gamma and its units from the ScenarioSpec"):
            runner.run_scenario(spec, model.NetworkConfig(**setting))

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
    def test_middle_cavity_tangle_vanishes_at_transfer_time(self, default_cfg):
        spec = small("fig3", samples=600)
        table = runner.run_scenario(spec, default_cfg)
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


class TestDiscordWork:
    """The discord searches and pair reductions of fig5, fig6 and fig9, counted where host speed cannot move them.

    A change that alters this work updates the pins and says why.
    """

    @pytest.mark.parametrize(
        "name, searches, evaluations, pair_states",
        [("fig5", 10, 113, 0), ("fig6", 5, 70, 0), ("fig9", 20, 244, 20)],
    )
    def test_searches_and_pair_states(self, default_cfg, monkeypatch, name, searches, evaluations, pair_states):
        minimize, results = corr.minimize, []
        monkeypatch.setattr(corr, "minimize", lambda *args: results.append(minimize(*args)) or results[-1])
        pair_state, reductions = corr.pair_state, []
        monkeypatch.setattr(corr, "pair_state", lambda *args: reductions.append(args) or pair_state(*args))
        spec = runner.ScenarioSpec.named(name, samples=5)
        table = runner.run_scenario(spec, default_cfg)
        assert len(table.rows) == 5 * len(spec.gamma) * len(spec.initial)
        # One search per discord: fig5 and fig6 measure one pair per sample, fig9 two.
        assert len(results) == searches and sum(r.nfev for r in results) == evaluations
        assert len(reductions) == pair_states


class TestBlockPairStates:
    """fig5 and fig6 read their pair states from the reduced block, bit for bit the per-state route."""

    @pytest.mark.parametrize(
        "kind, theta, gamma",
        [
            ("psi_b", math.pi / 4, 0.0),
            ("psi_b", math.pi / 4, 0.05),
            ("psi_b", math.pi / 4, 0.5),
            ("psi_a", math.pi / 3, 0.01),
            ("rho_eq20", math.pi / 4, 0.01),
        ],
    )
    def test_rows_equal_the_per_state_route(self, kind, theta, gamma):
        traj = runner.network_trajectory(model.NetworkConfig(gamma=gamma), model.InitialStateSpec(kind, theta), 20.0, 60)
        subs = [corr.pair_state(state, runner._P33) for state in traj.states]
        want = [(corr.eof_from_concurrence(corr.concurrence(sub)), corr.quantum_discord(sub)) for sub in subs]
        assert runner._MEASURES["fig5"][1](traj) == want
        subs = [corr.pair_state(state, runner._P21) for state in traj.states]
        want = [(*corr._classical_and_discord(sub, "B"), corr.eof_from_concurrence(corr.concurrence(sub))) for sub in subs]
        assert runner._MEASURES["fig6"][1](traj) == want

    @pytest.mark.parametrize("name", ["fig5", "fig6"])
    def test_an_invalid_pair_state_names_its_sample(self, default_cfg, name):
        traj = runner.network_trajectory(default_cfg, model.InitialStateSpec("psi_b", math.pi / 4), 2.0, 6)
        samples = traj.samples.copy()
        samples[3] *= 1.5
        samples.setflags(write=False)
        broken = dataclasses.replace(traj, samples=samples)
        where = re.escape(f"sample 3 at lambda*t = {traj.times_lambda[3]:.6g}")
        with pytest.raises(ValueError, match=f"^{where}: trace deviates from one"):
            runner._MEASURES[name][1](broken)


class TestCustomSamples:
    """``custom`` reads its purity, concurrences and one-tangles from the samples, as the per-state route gives them."""

    _REGISTERS = {6: (("11'", "22'", "33'"), ("1", "1'", "2", "2'", "3", "3'")), 3: (("12", "13", "23"), ("1", "2", "3"))}

    @pytest.mark.parametrize("kind, gamma", [("psi_a", 0.0), ("psi_a", 0.05), ("psi1_chain", 0.01)])
    def test_rows_equal_the_per_state_route(self, kind, gamma):
        traj = runner.network_trajectory(model.NetworkConfig(gamma=gamma), model.InitialStateSpec(kind, math.pi / 3), 12.0, 60)
        pairs, sites = self._REGISTERS[len(traj.dims)]
        columns, measure = runner._REGISTER_MEASURES[len(traj.dims)]
        assert columns == ("purity",) + tuple(f"conc_{p}".replace("'", "p") for p in pairs) + tuple(
            f"det_{s}".replace("'", "p") for s in sites
        )
        selectors = [corr.PairSelector.from_label(label) for label in pairs]
        want = [
            (
                qla.purity(state),
                *(corr.concurrence(corr.pair_state(state, sel)) for sel in selectors),
                *(corr.one_tangle(state, model.cavity_label_to_qubit(site)) for site in sites),
            )
            for state in traj.states
        ]
        got = measure(traj)
        assert len(got) == len(want) == 60
        # Purity sums Tr rho^2 in another order on the support than over the full matrix.
        assert max(abs(g[0] - w[0]) for g, w in zip(got, want)) <= 1e-15
        assert [g[1:] for g in got] == [w[1:] for w in want]


class TestTangleBrackets:
    """fig8 reads its tangle bracket from the samples, as ``tangle_bounds`` gives it per state."""

    @pytest.mark.parametrize("kind", ["psi_a", "psi_b"])
    @pytest.mark.parametrize("gamma", [0.0, 0.01, 0.5])
    def test_rows_equal_tangle_bounds(self, kind, gamma):
        spec = runner.ScenarioSpec.named("fig8")
        init = model.InitialStateSpec(kind, math.pi / 4)
        traj = runner.network_trajectory(model.NetworkConfig(gamma=gamma), init, spec.t_max_lambda, spec.samples)
        got = np.array(runner._tangle_brackets(traj, 0))
        want = np.array([tuple(corr.tangle_bounds(state, 0)) for state in traj.states])
        assert got.shape == want.shape == (800, 5)
        # The upper terms are bit for bit; purity sums Tr rho^2 in another
        # order on the support than over the full matrix, and the lower
        # terms take it in.
        assert (got[:, [1, 3]] == want[:, [1, 3]]).all()
        assert np.abs(got[:, [0, 2, 4]] - want[:, [0, 2, 4]]).max() <= 1e-15

    def test_an_invalid_reduction_names_its_sample(self, default_cfg):
        traj = runner.network_trajectory(default_cfg, model.InitialStateSpec("psi_b", math.pi / 4), 2.0, 6)
        samples = traj.samples.copy()
        samples[3] *= 1.5
        samples.setflags(write=False)
        broken = dataclasses.replace(traj, samples=samples)
        where = re.escape(f"sample 3 at lambda*t = {traj.times_lambda[3]:.6g}")
        with pytest.raises(ValueError, match=f"^{where}: trace deviates from one"):
            runner._MEASURES["fig8"][1](broken)


class TestSeriesWork:
    """What fig2, fig3, fig4, fig8, custom and transmission compute per sweep point, counted where host speed cannot move it."""

    @pytest.mark.parametrize(
        "name, builds_states",
        [("fig2", False), ("fig3", False), ("fig4", False), ("custom", False), ("fig8", False), ("fig7", True)],
    )
    def test_block_scenarios_build_no_states(self, default_cfg, monkeypatch, name, builds_states):
        wrap, wrapped = dynamics._wrap_checked, []
        reduced, reductions = dynamics.Trajectory.reduced, []
        monkeypatch.setattr(dynamics, "_wrap_checked", lambda *a: wrapped.append(a) or wrap(*a))
        monkeypatch.setattr(dynamics.Trajectory, "reduced", lambda self, keeps: reductions.append(keeps) or reduced(self, keeps))
        partial_trace, traces = qla.partial_trace, []
        monkeypatch.setattr(qla, "partial_trace", lambda *a: traces.append(a) or partial_trace(*a))
        spec = small(name, samples=20)
        table = runner.run_scenario(spec, default_cfg)
        assert table.rows
        points = len(spec.theta_list) * len(spec.gamma)
        if builds_states:
            # The control: states are built, in chunks of _CHUNK, and reduced one by one.
            assert len(wrapped) == 2 * points and traces and not reductions
        else:
            # custom and fig8 reduce once onto their pairs and once onto their sites.
            assert wrapped == [] and traces == [] and len(reductions) == (2 if name in ("custom", "fig8") else 1) * points

    def test_transmission_reduces_one_pair_state_per_point(self, default_cfg, monkeypatch):
        pair_state, calls = corr.pair_state, []
        monkeypatch.setattr(corr, "pair_state", lambda *a: calls.append(a) or pair_state(*a))
        wrap, wrapped = dynamics._wrap_checked, []
        monkeypatch.setattr(dynamics, "_wrap_checked", lambda *a: wrapped.append(a) or wrap(*a))
        table = runner.run_scenario(small("transmission", samples=41), default_cfg)
        assert len(table.rows) == 6
        assert len(calls) == len(table.rows) and wrapped == []
        # Each is the source pair of the point's initial state.
        assert all(sel == SRC and rho.dims == (2,) * 6 for rho, sel in calls)


class TestPropagateWork:
    """Work of the propagate scenarios that no sample changes, counted where host speed cannot move it."""

    def test_one_liouvillian_per_generator(self, default_cfg):
        # fig2 and transmission run at gamma = 0.01, fig7 at 0: two generators for 12 trajectories.
        dynamics._liouvillian.cache_clear()
        for name in ("fig2", "fig7", "transmission"):
            runner.run_scenario(small(name, samples=11), default_cfg)
        info = dynamics._liouvillian.cache_info()
        assert (info.misses, info.hits) == (2, 10)

    @pytest.mark.parametrize("name", ["fig7", "fig8"])
    def test_tangle_bracket_takes_one_series_per_sample(self, default_cfg, monkeypatch, name):
        concurrence, series = [], corr.concurrence_series
        monkeypatch.setattr(corr, "concurrence", lambda *a: concurrence.append(a))
        monkeypatch.setattr(corr, "concurrence_series", lambda stack: concurrence.append(stack.shape) or series(stack))
        table = runner.run_scenario(small(name, samples=11), default_cfg)
        if name == "fig8":
            # One series per point measures the five partner pairs of all 11 samples.
            assert concurrence == [(11 * 5, 4, 4)] * (len(table.rows) // 11)
        else:
            assert concurrence == [(5, 4, 4)] * len(table.rows)


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

    def test_every_theta_is_checked(self, default_cfg, capsys):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi/2\]"):
            runner.run_scenario(runner.ScenarioSpec.named("fig6", theta_list=(0.5, 5.0)), default_cfg)
        with pytest.raises(SystemExit) as exit_:
            cli.main(["simulate", "--initial", "rho_eq20", "--theta", "0.5", "--theta", "5", "--samples", "3"])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == "cavnet: error: theta must lie in [0, pi/2]"

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

    def test_transfer_peak_order(self, default_cfg):
        spec = small("fig4", t_max_lambda=3.0, samples=400)
        table = runner.run_scenario(spec, default_cfg)
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
        vec[0] = 1 / math.sqrt(2)
        vec[0b010010] = 1 / math.sqrt(2)  # |E> at cavities 2 and 2'
        rho0 = qla.pure(vec, (2,) * 6)
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

    def test_fig3_one_tangles_closed_form(self):
        # Lossless psi_a puts cos(theta) u_k(t) on site k of chain 1 and
        # leaves no coherence between its |E> and |G>, so det_k = 4 p (1 - p)
        # with p = cos^2(theta) |u_k|^2.
        thetas = (math.pi / 8, math.pi / 4, math.pi / 3)
        table = runner.run_scenario(runner.ScenarioSpec.named("fig3", theta_list=thetas, samples=101), model.NetworkConfig())
        assert len(table.rows) == 3 * 101
        cfg = model.NetworkConfig(gamma=0.0)
        t = np.array(table.column("lambda_t")) / model.effective_coupling(cfg)
        p = np.cos(np.array(table.column("theta")))[:, None] ** 2 * np.abs(oracles.one_excitation_amplitudes(cfg, t)) ** 2
        measured = np.array([table.column(f"det_{k}") for k in (1, 2, 3)]).T
        assert np.max(np.abs(measured - 4.0 * p * (1.0 - p))) < 1e-12

    def test_fig4_peaks_closed_form(self):
        # Lossless psi_a gives pair kk' fig2's form at every site k,
        # C_kk' = 2 |cos(theta) sin(theta)| |u_k|^2; the table holds that series' peaks.
        thetas = (math.pi / 8, math.pi / 4, math.pi / 3)
        spec = runner.ScenarioSpec.named("fig4", theta_list=thetas, samples=201)
        table = runner.run_scenario(spec, model.NetworkConfig())
        cfg = model.NetworkConfig(gamma=0.0)
        lam = model.effective_coupling(cfg)
        t = dynamics.sample_grid(spec.t_max_lambda, spec.samples, lam)
        p = np.abs(oracles.one_excitation_amplitudes(cfg, t)) ** 2
        for theta in thetas:
            expected = 2.0 * abs(math.cos(theta) * math.sin(theta)) * p
            events = runner.peak_sequence(dict(zip(("11'", "22'", "33'"), expected.T)), t * lam)
            rows = [row[3:] for row in table.rows if row[1] == theta]
            assert len(rows) == len(events) == 15
            for (pair, time, value, group), event in zip(rows, events):
                assert (pair, group) == (event.pair, event.simultaneous_group)
                assert abs(time - event.time_lambda) < 1e-12 and abs(value - event.value) < 1e-12

    def test_psi_b_transmission_closed_form(self):
        # The 33' pair of psi_b is fig5's X state, with |rho_03| = |s c| p,
        # rho_11 = rho_22 = c^2 p (1 - p) and rho_12 = 0 (p = |u_3|^2), so
        # C_33' = 2 max(0, |s c| p - c^2 p (1 - p)); at t = 0, C_11' = 2 |s c|.
        spec = runner.ScenarioSpec.named("transmission", initial=("psi_b",))
        table = runner.run_scenario(spec, model.NetworkConfig())
        assert len(table.rows) == 3 and set(table.column("gamma")) == {0.01}
        cfg = model.NetworkConfig(gamma=0.01)
        lam = model.effective_coupling(cfg)
        t = dynamics.sample_grid(spec.t_max_lambda, spec.samples, lam)
        p = np.abs(oracles.one_excitation_amplitudes(cfg, t)[:, 2]) ** 2
        for theta, ratio, peak_time, at_transfer in zip(*map(table.column, ("theta", "ratio_max", "peak_lambda_t", "ratio_at_transfer"))):
            s, c = math.sin(theta), math.cos(theta)
            series = 2.0 * np.maximum(0.0, abs(s * c) * p - c**2 * p * (1.0 - p))
            c0 = 2.0 * abs(s * c)
            want_time, want_peak = runner._quadratic_peak(t * lam, series, int(np.argmax(series)))
            assert abs(ratio - want_peak / c0) < 1e-12 and abs(peak_time - want_time) < 1e-12
            assert abs(at_transfer - np.interp(runner.TRANSFER_TIME_LAMBDA, t * lam, series) / c0) < 1e-12

    def test_fig5_eof_and_discord_closed_form(self):
        # psi_b is s|vac> + c|E at 1, E at 1'>, and each chain's excitation
        # stays u plus vacuum, so the 33' pair over |GG>, |GE>, |EG>, |EE> is
        # the X state with populations s^2 + c^2 (1 - p)^2, c^2 p (1 - p)
        # twice and c^2 p^2, p = |u_3|^2, and rho_{GG,EE} = s c conj(u_3)^2.
        table = runner.run_scenario(runner.ScenarioSpec.named("fig5", samples=10), model.NetworkConfig())
        assert len(table.rows) == 2 * 10
        theta = np.array(table.column("theta"))
        s, c = np.sin(theta), np.cos(theta)
        u3 = np.empty(len(table.rows), dtype=complex)
        for gamma in set(table.column("gamma")):
            cfg = model.NetworkConfig(gamma=gamma)
            rows = np.array(table.column("gamma")) == gamma
            t = np.array(table.column("lambda_t"))[rows] / model.effective_coupling(cfg)
            u3[rows] = oracles.one_excitation_amplitudes(cfg, t)[:, 2]
        p = np.abs(u3) ** 2
        m = np.zeros((len(p), 4, 4), dtype=complex)
        m[:, 0, 0] = s**2 + c**2 * (1.0 - p) ** 2
        m[:, 1, 1] = m[:, 2, 2] = c**2 * p * (1.0 - p)
        m[:, 3, 3] = c**2 * p**2
        m[:, 0, 3] = s * c * np.conj(u3) ** 2
        m[:, 3, 0] = np.conj(m[:, 0, 3])
        # Wootters' concurrence of an X state (Yu & Eberly 2007), and its entanglement of formation.
        d = m[:, range(4), range(4)].real
        arms = np.abs(m[:, 0, 3]) - np.sqrt(d[:, 1] * d[:, 2]), np.abs(m[:, 1, 2]) - np.sqrt(d[:, 0] * d[:, 3])
        conc = 2.0 * np.maximum(0.0, np.maximum(*arms))
        q = (1.0 + np.sqrt(1.0 - conc**2)) / 2.0
        eof = sum(-x * np.log2(x, out=np.zeros_like(x), where=x > 0.0) for x in (q, 1.0 - q))
        assert np.max(np.abs(np.array(table.column("eof_33p")) - eof)) < 1e-12
        discord = [oracles.dense_discord(qla.density(x, (2, 2))) for x in m]
        assert np.max(np.abs(np.array(table.column("discord_33p")) - discord)) < 1e-12

    def test_fig6_correlations_closed_form(self):
        # rho_eq20 has psi_b's amplitudes at theta = pi/4, so its 21' pair
        # (site 2 of chain 1, site 1 of chain 2) over |GG>, |GE>, |EG>, |EE>
        # is the X state with populations c^2 (1 - p_2) p_1', c^2 p_2 (1 - p_1')
        # and c^2 p_2 p_1', the vacuum taking the rest, and
        # rho_{GG,EE} = s c conj(u_2 u_1'), with p = |u|^2 of each site.
        table = runner.run_scenario(runner.ScenarioSpec.named("fig6", samples=10), model.NetworkConfig())
        assert len(table.rows) == 10 and set(table.column("gamma")) == {0.01}
        cfg = model.NetworkConfig(gamma=0.01)
        u = oracles.one_excitation_amplitudes(cfg, np.array(table.column("lambda_t")) / model.effective_coupling(cfg))
        u_a, u_b = u[:, 1], u[:, 0]
        p_a, p_b = np.abs(u_a) ** 2, np.abs(u_b) ** 2
        s = c = math.sqrt(0.5)
        m = np.zeros((len(p_a), 4, 4), dtype=complex)
        m[:, 1, 1] = c**2 * (1.0 - p_a) * p_b
        m[:, 2, 2] = c**2 * p_a * (1.0 - p_b)
        m[:, 3, 3] = c**2 * p_a * p_b
        m[:, 0, 0] = 1.0 - m[:, 1, 1] - m[:, 2, 2] - m[:, 3, 3]
        m[:, 0, 3] = s * c * np.conj(u_a * u_b)
        m[:, 3, 0] = np.conj(m[:, 0, 3])
        # Wootters' concurrence of an X state (Yu & Eberly 2007), and its entanglement of formation.
        d = m[:, range(4), range(4)].real
        arms = np.abs(m[:, 0, 3]) - np.sqrt(d[:, 1] * d[:, 2]), np.abs(m[:, 1, 2]) - np.sqrt(d[:, 0] * d[:, 3])
        conc = 2.0 * np.maximum(0.0, np.maximum(*arms))
        q = (1.0 + np.sqrt(1.0 - conc**2)) / 2.0
        eof = sum(-x * np.log2(x, out=np.zeros_like(x), where=x > 0.0) for x in (q, 1.0 - q))

        def entropy(w):
            return -(w * np.log2(w, out=np.zeros_like(w), where=w > 1e-12)).sum(axis=-1)

        # I = S(A) + S(B) - S(AB), from eigenvalues; the marginals of an X state are diagonal.
        info = entropy(d[:, :2] + d[:, 2:]) + entropy(d[:, ::2] + d[:, 1::2]) - entropy(np.linalg.eigvalsh(m))
        discord = np.array([oracles.dense_discord(qla.density(x, (2, 2))) for x in m])
        assert np.max(np.abs(np.array(table.column("eof_21p")) - eof)) < 1e-12
        assert np.max(np.abs(np.array(table.column("discord_21p")) - discord)) < 1e-12
        assert np.max(np.abs(np.array(table.column("cc_21p")) - (info - discord))) < 1e-12


class TestTables:
    def test_csv_deterministic(self, default_cfg):
        spec = small("fig3", samples=60)
        a, b = io.StringIO(), io.StringIO()
        runner.run_scenario(spec, default_cfg).to_csv(a)
        runner.run_scenario(spec, default_cfg).to_csv(b)
        assert a.getvalue() == b.getvalue()
        assert a.getvalue().startswith("initial,theta,gamma,lambda_t,det_1,det_2,det_3\n")

    def test_jsonl_mirrors_columns(self, default_cfg):
        import json

        spec = small("fig3", samples=24)
        table = runner.run_scenario(spec, default_cfg)
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


# The keys [network] accepts, as the unknown-key error lists them.
_NETWORK_KEYS = "omega, nu, omega_f, j, kappa, fiber_length_l, fiber_continuum_decay_mu"


class TestConfigAndCli:
    def test_config_roundtrip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "\n".join(
                [
                    "[network]",
                    "kappa = 1.0",
                    "[scenario]",
                    "name = fig3",
                    "gamma = 0.02",
                    "gamma_units = abs",
                    "theta = 0.785398163",
                    "tmax_lambda = 2.0",
                    "samples = 24",
                ]
            )
        )
        parsed = cli.load_config(path)
        assert parsed["network"] == {"kappa": 1.0}
        assert parsed["scenario"]["gamma"] == (0.02,)
        assert parsed["scenario"]["gamma_units"] == "abs"
        assert parsed["scenario"]["name"] == "fig3"
        assert parsed["scenario"]["samples"] == 24
        path.write_text("[integrator]\nrel_tol = 1e-8\n")
        with pytest.raises(ValueError, match=r"unknown config section \[integrator\] \(keys: rel_tol\)"):
            cli.load_config(path)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[network]\ntemperature = 300\n", r"temperature.*\[network\]"),
            ("[network]\ngama = 0.5\n", r"gama.*\[network\]"),
            ("[scenario]\nthetas = 0.1\n", r"thetas.*\[scenario\]"),
            ("[fiber]\nlength = 1.0\n", r"\[fiber\]"),
            ("[DEFAULT]\ngamma = 0.1\n", r"\[DEFAULT\]"),
            # The sweep alone takes gamma, its units and the network size.
            ("[network]\ngamma = 0.01, 0.02, 0.03\n", r"'gamma'.*\[network\]"),
            ("[network]\ngamma_units = lambda\n", r"'gamma_units'.*\[network\]"),
            ("[network]\nsites_per_chain = 3\n", r"'sites_per_chain'.*\[network\]"),
            ("[network]\nnum_chains = 2\n", r"'num_chains'.*\[network\]"),
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
            ("[scenario]\ngamma = fast\n", r"\[scenario\] gamma = 'fast': could not convert"),
        ],
        ids=["int", "float", "numbers", "one-rate"],
    )
    def test_config_value_errors_name_the_key(self, tmp_path, text, named):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ValueError, match=named):
            cli.load_config(path)

    def test_readme_config_resolves(self, tmp_path):
        # The config file documented in README parses and reaches the settings it names.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        assert blocks
        for block in blocks:
            path = tmp_path / "readme.ini"
            path.write_text(block)
            layers = cli.load_config(path)
            cfg, spec, out, fmt = cli.resolve(cli.build_parser().parse_args(["scenario", "--config", str(path)]))
            assert layers["network"] and layers["scenario"]
            for key, value in layers["network"].items():
                assert getattr(cfg, key) == value, key
            resolved = {**vars(spec), "out": out, "format": fmt}
            for key, value in layers["scenario"].items():
                assert resolved[key] == value, key

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

    def test_cli_simulate_stdout(self, capsys, tmp_path):
        rc = cli.main(
            ["simulate", "--initial", "psi2_chain", "--samples", "6", "--tmax-lambda", "1.0"]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert captured.splitlines()[0].startswith("initial,theta,gamma,lambda_t,purity")

    def test_cli_config_network_gamma_feeds_scenario(self, capsys, tmp_path):
        # The scenario's rate comes from [scenario] only; a [network] gamma is an unknown key.
        path = tmp_path / "g.ini"
        path.write_text("[scenario]\ngamma = 0.5\ngamma_units = lambda\n")
        run = ["scenario", "--scenario", "transmission", "--initial", "psi_a", "--theta", "0.785398", "--samples", "81"]
        assert cli.main(run + ["--config", str(path)]) == 0
        via_config = capsys.readouterr().out
        assert cli.main(run + ["--gamma", "0.5", "--gamma-units", "lambda"]) == 0
        assert via_config == capsys.readouterr().out
        assert ",0.5,11',33'," in via_config
        for text in ("[network]\ngamma = 0.5\n", "[network]\ngamma = 0.01 0.02 0.03\n"):
            path.write_text(text)
            for argv in (run + ["--config", str(path)], ["simulate", "--samples", "3", "--tmax-lambda", "1.0", "--config", str(path)]):
                with pytest.raises(SystemExit) as exit_:
                    cli.main(argv)
                assert exit_.value.code == 2
                err = capsys.readouterr().err
                assert "cavnet: error: unknown key 'gamma' in config section [network]" in err

    def test_cli_simulate_config_gamma_feeds_sweep(self, capsys, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[scenario]\ngamma = 0.5\ngamma_units = lambda\n")
        for run, first_row in (
            (["simulate", "--initial", "psi2_chain", "--samples", "6", "--tmax-lambda", "1.0"], "psi2_chain,0.785398163397,0.5,0,"),
            (["transmission", "--initial", "psi_a", "--theta", "0.785398", "--samples", "81"], "psi_a,0.785398,0.5,11',33',"),
        ):
            assert cli.main(run + ["--config", str(path)]) == 0
            via_config = capsys.readouterr().out
            assert cli.main(run + ["--gamma", "0.5", "--gamma-units", "lambda"]) == 0
            assert via_config == capsys.readouterr().out
            assert via_config.splitlines()[1].startswith(first_row)
            # The units reach the sweep: the same rate in 1/ns gives other numbers.
            assert cli.main(run + ["--gamma", "0.5", "--gamma-units", "abs"]) == 0
            assert via_config != capsys.readouterr().out

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
                "unknown key 'sites_per_chain' in config section [network]; known: " + _NETWORK_KEYS,
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
            # Theta is checked for the initial states that ignore it, too.
            (["--initial", "rho_eq20", "--theta", "5"], "theta must lie in [0, pi/2]", None),
            (["--scenario", "fig9", "--initial", "psi1_chain", "--theta", "5"], "theta must lie in [0, pi/2]", None),
            # The sweep alone takes gamma.
            ([], "unknown key 'gamma' in config section [network]; known: " + _NETWORK_KEYS, "[network]\ngamma = 0.5\n"),
            # Every theta, not only the one the state is built from.
            (["--initial", "rho_eq20", "--theta", "0.5", "--theta", "5"], "theta must lie in [0, pi/2]", None),
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


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_summarizes_page_faults():
    def run(value, minflt):
        return {"result": {"correct": True, "failed": 0, "metrics": {"run_s": {"value": value}}}, "minflt": minflt}

    pairs = [{"parent": run(2.0, p), "change": run(1.0, c)} for p, c in ((100, 90), (300, 70), (200, 80))]
    summary = _bench_pairs().summarize(pairs, {})
    assert summary["minor_page_faults_median"] == {"parent": 200, "change": 80}
    assert summary["run_s"]["change_better_pairs"] == 3


def test_bench_pairs_measures_csv_differences():
    csv_difference = _bench_pairs().csv_difference
    parent = b"kind,t,value\npsi_b,0.5,0.25\npsi_b,1,-300\n"
    assert csv_difference(parent, parent) == {"cells": 0, "max_rel": 0.0}
    # Below one in magnitude the difference counts as absolute, above it as relative to the parent.
    change = b"kind,t,value\npsi_b,0.5,0.2500000001\npsi_b,1,-300.00003\n"
    d = csv_difference(parent, change)
    assert d["cells"] == 2 and d["max_rel"] == pytest.approx(1e-7)
    for change in (b"kind,t,value\npsi_a,0.5,0.25\npsi_b,1,-300\n", parent + b"psi_b,2,1\n", parent.replace(b"0.25", b"nan")):
        assert csv_difference(parent, change)["max_rel"] == math.inf


def test_bench_pairs_figures_run_compares_simulate_tables(monkeypatch):
    # A figures run keeps the CSV bytes of every figure, of ``cavnet
    # simulate`` on each register and of ``cavnet transmission`` from
    # rho_eq20, so a pair byte-compares all of them.
    bench_pairs, commands = _bench_pairs(), []

    def run(cmd, cwd, env):
        commands.append(cmd[1:])
        if "--outdir" not in cmd:
            return f"table of {cmd[-1]}\n", 99.0
        path = Path(cmd[-1]) / "fig3.csv"
        path.write_bytes(b"fig3 table\n")
        return f"fig3: 1 rows -> {path} (0.100s)\n", 42.0

    monkeypatch.setattr(bench_pairs, "_run", run)
    got = bench_pairs.figures_run(Path("/checkout"), None)
    assert got["csv"] == {
        "fig3": b"fig3 table\n",
        "simulate psi_a": b"table of psi_a\n",
        "simulate psi1_chain": b"table of psi1_chain\n",
        "transmission rho_eq20": b"table of rho_eq20\n",
    }
    # The peak RSS is the figure script's own, not the command tables'.
    assert got["result"]["metrics"] == {"fig3_s": {"value": 0.1, "unit": "s"}, "peak_rss_mb": {"value": 42.0, "unit": "MB"}}
    tables = (("simulate", "psi_a"), ("simulate", "psi1_chain"), ("transmission", "rho_eq20"))
    assert commands[1:] == [["-m", "cavnet", command, "--initial", kind] for command, kind in tables]


_PEAK_RSS_PROBE = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
out, big = bench_pairs._run([sys.executable, "-c", "print(len(b'x' * (64 << 20)))"], ".", {})
print(out.strip(), big, bench_pairs._run([sys.executable, "-c", "pass"], ".", {})[1])
bench_pairs._run([sys.executable, "-c", "import sys; sys.stderr.write('boom'); sys.exit(3)"], ".", {})
"""


def test_bench_pairs_reads_each_childs_own_peak_rss(tmp_path):
    # A 64 MB child, then a small one: the maximum over all children would read 64 MB for both.
    # A child's reading includes the resident set of the process that spawned it, so that
    # process is a fresh interpreter that loads only the script, as a benchmark run does.
    script = str(Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_PROBE, script], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    size, big, small = proc.stdout.split()
    assert int(size) == 64 << 20
    assert float(big) > 64 and float(small) < float(big) - 48
    assert proc.returncode == 1 and proc.stderr.endswith("exited 3:\nboom\n")


def test_reproduce_figures_lines_parse_for_bench_pairs(tmp_path):
    # scripts/bench_pairs.py reads the per-scenario seconds and CSV path
    # from every line the figure script prints.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    script = str(root / "scripts" / "reproduce_figures.py")
    argv = [sys.executable, script, "--only", "fig3", "--samples", "3", "--outdir", str(tmp_path)]
    out = subprocess.run(argv, capture_output=True, text=True, env=env, check=True, timeout=300)
    matches = [_bench_pairs().FIGURE_LINE.match(line) for line in out.stdout.splitlines()]
    assert matches and all(matches)
    assert [m[1] for m in matches] == ["fig3"]
    assert Path(matches[0][2]) == tmp_path / "fig3.csv" and Path(matches[0][2]).is_file()
    assert len(matches[0][3].split(".")[1]) == 3


def test_reproduce_figures_runs_the_nine_figure_scenarios(tmp_path):
    # Every named scenario but the register-sized ``custom``, in order, and only those.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    script = str(root / "scripts" / "reproduce_figures.py")
    argv = [sys.executable, script, "--samples", "2", "--outdir", str(tmp_path)]
    out = subprocess.run(argv, capture_output=True, text=True, env=env, check=True, timeout=300)
    names = ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "transmission"]
    assert [line.split(":")[0] for line in out.stdout.splitlines()] == names
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(f"{name}.csv" for name in names)
    out = subprocess.run(argv + ["--only", "custom"], capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 2 and "invalid choice: 'custom'" in out.stderr
