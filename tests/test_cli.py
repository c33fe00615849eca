import configparser
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import wakesim as ws
from wakesim.cli import main
from wakesim.config import load_config
from wakesim.errors import ConfigurationError
from wakesim.seeding import seed_sequence

SHIPPED_CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.ini"))
RECEIVER_FLOATS = ("cof_hz", "d_sample_us", "video_noise_sigma_v", "threshold_v",
                   "video_noise_tau_us", "lna_gain_db", "log_slope_v_per_db",
                   "log_intercept_v", "log_floor_dbm", "square_law_k")


class TestLoadConfig:
    def test_empty_config_runs_power_sweep_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        cfg = load_config(path)
        assert cfg.scenario == "rx_power_sweep"
        assert cfg.rng_seed == 12345
        assert cfg.n_trials == 10_000
        assert cfg.receiver.cof_hz == 159e3
        assert cfg.alphabet.symbols == (720.0, 800.0, 1000.0)

    def test_no_file_at_all(self):
        cfg = load_config(None)
        assert cfg.scenario == "rx_power_sweep"

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[receiver]\nfoo_hz = 3\n")
        with pytest.raises(ConfigurationError, match="foo_hz"):
            load_config(path)

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[channel]\ntemperature_k = lots\n")
        with pytest.raises(ConfigurationError, match="temperature_k"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[antenna]\ngain = 3\n")
        with pytest.raises(ConfigurationError, match="antenna"):
            load_config(path)

    def test_unknown_scenario_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nscenario = fly_to_moon\n")
        with pytest.raises(ConfigurationError, match="fly_to_moon"):
            load_config(path)

    def test_values_flow_through(self, tmp_path):
        path = tmp_path / "ok.ini"
        path.write_text(
            "[run]\nscenario = calibrate\nseed = 99\ntrials = 1000\n"
            "[receiver]\ncof_hz = 48.2e3\nvideo_noise_sigma_v = 0\n"
            "[channel]\nnoise_figure_db = 6\n"
            "[sweep]\ncofs_hz = 0, 159e3\n")
        cfg = load_config(path)
        assert cfg.scenario == "calibrate"
        assert cfg.rng_seed == 99
        assert cfg.n_trials == 1000
        assert cfg.receiver.cof_hz == 48.2e3
        assert cfg.receiver.video_noise_sigma_v == 0.0
        assert cfg.channel.noise_figure_db == 6.0
        assert cfg.cofs_hz == (0.0, 159e3)


    @pytest.mark.parametrize("raw", ["1.7", "2.5e0", "nan", "inf"])
    def test_non_integral_int_key_names_key(self, tmp_path, raw):
        path = tmp_path / "bad.ini"
        path.write_text(f"[phy]\ncw = {raw}\n")
        with pytest.raises(ConfigurationError, match="phy.cw"):
            load_config(path)

    @pytest.mark.parametrize("section,key", [
        ("receiver", "cof_hz"), ("receiver", "d_sample_us"),
        ("receiver", "video_noise_sigma_v"), ("receiver", "threshold_v"),
        ("channel", "temperature_k"), ("sweep", "target_p10"),
        ("wakeup", "rx_power_dbm")])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_float_names_key(self, tmp_path, section, key, raw):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigurationError, match=f"{section}.{key}"):
            load_config(path)

    @pytest.mark.parametrize("field", RECEIVER_FLOATS)
    def test_receiver_config_rejects_nan(self, field):
        with pytest.raises(ConfigurationError, match=field):
            ws.ReceiverConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field", RECEIVER_FLOATS)
    @pytest.mark.parametrize("value", [float("inf"), -float("inf")])
    def test_receiver_config_rejects_infinity(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            ws.ReceiverConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), 2.5, 0],
                             ids=["nan", "fraction", "zero"])
    @pytest.mark.parametrize("key", ["n_trials", "cw", "wakeup_id_width",
                                     "wakeup_alphabet_size"])
    def test_experiment_config_rejects_bad_counts(self, key, value):
        # unchecked, n_trials=nan calibrated and then died with a TypeError
        # in the wake-up trials, and 2.5 reached the kernels as a count
        with pytest.raises(ConfigurationError,
                           match=f"^{key} must be an integer >= 1, got "):
            ws.ExperimentConfig(scenario="wakeup_end_to_end", **{key: value})

    @pytest.mark.parametrize("tau", [-30.0, 0.0])
    def test_receiver_config_rejects_non_positive_tau(self, tau):
        with pytest.raises(ConfigurationError, match="video_noise_tau_us"):
            ws.ReceiverConfig(video_noise_tau_us=tau, threshold_v=0.3)

    @pytest.mark.parametrize("section,key", [
        ("receiver", "bpf_bandwidth_hz"), ("cc2420", "filter_bandwidth_hz"),
        ("phy", "tx_power_dbm"), ("phy", "internal_rate_hz"),
        ("channel", "attenuation_db"), ("phy", "waveform_model"),
        ("edge_delay", "threshold_policy")])
    def test_removed_keys_are_unknown(self, tmp_path, section, key):
        path = tmp_path / "old.ini"
        path.write_text(f"[{section}]\n{key} = 5\n")
        with pytest.raises(ConfigurationError, match=f"unknown key '{key}'"):
            load_config(path)

    @pytest.mark.parametrize("section,key", [
        ("alphabet", "symbols"), ("run", "rng_seed"), ("run", "n_trials"),
        ("run", "output_dir"), ("edge_delay", "edge_cofs_hz"),
        ("cc2420", "cc2420_length_us"), ("wakeup", "wakeup_id_width")])
    def test_field_names_behind_renamed_keys_are_unknown(self, tmp_path, section, key):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = 5\n")
        with pytest.raises(ConfigurationError, match=f"unknown key '{key}'"):
            load_config(path)

    @pytest.mark.parametrize("raw", ["", "none", "OFF", "auto"])
    def test_unset_spellings_of_optional_keys(self, tmp_path, raw):
        path = tmp_path / "ok.ini"
        path.write_text(f"[channel]\nnoise_figure_db = {raw}\n"
                        f"[receiver]\nthreshold_v = {raw}\n")
        cfg = load_config(path)
        assert cfg.channel.noise_figure_db is None
        assert cfg.receiver.threshold_v is None

    @pytest.mark.parametrize("section,key", [("run", "trials"), ("receiver", "cof_hz")])
    def test_unset_spelling_of_required_key_names_key(self, tmp_path, section, key):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = none\n")
        with pytest.raises(ConfigurationError, match=f"{section}.{key}"):
            load_config(path)

    def test_every_key_sets_its_field(self, tmp_path):
        path = tmp_path / "all.ini"
        path.write_text(
            "[run]\nscenario = wakeup_end_to_end\nseed = 77\ntrials = 1000\nout = o\n"
            "[channel]\nnoise_figure_db = 2.5\n"
            "bandwidth_hz = 10e6\ntemperature_k = 300\n"
            "[receiver]\nlna_gain_db = 12\ndetector_model = square_law_linear\n"
            "log_slope_v_per_db = 0.03\nlog_intercept_v = 1.5\nlog_floor_dbm = -90\n"
            "square_law_k = 2\ncof_hz = 48.2e3\nthreshold_v = 0.25\nd_sample_us = 8\n"
            "video_noise_sigma_v = 0.01\nvideo_noise_tau_us = 20\n"
            "[phy]\ncw = 4\n"
            "[alphabet]\nsymbols_us = 720; 800\nmargin_us = 20\n"
            "[sweep]\nrx_powers_dbm = -90, -88\ncofs_hz = 0, 1e5\nlengths_us = 720\n"
            "target_p10 = 1e-2\ntarget_p01 = 2e-3\n"
            "[edge_delay]\ncofs_hz = 1e5, 2e5\nrx_power_dbm = -20\n"
            "reference_cof_hz = 1e5\n"
            "[cc2420]\ncapture_fraction_db = -5\nma_window_us = 100\n"
            "cca_threshold_dbm = -80\ngranularity_us = 32\nrx_powers_dbm = -60, -70\n"
            "length_us = 800\n"
            "[wakeup]\nrx_power_dbm = -85\nid_width = 8\nalphabet_size = 2\n")
        expected = ws.ExperimentConfig(
            scenario="wakeup_end_to_end", rng_seed=77, n_trials=1000, output_dir=Path("o"),
            channel=ws.ChannelConfig(noise_figure_db=2.5, bandwidth_hz=10e6,
                                     temperature_k=300.0),
            receiver=ws.ReceiverConfig(
                lna_gain_db=12.0, detector_model="square_law_linear",
                log_slope_v_per_db=0.03, log_intercept_v=1.5, log_floor_dbm=-90.0,
                square_law_k=2.0, cof_hz=48.2e3, threshold_v=0.25, d_sample_us=8.0,
                video_noise_sigma_v=0.01, video_noise_tau_us=20.0),
            cw=4,
            alphabet=ws.Alphabet(symbols=(720.0, 800.0), margin_us=20.0),
            rx_powers_dbm=(-90.0, -88.0), cofs_hz=(0.0, 1e5), lengths_us=(720.0,),
            target_p10=1e-2, target_p01=2e-3,
            edge_cofs_hz=(1e5, 2e5), edge_rx_power_dbm=-20.0,
            edge_reference_cof_hz=1e5,
            cc2420=ws.Cc2420Config(capture_fraction_db=-5.0, ma_window_us=100.0,
                                   cca_threshold_dbm=-80.0, granularity_us=32.0),
            cc2420_rx_powers_dbm=(-60.0, -70.0), cc2420_length_us=800.0,
            wakeup_rx_power_dbm=-85.0, wakeup_id_width=8, wakeup_alphabet_size=2)
        assert load_config(path) == expected

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        ini = configparser.ConfigParser()
        ini.read(path)
        cfg = load_config(path)

        def floats(raw):
            return tuple(float(x) for x in raw.split(","))

        assert cfg.scenario == ini["run"]["scenario"]
        assert cfg.rng_seed == int(ini["run"]["seed"])
        for key, raw in ini["sweep"].items():
            value = getattr(cfg, key)
            assert (value if isinstance(value, tuple) else (value,)) == floats(raw)
        if ini.has_section("cc2420"):
            assert cfg.cc2420_rx_powers_dbm == floats(ini["cc2420"]["rx_powers_dbm"])

    def test_integral_spellings_of_int_keys(self, tmp_path):
        path = tmp_path / "ok.ini"
        path.write_text("[run]\ntrials = 1e5\nseed = 123456789012345678901\n"
                        "[phy]\ncw = 4.0\n")
        cfg = load_config(path)
        assert cfg.n_trials == 100_000
        assert cfg.rng_seed == 123456789012345678901
        assert cfg.cw == 4


class TestRunScenario:
    def test_missing_output_parent_errors(self, tmp_path):
        cfg = ws.ExperimentConfig(scenario="calibrate", n_trials=1000,
                                  output_dir=tmp_path / "no" / "such" / "dir")
        with pytest.raises(IOError):
            ws.run_scenario(cfg)

    def test_calibrate_scenario_writes_csv(self, tmp_path):
        cfg = ws.ExperimentConfig(scenario="calibrate", rng_seed=5,
                                  n_trials=100_000, output_dir=tmp_path / "out",
                                  cofs_hz=(0.0, 159e3))
        result = ws.run_scenario(cfg)
        text = (tmp_path / "out" / "calibrate.csv").read_text()
        assert text.startswith("cof_hz,threshold_v,p10,p10_ci_lo,p10_ci_hi\n")
        assert len(text.strip().split("\n")) == 3
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = ws.ExperimentConfig(scenario="cc2420_histogram", rng_seed=31,
                                      n_trials=200, output_dir=tmp_path / name,
                                      cc2420_rx_powers_dbm=(-61.56, -73.56))
            ws.run_scenario(cfg)
            outs.append((tmp_path / name / "cc2420_histogram.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_different_seeds_differ(self, tmp_path):
        outs = []
        for name, seed in (("a", 1), ("b", 2)):
            cfg = ws.ExperimentConfig(scenario="cc2420_histogram", rng_seed=seed,
                                      n_trials=200, output_dir=tmp_path / name,
                                      cc2420_rx_powers_dbm=(-71.56,))
            ws.run_scenario(cfg)
            outs.append((tmp_path / name / "cc2420_histogram.csv").read_bytes())
        assert outs[0] != outs[1]


class TestScenarioRunners:
    """Small-scale smoke runs of every remaining scenario."""

    def test_cof_sweep(self, tmp_path):
        cfg = ws.ExperimentConfig(scenario="cof_sweep", rng_seed=41,
                                  n_trials=3000, output_dir=tmp_path / "o",
                                  cofs_hz=(0.0, 159e3),
                                  rx_powers_dbm=(-92.0, -88.0))
        result = ws.run_scenario(cfg)
        assert (tmp_path / "o" / "cof_sweep.csv").exists()
        req = (tmp_path / "o" / "cof_required_power.csv").read_text().strip()
        assert len(req.split("\n")) == 3
        assert "gain_vs_bypass_db" in req

    def test_rx_power_sweep(self, tmp_path):
        cfg = ws.ExperimentConfig(scenario="rx_power_sweep", rng_seed=42,
                                  n_trials=300, output_dir=tmp_path / "o",
                                  lengths_us=(720.0, 800.0),
                                  rx_powers_dbm=(-90.0,))
        ws.run_scenario(cfg)
        body = (tmp_path / "o" / "frame_error.csv").read_text().strip().split("\n")
        assert body[0] == "length_us,rx_power_dbm,frame_error_rate,ci_lo,ci_hi"
        assert len(body) == 3

    def test_edge_delay_table(self, tmp_path):
        cfg = ws.ExperimentConfig(scenario="edge_delay_table", rng_seed=43,
                                  n_trials=3, output_dir=tmp_path / "o",
                                  edge_cofs_hz=(159e3, 1590e3))
        ws.run_scenario(cfg)
        body = (tmp_path / "o" / "edge_delay.csv").read_text().strip().split("\n")
        assert len(body) == 3

    def test_edge_delay_table_at_10_mhz(self, tmp_path):
        # the trace, its noise and the crossing resolution all follow bandwidth_hz
        path = tmp_path / "narrow.ini"
        path.write_text("[channel]\nbandwidth_hz = 10e6\n[edge_delay]\ncofs_hz = 159e3\n")
        cfg = load_config(path, scenario="edge_delay_table", rng_seed=46, n_trials=2,
                          output_dir=tmp_path / "o")
        ws.run_scenario(cfg)
        body = (tmp_path / "o" / "edge_delay.csv").read_text().strip().split("\n")
        assert len(body) == 2

    def test_wakeup_end_to_end_at_10_mhz(self, tmp_path):
        path = tmp_path / "narrow.ini"
        path.write_text("[channel]\nbandwidth_hz = 10e6\n[wakeup]\nrx_power_dbm = -80\n")
        cfg = load_config(path, scenario="wakeup_end_to_end", rng_seed=47, n_trials=5,
                          output_dir=tmp_path / "o")
        result = ws.run_scenario(cfg)
        assert "success_rate=1.0000" in result.summary

    def test_wakeup_end_to_end(self, tmp_path):
        cfg = ws.ExperimentConfig(scenario="wakeup_end_to_end", rng_seed=44,
                                  n_trials=20, output_dir=tmp_path / "o",
                                  wakeup_rx_power_dbm=-80.0)
        result = ws.run_scenario(cfg)
        assert "success_rate=1.0000" in result.summary
        body = (tmp_path / "o" / "wakeup.csv").read_text().strip().split("\n")
        assert len(body) == 21

    def test_wakeup_noise_and_receiver_draw_from_separate_seeds(
            self, tmp_path, monkeypatch):
        # add_noise draws the RF noise, receive the video noise: each trial
        # and each of the two gets a stream of its own
        from wakesim import scenarios
        seen = []

        def noise(*args, rng_seed=None, **kwargs):
            seen.append(rng_seed)
            return ws.add_noise(*args, rng_seed=rng_seed, **kwargs)

        def receive(*args, rng_seed=0, **kwargs):
            seen.append(rng_seed)
            return ws.receive(*args, rng_seed=rng_seed, **kwargs)

        monkeypatch.setattr(scenarios, "add_noise", noise)
        monkeypatch.setattr(scenarios, "receive", receive)
        monkeypatch.setattr(scenarios, "_calibrated",
                            lambda cfg, cof, seed: cfg.receiver.with_threshold(0.3))
        monkeypatch.setattr(scenarios, "frame_error_trials",
                            lambda lengths, *args, **kwargs: {lengths[0]: (0, 1000)})
        cfg = ws.ExperimentConfig(scenario="wakeup_end_to_end", rng_seed=45,
                                  n_trials=3, output_dir=tmp_path / "o",
                                  wakeup_rx_power_dbm=-80.0)
        ws.run_scenario(cfg)
        assert len(seen) == 6
        draws = {tuple(np.random.default_rng(s).standard_normal(4)) for s in seen}
        assert len(draws) == 6


# the six scenarios at small sizes; COF 0 keeps the 1e6-decision default
# calibrations of cof_sweep, rx_power_sweep and wakeup_end_to_end fast
AUDITED_SCENARIOS = {
    "calibrate": dict(n_trials=2000, cofs_hz=(0.0, 159e3)),
    "cof_sweep": dict(n_trials=3000, cofs_hz=(0.0,), rx_powers_dbm=(-90.0,),
                      receiver=ws.ReceiverConfig(cof_hz=0.0)),
    "rx_power_sweep": dict(n_trials=150, lengths_us=(720.0, 800.0),
                           rx_powers_dbm=(-90.0, -88.0),
                           receiver=ws.ReceiverConfig(cof_hz=0.0)),
    "edge_delay_table": dict(n_trials=2, edge_cofs_hz=(159e3,),
                             edge_reference_cof_hz=0.0),
    "cc2420_histogram": dict(n_trials=30, cc2420_rx_powers_dbm=(-71.56,)),
    "wakeup_end_to_end": dict(n_trials=3, wakeup_rx_power_dbm=-80.0,
                              receiver=ws.ReceiverConfig(cof_hz=0.0)),
}


class TestSeedAudit:
    """No seed reaches two generators, except the schedule seed s_sched
    that frame_error_trials gives every frame length of a trial (common
    random numbers): two generators on one seed draw the same numbers."""

    @pytest.mark.parametrize("scenario", list(AUDITED_SCENARIOS))
    def test_one_generator_per_seed(self, tmp_path, monkeypatch, scenario):
        real = np.random.default_rng
        callers = defaultdict(list)

        def audited(seed=None):
            assert isinstance(seed, (int, np.random.SeedSequence)), seed
            ss = seed_sequence(seed)
            frame = sys._getframe(1)
            stack = []
            while frame is not None and len(stack) < 4:
                stack.append(frame.f_code.co_name)
                frame = frame.f_back
            callers[(ss.entropy, ss.spawn_key, ss.pool_size)].append(tuple(stack))
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", audited)
        ws.run_scenario(ws.ExperimentConfig(scenario=scenario, rng_seed=1111,
                                            output_dir=tmp_path / "o",
                                            **AUDITED_SCENARIOS[scenario]))
        assert callers
        shared = {key: stacks for key, stacks in callers.items() if len(stacks) > 1}
        schedule = {key: stacks for key, stacks in shared.items()
                    if all(st[0] == "build_tx_schedule"
                           and "frame_error_trials" in st for st in stacks)}
        assert shared == schedule
        # two frame lengths per trial share the schedule seed
        assert bool(schedule) == (scenario == "rx_power_sweep")


class TestCli:
    def test_cli_success_path(self, tmp_path, capsys):
        rc = main(["cc2420_histogram", "--seed", "4", "--trials", "100",
                   "--out", str(tmp_path / "res")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cc2420_histogram" in out
        assert (tmp_path / "res" / "cc2420_histogram.csv").exists()

    def test_cli_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\ntrials = -3\n")
        rc = main(["calibrate", "--config", str(bad)])
        assert rc == 2
        assert "trials" in capsys.readouterr().err

    def test_cli_duplicate_lengths_exit_code(self, tmp_path, capsys):
        # unchecked, the sweep counted every frame twice: rates above 1
        bad = tmp_path / "bad.ini"
        bad.write_text("[sweep]\nlengths_us = 800, 800\n")
        rc = main(["rx_power_sweep", "--config", str(bad), "--trials", "20",
                   "--out", str(tmp_path / "res")])
        assert rc == 2
        assert "lengths_us" in capsys.readouterr().err
        assert not (tmp_path / "res" / "frame_error.csv").exists()

    @pytest.mark.parametrize("model", ["dsss_ripple", "ofdm_rayleigh",
                                       "dsss_constant"])
    def test_cli_refuses_waveform_model(self, tmp_path, capsys, model):
        old = tmp_path / "old.ini"
        old.write_text(f"[phy]\nwaveform_model = {model}\n")
        rc = main(["wakeup_end_to_end", "--config", str(old)])
        assert rc == 2
        assert "waveform_model" in capsys.readouterr().err

    def test_cli_io_error_exit_code(self, tmp_path, capsys):
        rc = main(["cc2420_histogram", "--trials", "10",
                   "--out", str(tmp_path / "no" / "dir")])
        assert rc == 1

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "wakesim.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "rx_power_sweep" in proc.stdout
