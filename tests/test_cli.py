"""Command-line harness: tasks, exit codes, report determinism."""
import csv
import json

import numpy as np
import pytest

from seqpt.cli import main


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out


def test_validate_identity(tmp_path):
    code, out = run_cli(["validate", "--channel", "identity"], tmp_path)
    assert code == 0
    report = json.loads((out / "validate_report.json").read_text())
    assert report["passed"]


def test_validate_rejects_bad_kraus(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({
        "n": 1,
        "channel": {"kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]},
    }))
    code = main(["validate", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 3


def test_unknown_channel_is_config_error(tmp_path):
    code, _ = run_cli(["full", "--channel", "warp_drive"], tmp_path)
    assert code == 2


def test_missing_target_is_config_error(tmp_path):
    code, _ = run_cli(["fidelity", "--channel", "controlled_uc"], tmp_path)
    assert code == 2


def test_element_task(tmp_path):
    code, out = run_cli(
        ["element", "--channel", "controlled_uc", "-a", "IZ", "-b", "ZZ", "--seed", "5"],
        tmp_path,
    )
    assert code == 0
    report = json.loads((out / "element_report.json").read_text())
    assert report["element"] == ["IZ", "ZZ"]
    assert report["value_re"] == pytest.approx(-0.25, abs=1e-9)
    assert report["value_im"] == pytest.approx(0.0, abs=1e-9)
    assert report["m"] == 20 and report["k"] == 20
    assert report["settings_naive"] == 80  # two real parameters, 2K each
    assert len(report["trace"]) == 20


def test_full_task_chi_report(tmp_path):
    code, out = run_cli(["full", "--channel", "controlled_uc"], tmp_path)
    assert code == 0
    report = json.loads((out / "full_report.json").read_text())
    chi = np.array(report["chi_re"]) + 1j * np.array(report["chi_im"])
    assert np.max(np.abs(chi - chi.conj().T)) == 0.0
    assert report["dedup"]["num_probabilities"] == 560
    nonzero = np.abs(chi) > 1e-9
    assert nonzero.sum() == 16
    with (out / "chi_matrix.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 256
    assert {row["a"] for row in rows} == set(report["labels"])


def test_fidelity_task(tmp_path):
    code, out = run_cli(
        ["fidelity", "--channel", "noisy_uc", "--param", "p=0.5", "--target", "controlled_uc"],
        tmp_path,
    )
    assert code == 0
    report = json.loads((out / "fidelity_report.json").read_text())
    assert report["value"] == pytest.approx(0.6, abs=1e-9)
    assert report["elements_estimated"] == 16
    with (out / "fidelity_trace.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert [row["m"] for row in rows] == [str(t) for t in range(1, 21)]


def test_convergence_task_traces_end_exact(tmp_path):
    code, out = run_cli(
        [
            "convergence", "--channel", "controlled_uc", "--target", "controlled_uc",
            "--orders", "10", "--seed", "100",
        ],
        tmp_path,
    )
    assert code == 0
    summary = json.loads((out / "convergence_report.json").read_text())
    assert summary["exact_value"] == pytest.approx(1.0, abs=1e-9)
    assert len(summary["seeds"]) == 10
    for seed in summary["seeds"]:
        with (out / f"convergence_seed{seed}.csv").open() as handle:
            rows = list(csv.reader(handle))[1:]
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-9)
    assert (out / "envelope.csv").exists()


def test_design_info(tmp_path):
    code, out = run_cli(["design-info", "--n", "2"], tmp_path)
    assert code == 0
    report = json.loads((out / "design_info.json").read_text())
    assert report["num_states"] == 20
    assert len(report["bases"]) == 5
    assert report["bases"][0]["circuit"] == []
    assert report["bases"][3]["generators"] == ["XY", "YZ"]


def test_reports_are_byte_identical_across_runs(tmp_path):
    args = [
        "fidelity", "--channel", "noisy_uc", "--param", "p=0.3",
        "--target", "controlled_uc", "--m", "12", "--shots", "400", "--seed", "7",
    ]
    _, out1 = run_cli(args, tmp_path, "first")
    _, out2 = run_cli(args, tmp_path, "second")
    for name in ("fidelity_report.json", "fidelity_trace.csv"):
        text1 = (out1 / name).read_bytes()
        text2 = (out2 / name).read_bytes()
        assert text1 == text2


def test_emitted_probabilities_in_unit_interval(tmp_path):
    code, out = run_cli(
        ["full", "--channel", "noisy_uc", "--param", "p=0.3", "--shots", "50", "--seed", "3"],
        tmp_path,
    )
    assert code == 0
    report = json.loads((out / "full_report.json").read_text())
    chi = np.array(report["chi_re"])
    assert np.all(np.isfinite(chi))
    for element in report["elements"]:
        for _, re, im in element["trace"]:
            assert np.isfinite(re) and np.isfinite(im)


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n": 2,
        "channel": {"name": "controlled_uc"},
        "m": 20,
        "seed": 11,
        "element": ["IZ", "ZZ"],
    }))
    out = tmp_path / "out"
    code = main(["element", "--config", str(config), "--seed", "12", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "element_report.json").read_text())
    assert report["seed"] == 12  # flag wins over config
    assert report["config"]["m"] == 20


def test_seed_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SEQPT_SEED", "31")
    code, out = run_cli(["element", "--channel", "controlled_uc", "-a", "IZ", "-b", "ZZ"], tmp_path)
    assert code == 0
    report = json.loads((out / "element_report.json").read_text())
    assert report["seed"] == 31


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus": 1}))
    code = main(["validate", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize(
    "document, message",
    [
        ([1, 2], "config document must be a JSON object"),
        ({"seed": "x"}, "config key 'seed' must be an integer"),
        ({"m": "5"}, "config key 'm' must be an integer or null"),
        ({"shots": True}, "config key 'shots' must be an integer or 'exact'"),
        ({"channel": "identity"}, "config key 'channel' must be an object"),
        ({"channel": {"kraus": [[1, 0]]}}, "channel 'kraus' must be a list of square matrices"),
        (
            {"channel": {"kraus": [[[[1, 0], [0]], [[0, 0], [1, 0]]]]}},
            "channel 'kraus' must be a list of square matrices",
        ),
        ({"channel": {"kraus": "I"}}, "channel 'kraus' must be a list of square matrices"),
    ],
)
def test_malformed_config_documents_rejected(tmp_path, capsys, document, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    code = main(["validate", "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: " + message)
    assert err.count("\n") == 1


def test_missing_channel_parameter_is_named(tmp_path, capsys):
    code, _ = run_cli(["fidelity", "--target", "noisy_uc"], tmp_path)
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: channel 'noisy_uc' requires parameter 'p'\n"
    )


@pytest.mark.parametrize(
    "channel",
    [
        {"kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
        {"name": "depolarizing", "params": {"p": 0.3}},
    ],
)
def test_channel_config_shapes_accepted(tmp_path, channel):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 1, "channel": channel}))
    code = main(["validate", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 0


@pytest.mark.parametrize(
    "args, document, message",
    [
        (
            ["full"],
            {
                "n": 1,
                "channel": {"kraus": [[[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
            },
            "Kraus operators must have finite entries",
        ),
        (
            ["full", "--channel", "polarization_unitary", "--param", "theta=inf"],
            None,
            "channel 'polarization_unitary' parameter 'theta' must be finite, got inf",
        ),
        (
            ["full", "--channel", "polarization_unitary", "--param", "theta=nan"],
            None,
            "channel 'polarization_unitary' parameter 'theta' must be finite, got nan",
        ),
        (
            ["fidelity", "--channel", "noisy_uc", "--param", "p=NaN", "--target", "controlled_uc"],
            None,
            "channel 'noisy_uc' parameter 'p' must be finite, got nan",
        ),
    ],
)
def test_non_finite_input_rejected(tmp_path, capsys, args, document, message):
    if document is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))  # json writes NaN, and reads it back
        args = args + ["--config", str(config)]
    code, out = run_cli(args, tmp_path)
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert list(out.iterdir()) == []  # no report written


def test_qubit_count_checked_before_channel_is_built(tmp_path, capsys, monkeypatch):
    def refuse(name, params=None):
        raise AssertionError("builtin_channel called before the qubit-count check")

    monkeypatch.setattr("seqpt.cli.builtin_channel", refuse)
    code, _ = run_cli(["validate", "--channel", "identity", "--param", "n=40"], tmp_path)
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: channel 'identity' acts on 40 qubits, config says 2\n"
    )
