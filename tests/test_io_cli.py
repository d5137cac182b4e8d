import numpy as np
import pytest

from tadualcv import io_formats
from tadualcv.cli import main
from tadualcv.config import Config, ConfigError
from tadualcv.data_model import CellIndex, DataError, MaskSet
from tadualcv.evaluation import EvalReport
from tadualcv.synthetic import SynthConfig, generate

from conftest import NAN, make_dataset


def test_long_csv_round_trip(tmp_path):
    ds = make_dataset(
        [
            ("a", [0, 30], [[0.123456789, NAN], [0.5, 0.25]]),
            ("b", [10], [[0.75, 0.875]]),
        ],
        names=["HR", "Temp"],
    )
    path = tmp_path / "data.csv"
    io_formats.emit_long_csv(ds, path)
    back = io_formats.ingest_long_csv(path)
    assert [f.name for f in back.features] == ["HR", "Temp"]
    for va, vb in zip(ds.visits, back.visits):
        assert va.visit_id == vb.visit_id
        np.testing.assert_array_equal(va.times, vb.times)
        np.testing.assert_allclose(vb.values, va.values, atol=1e-9, equal_nan=True)


def test_ingest_builds_events_per_time(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text(
        "visit_id,time_min,feature,value\n"
        "v1,0,HR,80\n"
        "v1,30,HR,82\n"
        "v1,30,Temp,37.5\n"
    )
    ds = io_formats.ingest_long_csv(path)
    assert ds.visits[0].n_events == 2
    assert np.isnan(ds.visits[0].values[0, 1])


def test_ingest_duplicate_record_names_line(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "visit_id,time_min,feature,value\n"
        "v1,30,HR,80\n"
        "v1,30,HR,82\n"
    )
    with pytest.raises(DataError, match="dup.csv:3"):
        io_formats.ingest_long_csv(path)


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("visit_id,time_min,feature,value\n")
    with pytest.raises(DataError, match="no records"):
        io_formats.ingest_long_csv(path)


def test_ingest_non_numeric_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("visit_id,time_min,feature,value\nv1,0,HR,abc\n")
    with pytest.raises(DataError, match="bad.csv:2"):
        io_formats.ingest_long_csv(path)


def test_wide_round_trip(tmp_path):
    ds = make_dataset(
        [("a", [0, 30], [[0.1, 0.2], [0.3, 0.4]]), ("b", [5], [[0.5, 0.6]])]
    )
    path = tmp_path / "wide.csv"
    io_formats.emit_wide_csv(ds, path)
    header = path.read_text().splitlines()[0]
    assert header == "visit_id,time_min,f_0,f_1"
    back = io_formats.read_wide_csv(path, features=list(ds.features))
    for va, vb in zip(ds.visits, back.visits):
        np.testing.assert_allclose(vb.values, va.values, atol=1e-9)


def test_wide_requires_complete_data(tmp_path):
    ds = make_dataset([("a", [0], [[1.0, NAN]])])
    with pytest.raises(DataError, match="missing cells"):
        io_formats.emit_wide_csv(ds, tmp_path / "x.csv")


def test_mi_csv_all_zero_when_complete(tmp_path):
    ds = make_dataset([("a", [0, 30], [[1.0], [2.0]])])
    path = tmp_path / "mi.csv"
    io_formats.emit_mi_csv(ds, path)
    rows = path.read_text().splitlines()[1:]
    assert all(row.endswith(",0") for row in rows)


def test_mi_csv_marks_missing(tmp_path):
    ds = make_dataset([("a", [0, 30], [[1.0, NAN], [NAN, 2.0]])])
    path = tmp_path / "mi.csv"
    io_formats.emit_mi_csv(ds, path)
    rows = [r.split(",")[2:] for r in path.read_text().splitlines()[1:]]
    assert rows == [["0", "1"], ["1", "0"]]


def test_std_csv_zero_without_dispersion(tmp_path):
    ds = make_dataset([("a", [0, 30], [[1.0, 2.0], [3.0, 4.0]])])
    path = tmp_path / "std.csv"
    io_formats.emit_std_csv(ds, np.zeros((2, 2)), path)
    rows = [r.split(",")[2:] for r in path.read_text().splitlines()[1:]]
    assert rows == [["0", "0"], ["0", "0"]]


def test_mask_csv_round_trip(tmp_path):
    ds = make_dataset([("a", [0, 30], [[1.5, 2.5], [3.5, 4.5]])], names=["HR", "Temp"])
    mask = MaskSet([(CellIndex(0, 1, 0), 3.5)], strategy="random_rate", rate=0.5, seed=1)
    path = tmp_path / "mask.csv"
    io_formats.emit_mask_csv(ds, mask, path)
    back = io_formats.read_mask_csv(path, ds)
    assert back.entries[0].cell == CellIndex(0, 1, 0)
    assert back.entries[0].truth == 3.5


def test_mask_csv_resolves_times_and_rejects_missing_event(tmp_path):
    ds = make_dataset(
        [("a", [0, 30, 90], [[1.0], [2.0], [3.0]]), ("b", [5, 30], [[4.0], [5.0]])]
    )
    path = tmp_path / "mask.csv"
    path.write_text("visit_id,time,feature,truth\nb,30,f0,5\na,90,f0,3\na,0,f0,1\n")
    back = io_formats.read_mask_csv(path, ds)
    assert [e.cell for e in back.entries] == [
        CellIndex(1, 1, 0), CellIndex(0, 2, 0), CellIndex(0, 0, 0)
    ]
    path.write_text("visit_id,time,feature,truth\na,30,f0,2\nb,90,f0,3\n")
    with pytest.raises(DataError) as err:
        io_formats.read_mask_csv(path, ds)
    assert str(err.value) == f"{path}:3: no event at time 90 in 'b'"


def test_config_file_parse_and_override(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "w1 = 0.7\n"
        "w2 = 0.3\n"
        "chains = 3\n"
        "iterations = 4\n"
        "ctp_truncate = keep_first\n"
        "ecf_window_vital = 240\n"
        "seed = 42\n"
    )
    config = io_formats.load_config(path)
    assert config.w1 == 0.7 and config.chains == 3
    assert config.ctp_truncate == "keep_first"
    assert config.ecf_windows["vital"] == 240
    assert config.ecf_windows["lab"] == 1440  # untouched default


def test_config_file_rejects_unknown_key(tmp_path):
    # the GP and normalization keys are no longer settings
    removed = ["gp_nugget", "gp_nugget_max", "gp_log10_alpha_lo", "gp_log10_alpha_hi",
               "normalize"]
    for key in ["bogus", *removed]:
        with pytest.raises(ConfigError, match="unknown config key"):
            io_formats.parse_config_text(f"{key} = 1\n")
    path = tmp_path / "run.cfg"
    path.write_text("normalize = 1\n")
    code = main(["impute", "--data", str(_write_synth(tmp_path)), "--method", "meanfill",
                 "--config", str(path), "--out", str(tmp_path / "o.csv")])
    assert code == 1


def test_config_file_rejects_bad_weights():
    with pytest.raises(ConfigError):
        io_formats.parse_config_text("w1 = 0.9\n")


def test_report_render_parse_round_trip():
    report = EvalReport(
        variant="mean_fill",
        strategy="random_rate",
        rate=0.5,
        seed=3,
        per_feature_nrmse={0: 0.25, 1: 0.125},
        per_feature_masked={0: 10, 1: 4},
        macro_nrmse=0.1875,
        config_echo={"chains": "5", "w1": "0.5"},
    )
    text = io_formats.render_report(report, {0: "HR", 1: "Temp"})
    parsed = io_formats.parse_report(text)
    assert parsed["header"]["variant"] == "mean_fill"
    assert parsed["header"]["macro_nrmse"] == "0.1875"
    assert parsed["config"]["chains"] == "5"
    assert parsed["per_feature"][0] == {
        "feature": "0", "name": "HR", "masked_cells": "10", "nrmse": "0.25",
    }


def _write_synth(tmp_path, **kwargs):
    data = tmp_path / "data.csv"
    config = SynthConfig(
        n_visits=kwargs.get("n_visits", 8),
        n_features=kwargs.get("n_features", 3),
        events_per_visit=(4, 7),
        noise_scale=0.05,
        native_missing_rate=0.1,
        seed=kwargs.get("seed", 0),
    )
    ds, _ = generate(config)
    io_formats.emit_long_csv(ds, data)
    return data


def test_cli_pipeline_smoke(tmp_path, capsys):
    data = _write_synth(tmp_path)
    masked = tmp_path / "masked.csv"
    mask_csv = tmp_path / "mask.csv"
    imputed = tmp_path / "imputed.csv"
    report = tmp_path / "report.txt"

    assert main(["mask", "--data", str(data), "--rate", "0.4", "--seed", "7",
                 "--out", str(masked), "--mask-out", str(mask_csv)]) == 0
    assert main(["impute", "--data", str(masked), "--method", "meanfill",
                 "--out", str(imputed)]) == 0
    assert (tmp_path / "imputed.std.csv").exists()
    assert (tmp_path / "imputed.mi.csv").exists()
    assert main(["evaluate", "--truth-mask", str(mask_csv), "--imputed", str(imputed),
                 "--masked", str(masked), "--method", "meanfill",
                 "--out", str(report)]) == 0
    parsed = io_formats.parse_report(report.read_text())
    assert float(parsed["header"]["macro_nrmse"]) >= 0.0


def test_cli_evaluate_report_config_block_is_empty(tmp_path):
    # evaluate runs no imputation, so it has no configuration to echo
    data = _write_synth(tmp_path)
    masked, mask_csv = tmp_path / "masked.csv", tmp_path / "mask.csv"
    imputed, report = tmp_path / "imputed.csv", tmp_path / "report.txt"
    assert main(["mask", "--data", str(data), "--rate", "0.4", "--seed", "7",
                 "--out", str(masked), "--mask-out", str(mask_csv)]) == 0
    assert main(["impute", "--data", str(masked), "--method", "meanfill",
                 "--out", str(imputed)]) == 0
    assert main(["evaluate", "--truth-mask", str(mask_csv), "--imputed", str(imputed),
                 "--masked", str(masked), "--method", "meanfill",
                 "--out", str(report)]) == 0
    text = report.read_text()
    assert "\n[config]\n[per_feature]\n" in text
    parsed = io_formats.parse_report(text)
    assert parsed["config"] == {}
    assert parsed["header"]["strategy"] == "external"
    assert parsed["per_feature"] and all(row["nrmse"] for row in parsed["per_feature"])
    # the parsed report renders back to the same text
    rows = {int(r["feature"]): r for r in parsed["per_feature"]}
    rebuilt = EvalReport(
        variant=parsed["header"]["variant"], strategy="external", rate=None, seed=0,
        per_feature_nrmse={f: float(r["nrmse"]) for f, r in rows.items()},
        per_feature_masked={f: int(r["masked_cells"]) for f, r in rows.items()},
        macro_nrmse=float(parsed["header"]["macro_nrmse"]), config_echo=parsed["config"],
    )
    names = {f: r["name"] for f, r in rows.items()}
    assert io_formats.render_report(rebuilt, names) == text


def test_cli_full_method_smoke(tmp_path):
    data = _write_synth(tmp_path)
    masked = tmp_path / "masked.csv"
    mask_csv = tmp_path / "mask.csv"
    imputed = tmp_path / "imputed.csv"
    assert main(["mask", "--data", str(data), "--rate", "0.3",
                 "--out", str(masked), "--mask-out", str(mask_csv)]) == 0
    assert main(["impute", "--data", str(masked), "--method", "tadualcv",
                 "--chains", "2", "--iterations", "2", "--out", str(imputed)]) == 0
    back = io_formats.read_wide_csv(imputed)
    assert not any(np.isnan(v.values).any() for v in back.visits)


def test_cli_unknown_method_is_usage_error(tmp_path):
    data = _write_synth(tmp_path)
    code = main(["impute", "--data", str(data), "--method", "nosuch", "--out", "x.csv"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [[], ["impute", "--method", "meanfill", "--out", "x.csv"]],
    ids=["no_subcommand", "missing_required_flag"],
)
def test_cli_usage_error_exits_1(argv, capsys):
    assert main(argv) == 1
    assert "tadualcv" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["impute", "--help"]) == 0
    assert "usage: tadualcv" in capsys.readouterr().out


def test_cli_manifest_feature_without_rows_is_data_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("visit_id,time_min,feature,value\na,0,x,1.0\na,10,x,2.0\nb,0,x,3.0\n")
    manifest = tmp_path / "features.csv"
    manifest.write_text("name,kind\nx,vital\ny,lab\n")
    code = main(["impute", "--data", str(data), "--features", str(manifest),
                 "--method", "mice", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "feature 'y' has no observations" in capsys.readouterr().err


def test_cli_missing_file_is_data_error(tmp_path):
    code = main(["impute", "--data", str(tmp_path / "absent.csv"),
                 "--method", "meanfill", "--out", str(tmp_path / "o.csv")])
    assert code == 2


def test_cli_bench_rate_grid(tmp_path):
    data = _write_synth(tmp_path, n_visits=6)
    out_dir = tmp_path / "reports"
    code = main(["bench", "--data", str(data), "--rates", "20,50,60,70,80,90",
                 "--methods", "meanfill", "--seeds", "0",
                 "--out-dir", str(out_dir)])
    assert code == 0
    reports = sorted(out_dir.glob("report_*.txt"))
    assert len(reports) == 6
    for path in reports:
        parsed = io_formats.parse_report(path.read_text())
        assert parsed["header"]["variant"] == "mean_fill"


def test_cli_synth_writes_ingestible_csv(tmp_path):
    out = tmp_path / "synth.csv"
    assert main(["synth", "--out", str(out), "--visits", "5", "--features", "2",
                 "--seed", "3"]) == 0
    ds = io_formats.ingest_long_csv(out)
    assert ds.n_visits == 5 and ds.n_features == 2
