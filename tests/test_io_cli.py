import csv
import dataclasses
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tadualcv import io_formats
from tadualcv.cli import main
from tadualcv.config import Config, ConfigError
from tadualcv.data_model import (
    DataError,
    Dataset,
    FeatureSpec,
    MaskSet,
    Visit,
    apply_mask,
    restore_mask,
    validate,
)
from tadualcv.evaluation import (
    EvalReport,
    mask_one_per_feature_visit,
    mask_random,
    nrmse,
)
from tadualcv.methods import VARIANTS, impute
from tadualcv.synthetic import SynthConfig, generate

from conftest import NAN, assert_same_bits, make_dataset


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


def test_wide_rows_sharing_a_time_go_in_value_order(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text(
        "visit_id,time_min,f_0,f_1\n"
        "b,5,1,1\na,5,3,0\na,0,9,9\na,5,2,7\na,5,2,-1\nb,0,4,4\n"
    )
    back = io_formats.read_wide_csv(path)
    assert back.visit_ids == ("b", "a") and back.starts.tolist() == [0, 2, 6]
    assert back.times.tolist() == [0, 5, 0, 5, 5, 5]
    assert back.values.tolist() == [[4, 4], [1, 1], [9, 9], [2, -1], [2, 7], [3, 0]]
    assert_same_outcome(back, oracle_read_wide_csv(path))


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


def row_by_row_wide(path, dataset, cells):
    """The wide writer as a csv.writer row per event and one fmt call per cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["visit_id", "time_min"] + [f"f_{k}" for k in range(dataset.n_features)])
        for row, values in enumerate(cells):
            vid = dataset.visit_ids[dataset.visit_of_row[row]]
            writer.writerow([vid, int(dataset.times[row])] + [io_formats.fmt(v) for v in values])


def row_by_row_cells(path, dataset, rows, cols, values, value_column):
    """The long and mask writers as a csv.writer row per cell and one fmt call per value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["visit_id", "time_min", "feature", value_column])
        for row, col, value in zip(rows, cols, values):
            vid = dataset.visit_ids[dataset.visit_of_row[row]]
            name = dataset.features[col].name
            writer.writerow([vid, int(dataset.times[row]), name, io_formats.fmt(value)])


def spans_blocks(path, width, n_blocks):
    """Whether ``path`` holds more than ``n_blocks`` full write blocks of ``width``-field lines."""
    per_block = io_formats._BLOCK_FIELDS // width
    lines = len(path.read_bytes().split(b"\r\n")) - 2  # header, and the empty tail
    return lines > n_blocks * per_block and lines % per_block != 0


def test_wide_writers_match_the_row_by_row_writer(tmp_path):
    # 40 events fit in one write block
    assert_writers_match_the_row_by_row_writer(tmp_path, 40)


def test_writers_match_the_row_by_row_writer_across_blocks(tmp_path):
    # every file holds at least two full write blocks and a partial one
    assert_writers_match_the_row_by_row_writer(tmp_path, 12_000)


def assert_writers_match_the_row_by_row_writer(tmp_path, n):
    ids = ["a,b", 'q"x', "new\nline", "cr\rx", " pad ", "", "plain"]
    rng = np.random.default_rng(3)
    starts = np.concatenate(([0], np.sort(rng.choice(np.arange(1, n), len(ids) - 1, False)), [n]))
    values = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-15, 15, size=(n, 3))
    values[:4, 0] = [-0.0, 0.0, 1e300, 5e-324]
    values[4, 1:] = [np.inf, -np.inf]
    features = [FeatureSpec(k, name) for k, name in enumerate(["f,1", 'g"2', "n2"])]
    ds = Dataset.from_stacked(features, ids, np.arange(n) * 7, values, starts)
    stds = np.abs(values)
    stds[5, 2] = NAN

    io_formats.emit_wide_csv(ds, tmp_path / "wide.csv")
    row_by_row_wide(tmp_path / "wide_oracle.csv", ds, values)
    io_formats.emit_std_csv(ds, stds, tmp_path / "std.csv")
    row_by_row_wide(tmp_path / "std_oracle.csv", ds, stds)
    for name in ("std", "wide"):
        written = (tmp_path / f"{name}.csv").read_bytes()
        assert written == (tmp_path / f"{name}_oracle.csv").read_bytes()
        assert spans_blocks(tmp_path / f"{name}.csv", 5, 2) == (n > 40)
    # the cases the test is about reached the wide file
    assert b'\r\n"a,b",0,-0,' in written and b'\n"q""x",' in written
    back = io_formats.read_wide_csv(tmp_path / "wide.csv", features)
    assert back.visit_ids == ds.visit_ids

    # the missing-indicator, long and mask writers, on the same ids and feature names
    holes = values.copy()
    holes[rng.random(holes.shape) < 0.3] = NAN
    sparse = ds.with_values(holes)
    io_formats.emit_mi_csv(sparse, tmp_path / "mi.csv")
    row_by_row_wide(tmp_path / "mi_oracle.csv", sparse, np.isnan(holes))
    assert (tmp_path / "mi.csv").read_bytes() == (tmp_path / "mi_oracle.csv").read_bytes()
    assert spans_blocks(tmp_path / "mi.csv", 5, 2) == (n > 40)
    mask = mask_random(sparse, 0.5, seed=0)
    io_formats.emit_long_csv(sparse, tmp_path / "long.csv")
    rows, cols = np.nonzero(~np.isnan(holes))
    row_by_row_cells(tmp_path / "long_oracle.csv", sparse, rows, cols, holes[rows, cols], "value")
    io_formats.emit_mask_csv(sparse, mask, tmp_path / "mask.csv")
    rows = sparse.starts[mask.visit] + mask.event
    row_by_row_cells(tmp_path / "mask_oracle.csv", sparse, rows, mask.feature, mask.truth, "truth")
    for name in ("long", "mask"):
        written = (tmp_path / f"{name}.csv").read_bytes()
        assert written == (tmp_path / f"{name}_oracle.csv").read_bytes()
        assert spans_blocks(tmp_path / f"{name}.csv", 4, 2) == (n > 40)
        assert b',"f,1",' in written and b',"g""2",' in written and b'\n"q""x",' in written


def test_mask_csv_round_trip(tmp_path):
    ds = make_dataset([("a", [0, 30], [[1.5, 2.5], [3.5, 4.5]])], names=["HR", "Temp"])
    mask = MaskSet([0], [1], [0], [3.5], strategy="random_rate", rate=0.5, seed=1)
    path = tmp_path / "mask.csv"
    io_formats.emit_mask_csv(ds, mask, path)
    back = io_formats.read_mask_csv(path, ds)
    assert back.cells().tolist() == [[0, 1, 0]]
    assert_same_bits(back.truth, mask.truth)
    # the file does not record how the mask was drawn
    assert (back.strategy, back.rate, back.seed) == ("external", None, 0)


def test_mask_csv_resolves_times_and_rejects_missing_event(tmp_path):
    ds = make_dataset(
        [("a", [0, 30, 90], [[1.0], [2.0], [3.0]]), ("b", [5, 30], [[4.0], [5.0]])]
    )
    path = tmp_path / "mask.csv"
    path.write_text("visit_id,time,feature,truth\nb,30,f0,5\na,90,f0,3\na,0,f0,1\n")
    back = io_formats.read_mask_csv(path, ds)
    assert back.cells().tolist() == [[1, 1, 0], [0, 2, 0], [0, 0, 0]]
    assert_same_bits(back.truth, [5.0, 3.0, 1.0])
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
    assert config.ecf_window_vital == 240
    assert config.ecf_window_lab == 1440  # untouched default


def test_config_file_rejects_unknown_key(tmp_path):
    # the GP and normalization keys are no longer settings
    removed = ["gp_nugget", "gp_nugget_max", "gp_log10_alpha_lo", "gp_log10_alpha_hi",
               "normalize"]
    # a key is a Config field: a window for a kind no feature has is not one,
    # and windows are spelled ecf_window_<kind>, never ecf_windows
    for key in ["bogus", "ecf_window_vitl", "ecf_windows", *removed]:
        with pytest.raises(ConfigError, match="unknown config key"):
            io_formats.parse_config_text(f"{key} = 1\n")
    with pytest.raises(TypeError):
        Config(ecf_window_vitl=60)
    path = tmp_path / "run.cfg"
    path.write_text("normalize = 1\n")
    code = main(["impute", "--data", str(_write_synth(tmp_path)), "--method", "meanfill",
                 "--config", str(path), "--out", str(tmp_path / "o.csv")])
    assert code == 1


@pytest.mark.parametrize(
    "text, key, value",
    [("chains = five\n", "chains", "five"), ("w1 = abc\n", "w1", "abc"),
     ("ecf_window_lab = x\n", "ecf_window_lab", "x")],
)
def test_config_file_value_error_names_its_line(text, key, value):
    with pytest.raises(ConfigError, match=rf"^line 1: invalid value '{value}' for '{key}'$"):
        io_formats.parse_config_text(text)


def test_cli_config_value_error_names_its_line(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 2\nchains = five\n")
    out = tmp_path / "o.csv"
    code = main(["impute", "--data", str(_write_synth(tmp_path)), "--method", "meanfill",
                 "--config", str(path), "--out", str(out)])
    assert code == 1 and not out.exists()
    assert "line 2: invalid value 'five' for 'chains'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("seed = 1\nchains = 0\n", "line 2: chains must be >= 1"),
        ("ctp_truncate = sideways\n",
         "line 1: ctp_truncate must be one of ('keep_last', 'keep_first')"),
        ("ecf_window_lab = -5\n", "line 1: ECF window for 'lab' must be positive"),
        ("chains = 3\nseed = -1\n", "line 2: seed must be >= 0"),
        ("w1 = 0.7\n", "line 1: w1 + w2 must equal 1, got 0.7 + 0.5"),
        # the sum rule names the later of the two weights' lines
        ("w2 = 0.4\nseed = 3\nw1 = 0.7\n", "line 3: w1 + w2 must equal 1, got 0.7 + 0.4"),
    ],
)
def test_config_file_rejected_value_names_its_line(text, message):
    with pytest.raises(ConfigError) as err:
        io_formats.parse_config_text(text)
    assert str(err.value) == message


def test_cli_config_rejected_value_names_its_line(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nchains = 0\n")
    out = tmp_path / "o.csv"
    code = main(["impute", "--data", str(_write_synth(tmp_path)), "--method", "meanfill",
                 "--config", str(path), "--out", str(out)])
    assert code == 1 and not out.exists()
    assert "line 2: chains must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("how", ["flag", "file"])
def test_cli_rejects_negative_seed(tmp_path, capsys, how):
    # the chain variants used to fail partway with an error naming no setting
    path = tmp_path / "run.cfg"
    path.write_text("seed = -1\n")
    flags = ["--seed", "-1"] if how == "flag" else ["--config", str(path)]
    out = tmp_path / "o.csv"
    code = main(["impute", "--data", str(_write_synth(tmp_path)), "--method", "mice",
                 *flags, "--out", str(out)])
    assert code == 1 and not out.exists()
    message = "seed must be >= 0" if how == "flag" else "line 1: seed must be >= 0"
    assert f"error: {message}\n" in capsys.readouterr().err


def test_config_file_rejects_bad_weights():
    for text in ["w1 = 0.9\n", "w1 = nan\nw2 = nan\n"]:
        with pytest.raises(ConfigError):
            io_formats.parse_config_text(text)
    with pytest.raises(ConfigError, match="finite"):
        Config(w1=float("nan"), w2=float("nan"))


def test_report_render_parse_round_trip():
    report = EvalReport(
        variant="mean_fill",
        strategy="random_rate",
        rate=0.5,
        seed=3,
        per_feature_nrmse={0: 0.25, 1: 0.125, 2: 0.5, 3: 0.75},
        per_feature_masked={0: 10, 1: 4, 2: 1, 3: 2},
        macro_nrmse=0.1875,
        config_echo={"chains": "5", "w1": "0.5"},
    )
    # a comma or a quote in a name must not shift the columns
    text = io_formats.render_report(report, {0: "HR", 1: "Temp", 2: "f,1", 3: 'g"2'})
    parsed = io_formats.parse_report(text)
    assert parsed["header"]["variant"] == "mean_fill"
    assert parsed["header"]["macro_nrmse"] == "0.1875"
    assert parsed["config"]["chains"] == "5"
    assert parsed["per_feature"] == [
        {"feature": "0", "name": "HR", "masked_cells": "10", "nrmse": "0.25"},
        {"feature": "1", "name": "Temp", "masked_cells": "4", "nrmse": "0.125"},
        {"feature": "2", "name": "f,1", "masked_cells": "1", "nrmse": "0.5"},
        {"feature": "3", "name": 'g"2', "masked_cells": "2", "nrmse": "0.75"},
    ]


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


def test_cli_evaluate_rejects_misaligned_imputed_file(tmp_path, capsys):
    data = _write_synth(tmp_path)
    masked, mask_csv, imputed = tmp_path / "masked.csv", tmp_path / "mask.csv", tmp_path / "i.csv"
    assert main(["mask", "--data", str(data), "--rate", "0.4", "--seed", "7",
                 "--out", str(masked), "--mask-out", str(mask_csv)]) == 0
    assert main(["impute", "--data", str(masked), "--method", "meanfill",
                 "--out", str(imputed)]) == 0
    header, first, *rest = imputed.read_text().splitlines()
    vid, time, *cells = first.split(",")
    misaligned = {
        "time": [",".join([vid, str(int(time) + 1), *cells])] + rest,
        "visit id": [",".join(["other", time, *cells])] + rest,
        "event count": rest,
    }
    for lines in misaligned.values():
        imputed.write_text("\n".join([header, *lines]) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--truth-mask", str(mask_csv), "--imputed", str(imputed),
                     "--masked", str(masked)]) == 2
        assert "imputed file does not align with the masked input" in capsys.readouterr().err


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


def test_manifest_header_is_only_a_first_name_kind_row(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("visit_id,time_min,feature,value\n"
                    "a,0,HR,1.0\na,10,name,2.0\na,20,HR,3.0\na,30,name,4.0\n")
    manifest = tmp_path / "features.csv"
    manifest.write_text("# features\nname,kind\nHR,vital\nname,lab\n")
    assert io_formats.read_feature_manifest(manifest) == [
        FeatureSpec(0, "HR", "vital"), FeatureSpec(1, "name", "lab"),
    ]
    # no header: a first row naming a feature is kept
    manifest.write_text("name,lab\nHR,vital\n")
    assert [s.name for s in io_formats.read_feature_manifest(manifest)] == ["name", "HR"]
    assert main(["impute", "--data", str(data), "--features", str(manifest),
                 "--method", "meanfill", "--out", str(tmp_path / "o.csv")]) == 0


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("HR,vital\nHR,lab\n", ":2: duplicate feature name 'HR' (first on line 1)"),
        ("# kinds\nname,kind\nHR,vitals\n", ":3: unknown feature kind 'vitals' for 'HR'"),
    ],
)
def test_cli_manifest_errors_name_the_manifest_line(tmp_path, capsys, text, message):
    data = tmp_path / "d.csv"
    data.write_text("visit_id,time_min,feature,value\na,0,HR,1.0\na,10,HR,2.0\n")
    manifest = tmp_path / "features.csv"
    manifest.write_text(text)
    with pytest.raises(DataError) as err:
        io_formats.read_feature_manifest(manifest)
    assert str(err.value) == f"{manifest}{message}"
    code = main(["impute", "--data", str(data), "--features", str(manifest),
                 "--method", "mice", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {manifest}{message}\n"


def test_cli_missing_file_is_data_error(tmp_path):
    code = main(["impute", "--data", str(tmp_path / "absent.csv"),
                 "--method", "meanfill", "--out", str(tmp_path / "o.csv")])
    assert code == 2


def test_cli_bench_report_config_block_loads_back(tmp_path):
    # every field away from its default; the report carries the run's seed
    settings = {"w1": 0.3, "w2": 0.7, "chains": 2, "iterations": 3,
                "ctp_truncate": "keep_first", "ecf_window_lab": 60, "ecf_window_vital": 30,
                "ecf_window_other": 45, "seed": 9}
    assert all(getattr(Config(), key) != value for key, value in settings.items())
    assert set(settings) == {f.name for f in dataclasses.fields(Config)}
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    out_dir = tmp_path / "reports"
    assert main(["bench", "--data", str(_write_synth(tmp_path, n_visits=6)), "--rates", "30",
                 "--methods", "ecf", "--seeds", "4", "--config", str(path),
                 "--out-dir", str(out_dir)]) == 0
    text = (out_dir / "report_ecf_rate30_seed4.txt").read_text()
    block = text.split("\n[config]\n", 1)[1].split("[per_feature]\n", 1)[0]
    assert "variant" not in block
    assert io_formats.parse_config_text(block) == Config(**{**settings, "seed": 4})


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


@pytest.mark.parametrize(
    "grid",
    [["--rates", "20,20.4", "--methods", "meanfill", "--seeds", "0"],
     ["--rates", "20", "--methods", "meanfill,ecf,meanfill", "--seeds", "0"],
     ["--rates", "20", "--methods", "meanfill", "--seeds", "1,1"]],
    ids=["rates", "methods", "seeds"],
)
def test_cli_bench_refuses_runs_that_share_a_report(tmp_path, capsys, grid):
    data = _write_synth(tmp_path, n_visits=6)
    out_dir = tmp_path / "reports"
    assert main(["bench", "--data", str(data), *grid, "--out-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert "report_meanfill_rate20_seed" in captured.err and captured.out == ""
    assert not out_dir.exists()


def test_cli_synth_writes_ingestible_csv(tmp_path):
    out = tmp_path / "synth.csv"
    assert main(["synth", "--out", str(out), "--visits", "5", "--features", "2",
                 "--seed", "3"]) == 0
    ds = io_formats.ingest_long_csv(out)
    assert ds.n_visits == 5 and ds.n_features == 2


@pytest.mark.parametrize("counts", [["--visits", "0"], ["--visits", "-2"], ["--features", "0"]])
def test_cli_synth_rejects_empty_cohorts(tmp_path, capsys, counts):
    out = tmp_path / "synth.csv"
    assert main(["synth", "--out", str(out), *counts]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


# ---------------------------------------------------------------------------
# The columnar readers against the record-by-record readers they replaced.
#
# The three oracles below are the row-loop readers, kept as references: for
# every generated file the columnar reader must give the same dataset or mask
# (bit for bit) or raise the same DataError text.


def oracle_ingest_long_csv(path, features=None):
    registry, specs = {}, []
    fixed_features = features is not None
    if fixed_features:
        specs = list(features)
        registry = {s.name: s.id for s in specs}
    cells, visit_order = {}, []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (row[0].startswith("#") and len(row) == 1):
                continue
            if lineno == 1 and row[:2] == ["visit_id", "time_min"]:
                continue
            if len(row) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            visit_id, time_s, feat_name, value_s = (s.strip() for s in row)
            try:
                time = int(time_s)
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer time {time_s!r}") from None
            try:
                value = float(value_s)
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric value {value_s!r}") from None
            if not np.isfinite(value):
                raise DataError(f"{path}:{lineno}: non-finite value {value_s!r}")
            if feat_name not in registry:
                if fixed_features:
                    raise DataError(f"{path}:{lineno}: unknown feature {feat_name!r}")
                registry[feat_name] = len(specs)
                specs.append(FeatureSpec(len(specs), feat_name, "other"))
            feat = registry[feat_name]
            if visit_id not in cells:
                cells[visit_id] = {}
                visit_order.append(visit_id)
            by_time = cells[visit_id].setdefault(time, {})
            if feat in by_time:
                raise DataError(
                    f"{path}:{lineno}: duplicate record for ({visit_id}, {time}, {feat_name})"
                )
            by_time[feat] = value
    if not visit_order:
        raise DataError(f"{path}: no records")
    visits = []
    for visit_id in visit_order:
        times = sorted(cells[visit_id])
        values = np.full((len(times), len(specs)), np.nan)
        for r, t in enumerate(times):
            for f, v in cells[visit_id][t].items():
                values[r, f] = v
        visits.append(Visit(visit_id, times, values))
    dataset = Dataset(specs, visits)
    problems = validate(dataset)
    if problems:
        raise DataError(f"{path}: invalid dataset: " + "; ".join(problems))
    return dataset


def oracle_read_mask_csv(path, dataset):
    visit_index = {v.visit_id: i for i, v in enumerate(dataset.visits)}
    feat_index = {s.name: s.id for s in dataset.features}
    event_index = {}
    cells = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0] == "visit_id":
                continue
            if len(row) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields")
            visit_id, time_s, feat_name, truth_s = (s.strip() for s in row)
            if visit_id not in visit_index:
                raise DataError(f"{path}:{lineno}: unknown visit {visit_id!r}")
            if feat_name not in feat_index:
                raise DataError(f"{path}:{lineno}: unknown feature {feat_name!r}")
            i = visit_index[visit_id]
            try:
                time = int(time_s)
                truth = float(truth_s)
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed row") from None
            if i not in event_index:
                event_index[i] = {t: e for e, t in enumerate(dataset.visits[i].times.tolist())}
            event = event_index[i].get(time)
            if event is None:
                raise DataError(f"{path}:{lineno}: no event at time {time} in {visit_id!r}")
            cells.append((i, event, feat_index[feat_name], truth))
    visit, event, feature, truth = zip(*cells) if cells else ((),) * 4
    return MaskSet(visit, event, feature, truth, strategy="external")


def oracle_read_wide_csv(path, features=None):
    visits_cells, order = {}, []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["visit_id", "time_min"]:
            raise DataError(f"{path}: missing wide-format header")
        d = len(header) - 2
        if features is not None and len(features) != d:
            raise DataError(f"{path}: expected {len(features)} feature columns, found {d}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise DataError(f"{path}:{lineno}: expected {d + 2} fields")
            visit_id = row[0]
            try:
                time = int(row[1])
                vals = [float(x) for x in row[2:]]
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed row") from None
            if visit_id not in visits_cells:
                visits_cells[visit_id] = []
                order.append(visit_id)
            visits_cells[visit_id].append((time, vals))
    if not order:
        raise DataError(f"{path}: no records")
    specs = features or [FeatureSpec(k, f"f_{k}", "other") for k in range(d)]
    visits = []
    for visit_id in order:
        rows = sorted(visits_cells[visit_id])
        values = np.array([v for _, v in rows], dtype=float)
        visits.append(Visit(visit_id, [t for t, _ in rows], values))
    return Dataset(specs, visits)


def outcome(read, *args):
    """What a reader returns, or the text of the DataError it raises."""
    try:
        return read(*args)
    except DataError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    elif isinstance(want, MaskSet):
        np.testing.assert_array_equal(got.cells(), want.cells())
        assert_same_bits(got.truth, want.truth)
        assert (got.strategy, got.rate, got.seed) == (want.strategy, want.rate, want.seed)
    else:
        assert got.features == want.features
        assert [v.visit_id for v in got.visits] == [v.visit_id for v in want.visits]
        np.testing.assert_array_equal(got.starts, want.starts)
        assert got.times.dtype == want.times.dtype == np.int64
        np.testing.assert_array_equal(got.times, want.times)
        assert_same_bits(got.values, want.values)


@contextmanager
def block_fields(n):
    """Read in blocks of about ``n`` fields, so small files span many blocks."""
    saved = io_formats._BLOCK_FIELDS
    io_formats._BLOCK_FIELDS = n
    try:
        yield
    finally:
        io_formats._BLOCK_FIELDS = saved


def examples(n):
    return settings(max_examples=n, deadline=None, derandomize=True, database=None)


def mostly(valid, invalid):
    """A token that is usually valid."""
    return st.sampled_from(valid * 12 + invalid)


BLOCK_FIELDS = st.sampled_from([1, 4, 8, 12, 1 << 14])


@st.composite
def csv_lines(draw, record, extras, header, header_anywhere=False):
    """CSV text: records, mixed with blank, comment and malformed lines.

    ``header`` opens the file or not; with ``header_anywhere`` it may also
    repeat between records.
    """
    lines = [header] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["record"] * 8 + ["extra", "blank", "header"]))
        if kind == "record":
            lines.append(",".join(draw(record)))
        elif kind == "extra":
            lines.append(draw(st.sampled_from(extras)))
        elif kind == "blank":
            lines.append("")
        elif header_anywhere:
            lines.append(header)
    return "\n".join(lines) + ("\n" if lines and draw(st.booleans()) else "")


LONG_HEADER = "visit_id,time_min,feature,value"
long_records = st.tuples(
    mostly(["a", "b", " a", "c "], ['"q,r"']),
    mostly(["0", "30", "7", " 30", "120", "+5"], ["1.5", "x", "", "-5", "1e3"]),
    mostly(["x", "y", "z", " y"], ["w"]),
    mostly(["1.5", "-2", " 3 ", "0", "-0.0", "1e-3"], ["nan", "inf", "-inf", "1e999", "abc", ""]),
)
long_files = csv_lines(
    long_records,
    ["# note", "#a,0,x,1", "a,0,x", "a,0,x,1,2", "a", LONG_HEADER],
    LONG_HEADER,
)
manifests = st.sampled_from([None, ("x", "y", "z"), ("y", "x"), ("z", "x", "y", "w")])


@examples(400)
@given(long_files, manifests, BLOCK_FIELDS)
def test_ingest_matches_row_oracle(tmp_path_factory, text, manifest, fields):
    path = tmp_path_factory.getbasetemp() / "long.csv"
    path.write_text(text)
    features = None
    if manifest is not None:
        features = [FeatureSpec(k, name, "lab") for k, name in enumerate(manifest)]
    want = outcome(oracle_ingest_long_csv, path, features)
    with block_fields(fields):
        got = outcome(io_formats.ingest_long_csv, path, features)
    assert_same_outcome(got, want)


MASK_DATASET = make_dataset(
    [
        ("a", [0, 30, 90], [[1.0, 2.0], [3.0, NAN], [5.0, 6.0]]),
        ("b", [5, 30], [[7.0, 8.0], [NAN, 9.0]]),
        (" d", [0], [[1.0, 1.0]]),
    ],
    names=["x", "y"],
)
MASK_HEADER = "visit_id,time_min,feature,truth"
mask_records = st.tuples(
    mostly(["a", "b", " b "], ["d", " d", "zz"]),
    mostly(["0", "30", "90", "5", " 30"], ["31", "x", "1.0", ""]),
    mostly(["x", "y", " y"], ["q"]),
    mostly(["1.5", " 2 ", "-0.0", "nan", "-inf"], ["abc", ""]),
)
mask_files = csv_lines(
    mask_records, ["# note", "a,0,x", "a,0,x,1,2", "visit_id"], MASK_HEADER, header_anywhere=True
)


@examples(400)
@given(mask_files, BLOCK_FIELDS)
def test_read_mask_matches_row_oracle(tmp_path_factory, text, fields):
    path = tmp_path_factory.getbasetemp() / "mask.csv"
    path.write_text(text)
    want = outcome(oracle_read_mask_csv, path, MASK_DATASET)
    with block_fields(fields):
        got = outcome(io_formats.read_mask_csv, path, MASK_DATASET)
    assert_same_outcome(got, want)


# NaN is left out of the wide values: rows of one visit that share a time are
# ordered by their values, and Python's sort and numpy's order NaN apart
wide_records = st.tuples(
    mostly(["a", "b", " a"], []),
    mostly(["0", "5", " 5", "9"], ["x", "1.5"]),
    mostly(["1.5", "-0.0", "0", "inf", " 2"], ["abc"]),
    mostly(["1.5", "-0.0", "0", "-inf", "3 "], ["", "nan?"]),
)


@st.composite
def wide_files(draw):
    header = draw(st.sampled_from(
        ["visit_id,time_min,f_0,f_1"] * 6
        + ["visit_id,time_min,f_0", "visit_id,time_min", "id,time,f_0,f_1", ""]
    ))
    text = draw(csv_lines(wide_records, ["a,0,1", "a,0,1,2,3", "a"], header))
    return text if text.startswith(header) or not header else header + "\n" + text


@examples(400)
@given(wide_files(), st.booleans(), BLOCK_FIELDS)
def test_read_wide_matches_row_oracle(tmp_path_factory, text, named, fields):
    path = tmp_path_factory.getbasetemp() / "wide.csv"
    path.write_text(text)
    features = [FeatureSpec(0, "HR", "vital"), FeatureSpec(1, "Cr", "lab")] if named else None
    want = outcome(oracle_read_wide_csv, path, features)
    with block_fields(fields):
        got = outcome(io_formats.read_wide_csv, path, features)
    assert_same_outcome(got, want)


@pytest.mark.parametrize(
    "text, manifest, message",
    [
        ("a,0,x,1\n\na,0,x\n", None, ":3: expected 4 fields, got 3"),
        ("a,0,x,1\na,1.5,x,1\n", None, ":2: non-integer time '1.5'"),
        ("a,0,x, abc \n", None, ":1: non-numeric value 'abc'"),
        ("# one field\na,0,x,inf\n", None, ":2: non-finite value 'inf'"),
        ("a,0,x,1\na,5,q,2\n", ("x",), ":2: unknown feature 'q'"),
        ("a,30,x,1\nb,0,x,1\na , 30,x,2\n", None, ":3: duplicate record for (a, 30, x)"),
        ("a,-5,x,1\n", None, ": invalid dataset: visit 'a': negative event time"),
        ("visit_id,time_min,feature,value\n# c\n", None, ": no records"),
        # one record failing several checks raises the first in check order
        ("a,x,q\n", ("x",), ":1: expected 4 fields, got 3"),
        ("a,x,q,abc\n", ("x",), ":1: non-integer time 'x'"),
        ("a,0,q,abc\n", ("x",), ":1: non-numeric value 'abc'"),
        ("a,0,q,inf\n", ("x",), ":1: non-finite value 'inf'"),
        ("a,0,x,1\na,0,q,1\na,0,x,2\n", ("x",), ":2: unknown feature 'q'"),
        # a time beyond int64 fails where a non-integer time would
        ("a,0,x,1\na,99999999999999999999,x,2\n", None, ":2: time out of range '99999999999999999999'"),
        ("a,-99999999999999999999,x,abc\n", None, ":1: time out of range '-99999999999999999999'"),
        ("a,99999999999999999999,x\n", None, ":1: expected 4 fields, got 3"),
    ],
)
def test_ingest_error_messages(tmp_path, text, manifest, message):
    path = tmp_path / "long.csv"
    path.write_text(text)
    features = None if manifest is None else [FeatureSpec(0, manifest[0])]
    with pytest.raises(DataError) as err:
        io_formats.ingest_long_csv(path, features)
    assert str(err.value) == f"{path}{message}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,0,x,1\nvisit_id,t,f,v\n# note\n", ":3: expected 4 fields"),
        ("a,0,x,1\n\nzz,0,x,1\n", ":3: unknown visit 'zz'"),
        ("a,0,q,1\n", ":1: unknown feature 'q'"),
        ("a,0,x,1\na,0,y,abc\n", ":2: malformed row"),
        ("a,0.5,x,1\n", ":1: malformed row"),
        # one record failing several checks raises the first in check order
        ("zz,x,q\n", ":1: expected 4 fields"),
        ("zz,x,q,abc\n", ":1: unknown visit 'zz'"),
        ("a,x,q,abc\n", ":1: unknown feature 'q'"),
        ("a,31,x,abc\n", ":1: malformed row"),
        ("a,31,x,1\n", ":1: no event at time 31 in 'a'"),
        ("a,0,x,1\na,99999999999999999999,x,1\n", ":2: malformed row"),
        ("a,99999999999999999999,q,1\n", ":1: unknown feature 'q'"),
    ],
)
def test_mask_error_messages(tmp_path, text, message):
    path = tmp_path / "mask.csv"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        io_formats.read_mask_csv(path, MASK_DATASET)
    assert str(err.value) == f"{path}{message}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", ": missing wide-format header"),
        ("visit_id,time_min,f_0\n", ": expected 2 feature columns, found 1"),
        ("visit_id,time_min,f_0,f_1\n\na,0,1\n", ":3: expected 4 fields"),
        ("visit_id,time_min,f_0,f_1\na,0,1,2\na,0,1,x\n", ":3: malformed row"),
        ("visit_id,time_min,f_0,f_1\n\n", ": no records"),
        ("visit_id,time_min,f_0,f_1\na,x,abc\n", ":2: expected 4 fields"),
        ("visit_id,time_min,f_0,f_1\na,0,1,2\na,99999999999999999999,1,2\n", ":3: malformed row"),
    ],
)
def test_wide_error_messages(tmp_path, text, message):
    path = tmp_path / "wide.csv"
    path.write_text(text)
    features = [FeatureSpec(0, "HR"), FeatureSpec(1, "Cr")]
    with pytest.raises(DataError) as err:
        io_formats.read_wide_csv(path, features)
    assert str(err.value) == f"{path}{message}"


BIG_TIME = "9" * 20


@pytest.mark.parametrize("fields", [4, 8, 1 << 14])
def test_time_overflow_first_bad_record_wins_across_blocks(tmp_path, fields):
    path = tmp_path / "long.csv"
    lines = ["a,0,x,1", "a,1,x,1", "a,2,x,1", f"a,{BIG_TIME},x,1", "a,4,x,1", "a,5.5,x,1"]
    path.write_text("\n".join(lines) + "\n")
    with block_fields(fields), pytest.raises(DataError) as err:
        io_formats.ingest_long_csv(path)
    assert str(err.value) == f"{path}:4: time out of range '{BIG_TIME}'"
    lines[3], lines[5] = "a,3.5,x,1", f"a,{BIG_TIME},x,1"
    path.write_text("\n".join(lines) + "\n")
    with block_fields(fields), pytest.raises(DataError) as err:
        io_formats.ingest_long_csv(path)
    assert str(err.value) == f"{path}:4: non-integer time '3.5'"


def test_cli_time_overflow_is_data_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text(f"a,0,x,1\na,{BIG_TIME},x,2\n")
    assert main(["impute", "--data", str(data), "--method", "meanfill",
                 "--out", str(tmp_path / "out.csv")]) == 2
    assert f"data error: {data}:2: time out of range '{BIG_TIME}'" in capsys.readouterr().err

    data = _write_synth(tmp_path)
    masked, mask_csv, imputed = tmp_path / "masked.csv", tmp_path / "mask.csv", tmp_path / "i.csv"
    assert main(["mask", "--data", str(data), "--rate", "0.4", "--seed", "7",
                 "--out", str(masked), "--mask-out", str(mask_csv)]) == 0
    assert main(["impute", "--data", str(masked), "--method", "meanfill",
                 "--out", str(imputed)]) == 0
    evaluate = ["evaluate", "--truth-mask", str(mask_csv), "--imputed", str(imputed),
                "--masked", str(masked)]
    header, first, *rest = mask_csv.read_text().splitlines()
    vid, _, *cells = first.split(",")
    mask_csv.write_text("\n".join([header, ",".join([vid, BIG_TIME, *cells]), *rest]) + "\n")
    capsys.readouterr()
    assert main(evaluate) == 2
    assert f"data error: {mask_csv}:2: malformed row" in capsys.readouterr().err

    main(["mask", "--data", str(data), "--rate", "0.4", "--seed", "7",
          "--out", str(masked), "--mask-out", str(mask_csv)])
    header, first, *rest = imputed.read_text().splitlines()
    vid, _, *cells = first.split(",")
    imputed.write_text("\n".join([header, ",".join([vid, BIG_TIME, *cells]), *rest]) + "\n")
    assert main(evaluate) == 2
    assert f"data error: {imputed}:2: malformed row" in capsys.readouterr().err


def test_library_paths_do_not_read_visits(tmp_path, monkeypatch):
    # the stacked layout (visit_ids, lengths, visit_of_row) serves every
    # library path; only callers that ask for Visit views build them
    def no_visits(self):
        raise AssertionError("a library path read dataset.visits")

    flawed = make_dataset(
        [("a", [5, 3, 3], [[1.0, NAN], [NAN, NAN], [1.0, 2.0]]), ("e", [], np.empty((0, 2)))]
    )
    dataset, _ = generate(SynthConfig(n_visits=5, n_features=3, events_per_visit=(3, 6),
                                      noise_scale=0.05, native_missing_rate=0.2, seed=1))
    monkeypatch.setattr(Dataset, "visits", property(no_visits), raising=False)
    with pytest.raises(AssertionError, match="read dataset.visits"):
        dataset.visits

    assert validate(flawed)
    mask_one_per_feature_visit(dataset, seed=0)
    mask = mask_random(dataset, 0.4, seed=0)
    masked = apply_mask(dataset, mask)
    restore_mask(masked, mask)
    config = Config(chains=2, iterations=2, seed=0)
    for variant in VARIANTS:
        nrmse(mask, impute(masked, variant, config).dataset, dataset, variant=variant)

    data, masked_csv, mask_csv = tmp_path / "d.csv", tmp_path / "m.csv", tmp_path / "k.csv"
    imputed, report = tmp_path / "i.csv", tmp_path / "r.txt"
    assert main(["synth", "--out", str(data), "--visits", "6", "--features", "3"]) == 0
    assert main(["mask", "--data", str(data), "--rate", "0.4",
                 "--out", str(masked_csv), "--mask-out", str(mask_csv)]) == 0
    assert main(["impute", "--data", str(masked_csv), "--method", "tadualcv",
                 "--chains", "2", "--iterations", "2", "--out", str(imputed)]) == 0
    assert main(["evaluate", "--truth-mask", str(mask_csv), "--imputed", str(imputed),
                 "--masked", str(masked_csv), "--out", str(report)]) == 0
    assert main(["bench", "--data", str(data), "--rates", "30", "--methods", "tadualcv,ecf",
                 "--chains", "2", "--iterations", "2", "--out-dir", str(tmp_path / "b")]) == 0
