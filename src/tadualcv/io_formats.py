"""CSV formats and the plain-text config/report files.

Long CSV (canonical input): header ``visit_id,time_min,feature,value``, one
row per observed cell; missing cells are absent rows, never sentinels.
Features register in first-appearance order unless a manifest fixes order
and kinds up front.

Wide CSV (canonical output): header ``visit_id,time_min,f_0,...,f_{D-1}``
with one row per event; column ``f_k`` is the k-th feature of the ingest
order. Std and missing-indicator files share the shape. All decimals are
rendered with 9 significant digits.

Mask CSV: ``visit_id,time_min,feature,truth`` — one row per hidden cell.

Config files are ``key = value`` lines (``#`` comments allowed); report files
are ``key = value`` lines plus a ``[per_feature]`` CSV block.
"""

from __future__ import annotations

import csv
import io
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from .config import Config, ConfigError
from .data_model import (
    CellIndex,
    DataError,
    Dataset,
    FeatureSpec,
    MaskSet,
    Visit,
    validate,
)
from .evaluation import EvalReport


def fmt(value: float) -> str:
    """Render a decimal with 9 significant digits."""
    return f"{float(value):.9g}"


def read_feature_manifest(path) -> list[FeatureSpec]:
    """Manifest rows are ``name,kind`` in the desired feature order."""
    specs = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].startswith("#"):
                continue
            if row[0] == "name":
                continue
            name = row[0].strip()
            kind = row[1].strip() if len(row) > 1 else "other"
            specs.append(FeatureSpec(len(specs), name, kind))
    if not specs:
        raise DataError(f"{path}: empty feature manifest")
    return specs


def ingest_long_csv(path, features: list[FeatureSpec] | None = None) -> Dataset:
    """Parse long-format rows into a validated dataset.

    Events are formed per unique (visit_id, time_min); duplicate
    (visit, time, feature) rows, non-numeric values, and malformed rows are
    rejected with their line number.
    """
    registry: dict[str, int] = {}
    specs: list[FeatureSpec] = []
    fixed_features = features is not None
    if fixed_features:
        specs = list(features)
        registry = {s.name: s.id for s in specs}

    cells: dict[str, dict[int, dict[int, float]]] = {}
    visit_order: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
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

    d = len(specs)
    visits = []
    for visit_id in visit_order:
        times = sorted(cells[visit_id])
        values = np.full((len(times), d), np.nan)
        for r, t in enumerate(times):
            for f, v in cells[visit_id][t].items():
                values[r, f] = v
        visits.append(Visit(visit_id, times, values))
    dataset = Dataset(specs, visits)
    problems = validate(dataset)
    if problems:
        raise DataError(f"{path}: invalid dataset: " + "; ".join(problems))
    return dataset


def emit_long_csv(dataset: Dataset, path) -> None:
    """One row per observed cell, visit order then time then feature."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["visit_id", "time_min", "feature", "value"])
        for visit in dataset.visits:
            for e, t in enumerate(visit.times):
                for f, spec in enumerate(dataset.features):
                    v = visit.values[e, f]
                    if not np.isnan(v):
                        writer.writerow([visit.visit_id, int(t), spec.name, fmt(v)])


def _emit_wide(path, dataset: Dataset, rows) -> None:
    """One line per event: visit id, time, then that event's cell strings.

    ``rows`` yields one sequence of ``D`` strings per event, in stacked order.
    """
    d = dataset.n_features
    ids = [v.visit_id for v in dataset.visits for _ in range(v.n_events)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["visit_id", "time_min"] + [f"f_{k}" for k in range(d)])
        writer.writerows(
            [vid, t, *row] for vid, t, row in zip(ids, dataset.times.tolist(), rows)
        )


def _fmt_rows(values: np.ndarray):
    return ([fmt(v) for v in row.tolist()] for row in values)


def emit_wide_csv(dataset: Dataset, path) -> None:
    """Complete data only: every cell must hold a value."""
    incomplete = np.isnan(dataset.values).any(axis=1)
    if incomplete.any():
        visit = np.searchsorted(dataset.starts, np.argmax(incomplete), side="right") - 1
        raise DataError(f"visit {dataset.visits[visit].visit_id!r} still has missing cells")
    _emit_wide(path, dataset, _fmt_rows(dataset.values))


def emit_std_csv(dataset: Dataset, stds: np.ndarray, path) -> None:
    """Per-cell imputation dispersion from an ``(E, D)`` array, zero at observed cells."""
    _emit_wide(path, dataset, _fmt_rows(np.asarray(stds, dtype=float)))


def emit_mi_csv(dataset: Dataset, path) -> None:
    """Missing indicators of the (pre-imputation) dataset: 1 where missing."""
    _emit_wide(path, dataset, np.where(np.isnan(dataset.values), "1", "0").tolist())


def read_wide_csv(path, features: list[FeatureSpec] | None = None) -> Dataset:
    """Read a complete wide file back into a dataset.

    Columns map positionally onto ``features`` when given (they must match in
    count); otherwise placeholder specs named after the header are created.
    """
    visits_cells: dict[str, list[tuple[int, list[float]]]] = {}
    order: list[str] = []
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
        times = [t for t, _ in rows]
        values = np.array([v for _, v in rows], dtype=float)
        visits.append(Visit(visit_id, times, values))
    return Dataset(specs, visits)


def emit_mask_csv(dataset: Dataset, mask: MaskSet, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["visit_id", "time_min", "feature", "truth"])
        for cell, truth in mask.entries:
            visit = dataset.visits[cell.visit]
            writer.writerow(
                [
                    visit.visit_id,
                    int(visit.times[cell.event]),
                    dataset.features[cell.feature].name,
                    fmt(truth),
                ]
            )


def read_mask_csv(path, dataset: Dataset, strategy="external", rate=None, seed=0) -> MaskSet:
    """Resolve mask rows against ``dataset`` (typically the masked input).

    The file does not record how it was produced, so the default provenance
    is the placeholder ``external`` with rate NA and seed 0.
    """
    visit_index = {v.visit_id: i for i, v in enumerate(dataset.visits)}
    feat_index = {s.name: s.id for s in dataset.features}
    # time -> event, built on a visit's first row; times are strictly increasing
    event_index: dict[int, dict[int, int]] = {}
    entries = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
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
            entries.append((CellIndex(i, event, feat_index[feat_name]), truth))
    return MaskSet(entries, strategy=strategy, rate=rate, seed=seed)


def parse_config_text(text: str, base: Config | None = None) -> Config:
    """Parse ``key = value`` lines into a Config on top of ``base`` (defaults)."""
    values = dict((base or Config()).__dict__)
    values["ecf_windows"] = dict(values["ecf_windows"])
    known = {f.name: f for f in dataclass_fields(Config)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = (s.strip() for s in line.partition("="))
        if key.startswith("ecf_window_"):
            kind = key[len("ecf_window_") :]
            values["ecf_windows"][kind] = int(value)
            continue
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key == "ctp_truncate":
            values[key] = value
        elif key in ("chains", "iterations", "seed"):
            values[key] = int(value)
        else:
            values[key] = float(value)
    return Config(**values)


def load_config(path, base: Config | None = None) -> Config:
    return parse_config_text(Path(path).read_text(), base=base)


def render_report(report: EvalReport, feature_names: dict[int, str] | None = None) -> str:
    """Serialize a report as documented: header pairs, config echo, table."""
    names = feature_names or {}
    out = io.StringIO()
    out.write("# tadualcv evaluation report\n")
    out.write(f"variant = {report.variant}\n")
    out.write(f"strategy = {report.strategy}\n")
    out.write(f"rate = {'NA' if report.rate is None else fmt(report.rate)}\n")
    out.write(f"seed = {report.seed}\n")
    total = sum(report.per_feature_masked.values())
    out.write(f"masked_cells = {total}\n")
    macro = "NA" if report.macro_nrmse is None else fmt(report.macro_nrmse)
    out.write(f"macro_nrmse = {macro}\n")
    out.write("[config]\n")
    for key, value in report.config_echo.items():
        out.write(f"{key} = {value}\n")
    out.write("[per_feature]\n")
    out.write("feature,name,masked_cells,nrmse\n")
    for f, score in report.per_feature_nrmse.items():
        out.write(f"{f},{names.get(f, f'f_{f}')},{report.per_feature_masked[f]},{fmt(score)}\n")
    return out.getvalue()


def parse_report(text: str) -> dict:
    """Parse a rendered report back into header/config/table dictionaries."""
    header: dict[str, str] = {}
    config: dict[str, str] = {}
    table: list[dict[str, str]] = []
    section = "header"
    columns: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[config]":
            section = "config"
            continue
        if line == "[per_feature]":
            section = "table"
            columns = []
            continue
        if section == "table":
            parts = line.split(",")
            if not columns:
                columns = parts
            else:
                table.append(dict(zip(columns, parts)))
        else:
            key, _, value = (s.strip() for s in line.partition("="))
            (header if section == "header" else config)[key] = value
    return {"header": header, "config": config, "per_feature": table}
