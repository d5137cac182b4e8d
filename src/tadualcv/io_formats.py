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
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .config import Config, ConfigError
from .data_model import (
    FEATURE_KINDS,
    DataError,
    Dataset,
    FeatureSpec,
    MaskSet,
    validate,
)
from .evaluation import EvalReport


# every decimal these files hold is written with this one spec
DECIMAL = "%.9g"


def fmt(value: float) -> str:
    """Render a decimal with 9 significant digits."""
    return DECIMAL % float(value)


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


# Records are converted in blocks of about this many fields, which bounds
# the field strings alive at once.
_BLOCK_FIELDS = 1 << 14


def _convert_blocks(records, width: int, keep, empty: tuple, convert, scan, lineno: int = 1):
    """Concatenated ``convert(rows)`` arrays over consecutive blocks of ``records``.

    ``records`` yields each record as a tuple of its fields, the first of
    them on line ``lineno``; line numbers count records, as ``csv.reader``
    yields them. A block holds about ``_BLOCK_FIELDS // width`` records.
    ``keep(block, lineno)`` returns one bool per record of a block whose
    first record is on line ``lineno``. ``scan`` checks the kept records and
    ``convert`` turns them into one array per column of ``empty``. Reading
    stops after the first block with a bad record.
    """
    size, parts = max(1, _BLOCK_FIELDS // width), [empty]
    while block := list(islice(records, size)):
        kept = np.flatnonzero(keep(block, lineno))
        scan.block(kept + lineno)
        parts.append(convert(block if kept.size == len(block) else [block[i] for i in kept]))
        if scan.error is not None:
            break
        lineno += len(block)
    return [np.concatenate(column) for column in zip(*parts)]


class _Scan:
    """The earliest bad record of a columnar read, and the message it raises.

    Records are checked a block at a time, and a read stops after the first
    block with a bad record. Within a block, ``n`` counts the records before
    the earliest failure found so far, and each check looks only at those.
    So whatever order the checks run in, the error kept is the one a
    record-by-record read raises: the first bad record in file order,
    failing its first check in the documented order.
    """

    def __init__(self, path):
        self.path = path
        self.error: str | None = None
        self.block([])

    def block(self, linenos) -> None:
        """Check next the records on ``linenos``, all before any failure found."""
        self.linenos, self.n = linenos, len(linenos)

    def fail(self, bad: np.ndarray, message) -> None:
        """Note the first True of ``bad[:n]``; ``message(j)`` describes record ``j``."""
        hits = np.flatnonzero(bad[: self.n])
        if hits.size:
            self._at(int(hits[0]), message)

    def convert(self, column, kind, dtype, message) -> np.ndarray:
        """``column[:n]`` as ``dtype``; a text ``kind`` rejects or ``dtype`` cannot hold is bad."""
        column = column[: self.n]
        try:
            return np.fromiter(map(kind, column), dtype, len(column))
        except (ValueError, OverflowError):
            for j, text in enumerate(column):
                try:
                    dtype(kind(text))
                except (ValueError, OverflowError):
                    break
            self._at(j, message)
            return np.fromiter(map(kind, column[:j]), dtype, j)

    def _at(self, j: int, message) -> None:
        self.n, self.error = j, f"{self.path}:{self.linenos[j]}: {message(j)}"

    def raise_first(self) -> None:
        if self.error is not None:
            raise DataError(self.error)


def _field_counts(rows) -> np.ndarray:
    return np.fromiter(map(len, rows), np.int64, len(rows))


def _columns(rows, width: int, strip: bool) -> list[list[str]]:
    """The first ``width`` fields of ``rows`` as columns, optionally stripped."""
    columns = [list(map(itemgetter(k), rows)) for k in range(width)]
    return [list(map(str.strip, c)) for c in columns] if strip else columns


def _codes(names: list[str], index: dict[str, int], register: bool = False) -> np.ndarray:
    """``index[name]`` for every name, -1 where it has none.

    With ``register``, names new to ``index`` first join it, numbered on in
    first-appearance order.
    """
    if register:
        for name in dict.fromkeys(names):
            index.setdefault(name, len(index))
    return np.fromiter(map(index.get, names, repeat(-1)), np.int64, len(names))


def _long_keep(block, lineno: int) -> np.ndarray:
    # blank lines and one-field comment lines are skipped, and so is a
    # header on the first line
    counts = _field_counts(block)
    keep = counts > 0
    for i in np.flatnonzero(counts == 1).tolist():
        keep[i] = not block[i][0].startswith("#")
    if lineno == 1 and block[0][:2] == ("visit_id", "time_min"):
        keep[0] = False
    return keep


def _bad_time(text: str) -> str:
    try:
        int(text)
    except ValueError:
        return f"non-integer time {text!r}"
    return f"time out of range {text!r}"


def _long_block(scan: _Scan, rows, registry, fixed_features: bool, visit_index):
    """(visit, time, feature, value) arrays of one block's records before any failure."""
    scan.fail(_field_counts(rows) != 4, lambda j: f"expected 4 fields, got {len(rows[j])}")
    visit_s, time_s, feat_s, value_s = _columns(rows[: scan.n], 4, strip=True)
    times = scan.convert(time_s, int, np.int64, lambda j: _bad_time(time_s[j]))
    values = scan.convert(value_s, float, float, lambda j: f"non-numeric value {value_s[j]!r}")
    scan.fail(~np.isfinite(values), lambda j: f"non-finite value {value_s[j]!r}")
    feature = _codes(feat_s[: scan.n], registry, register=not fixed_features)
    scan.fail(feature < 0, lambda j: f"unknown feature {feat_s[j]!r}")
    n = scan.n
    visit = _codes(visit_s[:n], visit_index, register=True)
    return scan.linenos[:n], visit, times[:n], feature[:n], values[:n]


def ingest_long_csv(path, features: list[FeatureSpec] | None = None) -> Dataset:
    """Parse long-format rows into a validated dataset.

    Events are formed per unique (visit_id, time_min); duplicate
    (visit, time, feature) rows, non-numeric values, and malformed rows are
    rejected with their line number.
    """
    fixed_features = features is not None
    registry = {s.name: s.id for s in features} if fixed_features else {}
    visit_index: dict[str, int] = {}
    scan = _Scan(path)
    empty = np.empty(0, np.int64)
    with open(path, newline="") as fh:
        linenos, visit, times, feature, values = _convert_blocks(
            map(tuple, csv.reader(fh)),
            4,
            _long_keep,
            (empty, empty, empty, empty, np.empty(0)),
            lambda rows: _long_block(scan, rows, registry, fixed_features, visit_index),
            scan,
        )

    # a stable sort keeps file order among equal keys, so every record after
    # the first of its (visit, time, feature) key is a duplicate
    order = np.lexsort((feature, times, visit))
    v, t, f = visit[order], times[order], feature[order]
    same_event = (v[1:] == v[:-1]) & (t[1:] == t[:-1])
    duplicate = np.zeros(len(order), dtype=bool)
    duplicate[order[1:][same_event & (f[1:] == f[:-1])]] = True
    visit_ids, names = list(visit_index), {code: name for name, code in registry.items()}
    scan.block(linenos)
    scan.fail(
        duplicate,
        lambda j: f"duplicate record for ({visit_ids[visit[j]]}, {times[j]}, {names[feature[j]]})",
    )
    scan.raise_first()
    if not visit_ids:
        raise DataError(f"{path}: no records")

    if not fixed_features:
        features = [FeatureSpec(code, name, "other") for name, code in registry.items()]
    first = np.concatenate(([True], ~same_event))
    event = np.cumsum(first) - 1
    stacked = np.full((int(event[-1]) + 1, len(features)), np.nan)
    stacked[event, f] = values[order]
    starts = np.concatenate(([0], np.cumsum(np.bincount(v[first], minlength=len(visit_ids)))))
    dataset = Dataset.from_stacked(features, visit_ids, t[first], stacked, starts)
    problems = validate(dataset)
    if problems:
        raise DataError(f"{path}: invalid dataset: " + "; ".join(problems))
    return dataset


def _emit_cells(path, dataset: Dataset, rows, cols, values, value_column: str) -> None:
    """One line per cell at stacked ``(rows, cols)``: visit id, time, feature, value."""
    names = [spec.name for spec in dataset.features]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["visit_id", "time_min", "feature", value_column])
        writer.writerows(
            zip(
                map(dataset.visit_ids.__getitem__, dataset.visit_of_row[rows].tolist()),
                dataset.times[rows].tolist(),
                map(names.__getitem__, cols.tolist()),
                map(fmt, values.tolist()),
            )
        )


def emit_long_csv(dataset: Dataset, path) -> None:
    """One row per observed cell, visit order then time then feature."""
    rows, cols = np.nonzero(~np.isnan(dataset.values))
    _emit_cells(path, dataset, rows, cols, dataset.values[rows, cols], "value")


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row, quoted where it must be."""
    out = io.StringIO()
    csv.writer(out).writerow([text, ""])
    return out.getvalue()[: -len("," + csv.excel.lineterminator)]


def _emit_wide(path, dataset: Dataset, cells: np.ndarray, spec: str) -> None:
    """One line per event: visit id, time, then that event's row of ``cells``.

    ``cells`` is ``(E, D)``. Each line is one ``%`` template with ``spec`` for
    every cell, filled row by row; each visit id is quoted once, by
    ``csv.writer``'s rules.
    """
    d = dataset.n_features
    line = ",".join(["%s", "%d"] + [spec] * d) + csv.excel.lineterminator
    ids = [_csv_field(vid) for vid in dataset.visit_ids]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["visit_id", "time_min"] + [f"f_{k}" for k in range(d)])
        fh.writelines(
            line % (ids[v], t, *row.tolist())
            for v, t, row in zip(dataset.visit_of_row.tolist(), dataset.times.tolist(), cells)
        )


def emit_wide_csv(dataset: Dataset, path) -> None:
    """Complete data only: every cell must hold a value."""
    incomplete = np.isnan(dataset.values).any(axis=1)
    if incomplete.any():
        vid = dataset.visit_ids[dataset.visit_of_row[np.argmax(incomplete)]]
        raise DataError(f"visit {vid!r} still has missing cells")
    _emit_wide(path, dataset, dataset.values, DECIMAL)


def emit_std_csv(dataset: Dataset, stds: np.ndarray, path) -> None:
    """Per-cell imputation dispersion from an ``(E, D)`` array, zero at observed cells."""
    _emit_wide(path, dataset, np.asarray(stds, dtype=float), DECIMAL)


def emit_mi_csv(dataset: Dataset, path) -> None:
    """Missing indicators of the (pre-imputation) dataset: 1 where missing."""
    _emit_wide(path, dataset, np.isnan(dataset.values), "%d")


def _wide_block(scan: _Scan, rows, d: int, visit_index):
    """(visit, time, values) arrays of one block's rows before any failure."""
    scan.fail(_field_counts(rows) != d + 2, lambda j: f"expected {d + 2} fields")
    visit_s, time_s, *value_s = _columns(rows[: scan.n], d + 2, strip=False)
    times = scan.convert(time_s, int, np.int64, lambda j: "malformed row")
    columns = [scan.convert(c, float, float, lambda j: "malformed row") for c in value_s]
    n = scan.n
    values = np.empty((n, d))
    for k, column in enumerate(columns):
        values[:, k] = column[:n]
    return _codes(visit_s[:n], visit_index, register=True), times[:n], values


def read_wide_csv(path, features: list[FeatureSpec] | None = None) -> Dataset:
    """Read a complete wide file back into a dataset.

    Columns map positionally onto ``features`` when given (they must match in
    count); otherwise placeholder specs named after the header are created.
    Each visit's rows are put in (time, values) order.
    """
    visit_index: dict[str, int] = {}
    scan = _Scan(path)
    with open(path, newline="") as fh:
        records = map(tuple, csv.reader(fh))
        header = next(records, None)
        if not header or header[:2] != ("visit_id", "time_min"):
            raise DataError(f"{path}: missing wide-format header")
        d = len(header) - 2
        if features is not None and len(features) != d:
            raise DataError(f"{path}: expected {len(features)} feature columns, found {d}")
        visit, times, values = _convert_blocks(
            records,
            d + 2,
            # blank lines after the header are skipped
            lambda block, _: list(map(bool, block)),
            (np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, d))),
            lambda rows: _wide_block(scan, rows, d, visit_index),
            scan,
            lineno=2,
        )
    scan.raise_first()
    if not visit_index:
        raise DataError(f"{path}: no records")
    order = np.lexsort((*values.T[::-1], times, visit))
    starts = np.concatenate(([0], np.cumsum(np.bincount(visit, minlength=len(visit_index)))))
    specs = features or [FeatureSpec(k, f"f_{k}", "other") for k in range(d)]
    return Dataset.from_stacked(specs, list(visit_index), times[order], values[order], starts)


def emit_mask_csv(dataset: Dataset, mask: MaskSet, path) -> None:
    rows, cols = dataset.rows(mask.cells())
    _emit_cells(path, dataset, rows, cols, mask.truth, "truth")


def _event_finder(dataset: Dataset):
    """A function giving the stacked row of each (visit, time) pair, -1 where none.

    Rows are keyed by visit and the rank of their time among all event
    times. Each call ranks the wanted times the same way, then finds every
    pair with one ``searchsorted`` over the keyed rows. Where a visit
    repeats a time, the last such event answers.
    """
    known_times = np.unique(dataset.times)
    keys = dataset.visit_of_row * known_times.size + np.searchsorted(known_times, dataset.times)
    by_key = np.argsort(keys, kind="stable")

    def rows_of(visit: np.ndarray, times: np.ndarray) -> np.ndarray:
        rank = np.searchsorted(known_times, times)
        known = rank < known_times.size
        known[known] = known_times[rank[known]] == times[known]
        wanted = visit * known_times.size + rank
        at = np.searchsorted(keys, wanted, side="right", sorter=by_key) - 1
        found = known & (at >= 0)
        found[found] = keys[by_key[at[found]]] == wanted[found]
        rows = np.full(times.shape, -1)
        rows[found] = by_key[at[found]]
        return rows

    return rows_of


def _mask_block(scan: _Scan, rows, dataset: Dataset, visit_index, feat_index, event_rows):
    """(visit, event, feature, truth) arrays of one block's records before any failure."""
    scan.fail(_field_counts(rows) != 4, lambda j: "expected 4 fields")
    visit_s, time_s, feat_s, truth_s = _columns(rows[: scan.n], 4, strip=True)
    visit = _codes(visit_s, visit_index)
    scan.fail(visit < 0, lambda j: f"unknown visit {visit_s[j]!r}")
    feature = _codes(feat_s[: scan.n], feat_index)
    scan.fail(feature < 0, lambda j: f"unknown feature {feat_s[j]!r}")
    times = scan.convert(time_s, int, np.int64, lambda j: "malformed row")
    truth = scan.convert(truth_s, float, float, lambda j: "malformed row")
    n = scan.n
    rows_at = event_rows(visit[:n], times[:n])
    scan.fail(rows_at < 0, lambda j: f"no event at time {times[j]} in {visit_s[j]!r}")
    n = scan.n
    return visit[:n], rows_at[:n] - dataset.starts[visit[:n]], feature[:n], truth[:n]


def read_mask_csv(path, dataset: Dataset, strategy="external", rate=None, seed=0) -> MaskSet:
    """Resolve mask rows against ``dataset`` (typically the masked input).

    The file does not record how it was produced, so the default provenance
    is the placeholder ``external`` with rate NA and seed 0.
    """
    visit_index = {vid: i for i, vid in enumerate(dataset.visit_ids)}
    feat_index = {s.name: s.id for s in dataset.features}
    event_rows = _event_finder(dataset)
    scan = _Scan(path)
    empty = np.empty(0, np.int64)
    with open(path, newline="") as fh:
        visit, event, feature, truth = _convert_blocks(
            map(tuple, csv.reader(fh)),
            4,
            # blank lines and header lines (anywhere) are skipped
            lambda block, _: [bool(r) and r[0] != "visit_id" for r in block],
            (empty, empty, empty, np.empty(0)),
            lambda rows: _mask_block(scan, rows, dataset, visit_index, feat_index, event_rows),
            scan,
        )
    scan.raise_first()
    return MaskSet.from_arrays(
        visit, event, feature, truth, strategy=strategy, rate=rate, seed=seed
    )


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
        kind = key.removeprefix("ecf_window_")
        if kind != key and kind in FEATURE_KINDS:
            values["ecf_windows"][kind] = int(value)
            continue
        # a file spells the windows as ecf_window_<kind> keys, never as one value
        if key not in known or key == "ecf_windows":
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
