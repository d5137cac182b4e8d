"""Command-line pipeline: synth, mask, impute, evaluate, bench.

Exit codes: 0 on success, 1 on usage/config errors, 2 on data errors.
Config files hold ``key = value`` lines; command-line flags override them.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import io_formats
from .config import CTP_TRUNCATE_MODES, Config, ConfigError
from .data_model import DataError, apply_mask, restore_mask
from .evaluation import (
    mask_one_per_feature_visit,
    mask_random,
    nrmse,
    run_experiment,
)
from .methods import impute
from .synthetic import SynthConfig, generate

CLI_METHODS = {
    "tadualcv": "ta_dualcv",
    "tadualcv-noC": "ta_dualcv_noC",
    "tadualcv-noI": "ta_dualcv_noI",
    "3dmice": "three_d_mice",
    "mice": "mice_only",
    "meanfill": "mean_fill",
    "ecf": "ecf",
}


def _build_config(args) -> Config:
    """The config file's settings (or the defaults), then the flags given on top."""
    config = io_formats.load_config(args.config) if args.config else Config()
    # a Config field with no flag of its own is set only by the config file
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(Config)
        if getattr(args, f.name, None) is not None
    }
    return replace(config, **overrides)


def _add_config_flags(parser):
    parser.add_argument("--config", help="config file of key = value lines")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--chains", type=int, help="chained-equation chain count")
    parser.add_argument("--iterations", type=int, help="Gibbs sweeps per chain")
    parser.add_argument("--w1", type=float, help="weight on the feature-perspective view")
    parser.add_argument("--w2", type=float, help="weight on the temporal-perspective view")
    parser.add_argument(
        "--ctp-truncate",
        dest="ctp_truncate",
        choices=CTP_TRUNCATE_MODES,
        help="which end of over-long visits feeds the temporal view",
    )


def _parse_rates(text: str) -> list[float]:
    rates = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        value = float(token)
        if value > 1.0:
            value /= 100.0
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"rate {token!r} out of range")
        rates.append(value)
    if not rates:
        raise ConfigError("no rates given")
    return rates


def cmd_synth(args) -> int:
    config = SynthConfig(
        n_visits=args.visits,
        n_features=args.features,
        events_per_visit=(args.events_min, args.events_max),
        noise_scale=args.noise,
        native_missing_rate=args.missing_rate,
        seed=args.seed if args.seed is not None else 0,
    )
    dataset, _ = generate(config)
    io_formats.emit_long_csv(dataset, args.out)
    print(f"wrote {dataset.n_visits} visits x {dataset.n_features} features to {args.out}")
    return 0


def cmd_mask(args) -> int:
    dataset = io_formats.ingest_long_csv(args.data)
    seed = args.seed if args.seed is not None else 0
    if args.one_per_feature:
        mask = mask_one_per_feature_visit(dataset, seed)
    else:
        mask = mask_random(dataset, args.rate, seed)
    masked = apply_mask(dataset, mask)
    io_formats.emit_long_csv(masked, args.out)
    io_formats.emit_mask_csv(dataset, mask, args.mask_out)
    print(f"masked {len(mask)} cells; data -> {args.out}, truths -> {args.mask_out}")
    return 0


def cmd_impute(args) -> int:
    features = io_formats.read_feature_manifest(args.features) if args.features else None
    dataset = io_formats.ingest_long_csv(args.data, features)
    config = _build_config(args)
    variant = CLI_METHODS[args.method]
    output = impute(dataset, variant, config)

    out = Path(args.out)
    std_out = Path(args.std_out) if args.std_out else out.with_suffix(".std.csv")
    mi_out = Path(args.mi_out) if args.mi_out else out.with_suffix(".mi.csv")
    io_formats.emit_wide_csv(output.dataset, out)
    io_formats.emit_std_csv(output.dataset, output.stds, std_out)
    io_formats.emit_mi_csv(dataset, mi_out)
    print(f"imputed with {args.method}; values -> {out}, stds -> {std_out}, MI -> {mi_out}")
    return 0


def cmd_evaluate(args) -> int:
    masked = io_formats.ingest_long_csv(args.masked)
    mask = io_formats.read_mask_csv(args.truth_mask, masked)
    imputed = io_formats.read_wide_csv(args.imputed, features=list(masked.features))
    if imputed.visit_ids != masked.visit_ids or not (
        np.array_equal(imputed.starts, masked.starts)
        and np.array_equal(imputed.times, masked.times)
    ):
        raise DataError("imputed file does not align with the masked input")
    premask = restore_mask(masked, mask)
    report = nrmse(mask, imputed, premask, variant=args.method or "unknown")
    text = io_formats.render_report(report, {s.id: s.name for s in masked.features})
    if args.out:
        Path(args.out).write_text(text)
        print(f"report -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _report_name(method: str, rate: float | None, seed: int) -> str:
    """A bench report's file name; ``rate`` is None for one-per-feature-visit masks."""
    tag = "onepfv" if rate is None else f"rate{round(rate * 100):02d}"
    return f"report_{method}_{tag}_seed{seed}.txt"


def cmd_bench(args) -> int:
    config = _build_config(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in CLI_METHODS:
            raise ConfigError(f"unknown method {m!r}")
    variants = [CLI_METHODS[m] for m in methods]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if args.one_per_feature:
        strategies = [("one_per_feature_visit", None)]
    else:
        strategies = [("random_rate", r) for r in _parse_rates(args.rates)]
    out_dir = Path(args.out_dir)
    files = [_report_name(m, r, s) for m in methods for _, r in strategies for s in seeds]
    for i, name in enumerate(files):
        if name in files[:i]:
            raise ConfigError(f"two runs would write the same report {out_dir / name}")

    dataset = io_formats.ingest_long_csv(args.data)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = run_experiment(dataset, variants, strategies, seeds, config)
    names = {s.id: s.name for s in dataset.features}
    back = {v: k for k, v in CLI_METHODS.items()}
    for report in reports:
        name = _report_name(back[report.variant], report.rate, report.seed)
        (out_dir / name).write_text(io_formats.render_report(report, names))
        macro = "NA" if report.macro_nrmse is None else io_formats.fmt(report.macro_nrmse)
        print(f"{name}: macro_nrmse = {macro}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tadualcv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic long CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--visits", type=int, default=50)
    p.add_argument("--features", type=int, default=4)
    p.add_argument("--events-min", type=int, default=6)
    p.add_argument("--events-max", type=int, default=12)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--missing-rate", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mask", help="hide observed cells, keeping their truths")
    p.add_argument("--data", required=True, help="long CSV input")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rate", type=float, help="random mask rate in [0, 1]")
    group.add_argument(
        "--one-per-feature", action="store_true", help="one cell per (visit, feature)"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="masked long CSV")
    p.add_argument("--mask-out", required=True, help="mask CSV of hidden truths")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("impute", help="fill every missing cell")
    p.add_argument("--data", required=True, help="long CSV input")
    p.add_argument("--method", required=True, choices=sorted(CLI_METHODS))
    p.add_argument("--features", help="feature manifest CSV (name,kind)")
    p.add_argument("--out", required=True, help="imputed wide CSV")
    p.add_argument("--std-out", help="per-cell std wide CSV (default: <out>.std.csv)")
    p.add_argument("--mi-out", help="missing-indicator wide CSV (default: <out>.mi.csv)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("evaluate", help="score an imputed file against masked truths")
    p.add_argument("--truth-mask", required=True, help="mask CSV from `mask`")
    p.add_argument("--imputed", required=True, help="wide CSV from `impute`")
    p.add_argument("--masked", required=True, help="the masked long CSV the imputer saw")
    p.add_argument("--method", help="method label recorded in the report")
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="mask/impute/evaluate over a rate grid")
    p.add_argument("--data", required=True, help="long CSV input")
    p.add_argument("--rates", default="20,50,60,70,80,90", help="percentages or fractions")
    p.add_argument(
        "--one-per-feature", action="store_true", help="use the one-per-feature protocol"
    )
    p.add_argument("--methods", default="tadualcv,mice,meanfill")
    p.add_argument("--seeds", default="0")
    p.add_argument("--out-dir", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
