#!/usr/bin/env bash
# The whole pipeline as shell commands: synth -> mask -> impute -> evaluate,
# once with random masks and once with one hidden cell per (visit, feature),
# then a bench sweep over the usual rate grid, and a re-run from one bench
# report's [config] block. Run from anywhere; writes into a temporary
# directory that is removed on exit.
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
echo "working in $work"

tadualcv synth --out "$work/data.csv" --visits 30 --features 4 \
    --events-min 6 --events-max 14 --noise 0.05 --missing-rate 0.1 --seed 1

tadualcv mask --data "$work/data.csv" --rate 0.5 --seed 1 \
    --out "$work/masked.csv" --mask-out "$work/mask.csv"

tadualcv impute --data "$work/masked.csv" --method tadualcv \
    --chains 3 --iterations 5 --seed 1 --out "$work/imputed.csv"

tadualcv evaluate --truth-mask "$work/mask.csv" --imputed "$work/imputed.csv" \
    --masked "$work/masked.csv" --method tadualcv --out "$work/report.txt"

echo "--- report ---"
cat "$work/report.txt"

tadualcv mask --data "$work/data.csv" --one-per-feature --seed 1 \
    --out "$work/masked_opf.csv" --mask-out "$work/mask_opf.csv"

tadualcv impute --data "$work/masked_opf.csv" --method tadualcv \
    --chains 3 --iterations 5 --seed 1 --out "$work/imputed_opf.csv"

tadualcv evaluate --truth-mask "$work/mask_opf.csv" --imputed "$work/imputed_opf.csv" \
    --masked "$work/masked_opf.csv" --method tadualcv --out "$work/report_opf.txt"

echo "--- one-per-feature report ---"
cat "$work/report_opf.txt"

tadualcv bench --data "$work/data.csv" --rates 20,50,90 \
    --methods tadualcv,mice,meanfill --seeds 1 \
    --chains 3 --iterations 5 --out-dir "$work/reports"

echo "--- bench reports ---"
ls "$work/reports"

# A report's [config] block is a config file. Bench masked data.csv at rate 50
# with seed 1, as the first mask did, so imputing masked.csv with the block
# reproduces imputed.csv byte for byte.
sed -n '/^\[config\]$/,/^\[per_feature\]$/{//!p}' \
    "$work/reports/report_tadualcv_rate50_seed1.txt" > "$work/rerun.cfg"
echo "--- [config] block of report_tadualcv_rate50_seed1.txt ---"
cat "$work/rerun.cfg"
tadualcv impute --data "$work/masked.csv" --method tadualcv \
    --config "$work/rerun.cfg" --out "$work/rerun.csv"
cmp "$work/imputed.csv" "$work/rerun.csv"
echo "re-run from the report's [config] block matches imputed.csv"
