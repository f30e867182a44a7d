#!/bin/sh
# Regenerate every saved experiment output in results/ (see results/README.md).
# Every binary is deterministic, so CI runs this and diffs results/.
set -e
cd "$(dirname "$0")"
cargo build -q --release -p cartcomm-bench
bin="${CARGO_TARGET_DIR:-target}/release"
"$bin/table1" > results/table1.txt
"$bin/table2" > results/table2.txt
"$bin/fig3" > results/fig3_clean.txt
"$bin/fig3" --quirks > results/fig3_quirks.txt
"$bin/fig4" --quirks > results/fig4_quirks.txt
"$bin/fig5" > results/fig5.txt
"$bin/fig6" > results/fig6.txt
"$bin/fig6" --quirks > results/fig6_quirks.txt
"$bin/fig7" > results/fig7.txt
"$bin/schedule_dump" 2 3 > results/schedule_2d_moore.txt
"$bin/remap_ablation" > results/remap_ablation.txt
echo "results/ regenerated"
