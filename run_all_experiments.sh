#!/bin/bash
# Regenerates every table and figure of the FACTION paper.
# Published results in results/ were produced with the seed counts below
# (reduced from the paper's 5 for single-core wall-clock); every harness
# accepts --seeds 5 to run the full protocol.
#
# Each harness fans its (strategy × seed) grid out over the faction-engine
# pool. JOBS controls the worker count (default: all cores);
# results are byte-identical for every value, so JOBS only changes
# wall-clock. Run `JOBS=1 ./run_all_experiments.sh` for the historical
# sequential execution.
#
# POOL_POLICY selects labeled-pool retention (unbounded | window:N |
# reservoir:N[:SEED]). The explicit default `unbounded` is the paper
# protocol and leaves every published figure unchanged; bounded policies
# cap per-round cost for long streams (DESIGN.md §11).
set -x
cd "$(dirname "$0")"
B=./target/release
JOBS="${JOBS:-$(nproc)}"
POOL_POLICY="${POOL_POLICY:-unbounded}"
$B/table1_nysf --seeds 5 --jobs "$JOBS" --pool-policy "$POOL_POLICY"                  && echo DONE:table1
$B/fig2_curves --seeds 2 --jobs "$JOBS" --pool-policy "$POOL_POLICY"                  && echo DONE:fig2
$B/fig4_ablation --seeds 2 --jobs "$JOBS" --pool-policy "$POOL_POLICY"                && echo DONE:fig4
$B/fig5_runtime fair --seeds 2 --jobs "$JOBS" --pool-policy "$POOL_POLICY"            && echo DONE:fig5a
$B/fig5_runtime ablation --seeds 2 --jobs "$JOBS" --pool-policy "$POOL_POLICY"        && echo DONE:fig5b
$B/fig6_wide --seeds 2 --jobs "$JOBS" --pool-policy "$POOL_POLICY"                    && echo DONE:fig6
$B/theory_bounds --seeds 3                               && echo DONE:theory
$B/fig3_tradeoff --dataset NYSF --seeds 2 --jobs "$JOBS" --pool-policy "$POOL_POLICY" && echo DONE:fig3
echo ALL_EXPERIMENTS_COMPLETE
