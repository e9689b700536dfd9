//! Theorem 1 validation: regret, cumulative fairness violation, and query
//! complexity growth under the convex (logistic) instantiation.
//!
//! The paper's Discussion derives, for a stationary environment (`m = 1`):
//! `R = O(√T)` and `V = O(T^¼)`. This harness sweeps the horizon `T`,
//! fits log–log growth exponents over the asymptotic half of each curve,
//! and reports them next to the theoretical ceilings. It also runs a
//! changing-environment configuration (`m = 4`) to show query complexity
//! re-spiking at every environment boundary.
//!
//! ```text
//! cargo run -p faction-bench --release --bin theory_bounds [-- --quick]
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use faction_bench::{write_output, HarnessOptions};
use faction_core::theory::{mean_curves, TheoryConfig, TheoryCurves};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct TheoryRow {
    environments: usize,
    horizon: usize,
    final_regret: f64,
    final_signed_regret: f64,
    final_violation: f64,
    final_queries: f64,
    regret_exponent: f64,
    violation_exponent: f64,
    query_exponent: f64,
}

fn main() {
    let options = HarnessOptions::from_args();
    let horizons: &[usize] = if options.quick { &[20, 40] } else { &[40, 80, 160, 320] };
    let seeds = if options.quick { 2 } else { options.seeds.max(3) };

    let mut rows = Vec::new();
    let mut text = String::from("Theorem 1 empirical validation (convex logistic instantiation)\n");
    text.push_str(
        "stationary ceilings: regret exponent 0.5 (R = O(√T)), violation exponent 0.25 (V = O(T^¼))\n\n",
    );
    text.push_str(&format!(
        "{:>4} {:>8} {:>12} {:>12} {:>12} {:>10} {:>8} {:>8} {:>8}\n",
        "m", "T", "R(T)", "signed R(T)", "V(T)", "Q(T)", "exp(R)", "exp(V)", "exp(Q)"
    ));
    for &environments in &[1usize, 4] {
        for &horizon in horizons {
            let cfg = TheoryConfig { environments, ..Default::default() };
            let curves = mean_curves(&cfg, horizon, seeds);
            let row = TheoryRow {
                environments,
                horizon,
                final_regret: *curves.cum_regret.last().unwrap_or(&0.0),
                final_signed_regret: *curves.signed_regret.last().unwrap_or(&0.0),
                final_violation: *curves.cum_violation.last().unwrap_or(&0.0),
                final_queries: *curves.cum_queries.last().unwrap_or(&0.0),
                // A clamped curve near 0 means the learner kept pace with
                // or beat the fair comparator (the signed column says by
                // how much); a log–log slope on such a curve is
                // meaningless, so report 0.
                regret_exponent: if curves.cum_regret.last().copied().unwrap_or(0.0) > 0.25 {
                    TheoryCurves::growth_exponent(&curves.cum_regret)
                } else {
                    0.0
                },
                violation_exponent: TheoryCurves::growth_exponent(&curves.cum_violation),
                query_exponent: TheoryCurves::growth_exponent(&curves.cum_queries),
            };
            text.push_str(&format!(
                "{:>4} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>10.0} {:>8.3} {:>8.3} {:>8.3}\n",
                row.environments,
                row.horizon,
                row.final_regret,
                row.final_signed_regret,
                row.final_violation,
                row.final_queries,
                row.regret_exponent,
                row.violation_exponent,
                row.query_exponent
            ));
            eprintln!(
                "theory: m={environments} T={horizon} done (R={:.2}, V={:.2})",
                row.final_regret, row.final_violation
            );
            rows.push(row);
        }
    }
    text.push_str(
        "\ninterpretation: R(T) is the seed mean of each run's regret clamped at zero;\n\
         signed R(T) is the seed mean of the raw sum, negative where the online learner\n\
         beats the fair comparator (which pays for its fairness weight in cross-entropy).\n\
         There the regret bound holds trivially and exp(R) reads 0; it does not measure a\n\
         growth rate. exponents < 1 confirm sublinear growth; the m=4 rows show\n\
         environment changes inflating queries relative to m=1 at equal T, matching the\n\
         per-environment decomposition of Theorem 1.\n",
    );
    write_output(&options, "theory_bounds", &text, &rows);
}
