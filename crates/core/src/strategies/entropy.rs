//! Entropy-based Active Learning (paper Sec. V-A2, \[1], \[41]): the classic
//! uncertainty-sampling baseline selecting maximal Shannon entropy.

use faction_linalg::SeedRng;

use crate::selection::AcquisitionMode;
use crate::strategies::{candidate_entropy, SelectionContext, Strategy};

/// Selects the candidates whose predictive distribution has the highest
/// Shannon entropy under the current model.
#[derive(Debug, Clone, Copy, Default)]
pub struct EntropyAl;

impl Strategy for EntropyAl {
    fn name(&self) -> String {
        "Entropy-AL".into()
    }

    fn desirability(&mut self, ctx: &SelectionContext<'_>, _rng: &mut SeedRng) -> Vec<f64> {
        crate::strategies::contain_scores(candidate_entropy(ctx))
    }

    fn mode(&self) -> AcquisitionMode {
        AcquisitionMode::TopK
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::testutil::{check_strategy_contract, Fixture};

    #[test]
    fn satisfies_strategy_contract() {
        check_strategy_contract(&mut EntropyAl, 41);
    }

    #[test]
    fn entropy_scores_are_bounded_by_log_k() {
        let fixture = Fixture::new(42);
        let ctx = fixture.ctx();
        let mut rng = SeedRng::new(0);
        let scores = EntropyAl.desirability(&ctx, &mut rng);
        assert!(scores.iter().all(|&h| (0.0..=2f64.ln() + 1e-9).contains(&h)));
    }

    #[test]
    fn deterministic_given_model() {
        let fixture = Fixture::new(43);
        let ctx = fixture.ctx();
        let mut rng = SeedRng::new(0);
        let a = EntropyAl.desirability(&ctx, &mut rng);
        let b = EntropyAl.desirability(&ctx, &mut rng);
        assert_eq!(a, b);
    }
}
