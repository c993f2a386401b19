//! Output checks. Every check has a kind (per-window conservation, the
//! oracle comparison, ...), and `ok_share` is the share of kinds whose
//! checks all passed. A kind checked once per run weighs as much as one
//! checked every window, so any failing kind lowers `ok_share` by a
//! whole kind's share. A run whose share is below 1 reports
//! `correct: false`.

use geo2c_serve::{Counters, EngineState};
use std::collections::BTreeMap;

/// Checks run and passed, by kind, with the first few failures kept for
/// the error stream.
#[derive(Debug, Default)]
pub struct Checks {
    /// Kind → (passed, total).
    kinds: BTreeMap<String, (u64, u64)>,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check of `kind`; `what` describes it if it fails.
    pub fn check(&mut self, kind: &str, ok: bool, what: impl FnOnce() -> String) {
        let counts = match self.kinds.get_mut(kind) {
            Some(counts) => counts,
            None => self.kinds.entry(kind.to_string()).or_default(),
        };
        counts.1 += 1;
        if ok {
            counts.0 += 1;
        } else if self.failures.len() < 8 {
            self.failures.push(format!("{kind}: {}", what()));
        }
    }

    /// Checks run, of every kind.
    pub fn total(&self) -> u64 {
        self.kinds.values().map(|&(_, total)| total).sum()
    }

    /// Kinds of check run.
    pub fn kinds(&self) -> usize {
        self.kinds.len()
    }

    /// Share of kinds whose every check passed (0 if none ran: no
    /// evidence is a fail).
    pub fn ok_share(&self) -> f64 {
        if self.kinds.is_empty() {
            return 0.0;
        }
        let clean = self
            .kinds
            .values()
            .filter(|&&(passed, total)| passed == total)
            .count();
        clean as f64 / self.kinds.len() as f64
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Session conservation: every admitted session is in service, departed
/// or evicted, so the live loads sum to `arrivals − departed − shed − evicted`.
pub fn conserved(c: &Counters, live_sum: u64) -> bool {
    c.departed
        .checked_add(c.shed)
        .and_then(|exits| exits.checked_add(c.evicted))
        .and_then(|exits| c.arrivals.checked_sub(exits))
        == Some(live_sum)
}

/// Sum of the live (non-failed) loads of a state image.
pub fn live_sum(state: &EngineState) -> u64 {
    state
        .loads
        .iter()
        .zip(&state.failed)
        .filter(|&(_, &down)| !down)
        .map(|(&load, _)| u64::from(load))
        .sum()
}

/// The checks a final serving state must pass: it conserves sessions,
/// holds one departure entry per in-service session, and equals the
/// reference run of the same stream.
pub fn final_state(checks: &mut Checks, got: &EngineState, reference: &EngineState, label: &str) {
    let live = live_sum(got);
    checks.check(
        &format!("{label}: conservation"),
        conserved(&got.counters, live),
        || "final state breaks session conservation".into(),
    );
    checks.check(
        &format!("{label}: departure entries"),
        got.departures.len() as u64 == live,
        || "departure entries != in-service sessions".into(),
    );
    checks.check(&format!("{label}: equality"), got == reference, || {
        "state differs from the reference run".into()
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo2c_core::space::RingSpace;
    use geo2c_core::strategy::Strategy;
    use geo2c_serve::{HeapQueue, ServeConfig, ServeEngine, SessionLife};
    use geo2c_util::rng::Xoshiro256pp;

    fn run_pair() -> (EngineState, EngineState) {
        let space = RingSpace::random(256, &mut Xoshiro256pp::from_u64(3));
        let config = ServeConfig {
            strategy: Strategy::two_choice(),
            capacity: Some(3),
            life: SessionLife::Exponential { mean: 64.0 },
            retries: 2,
        };
        let mut wheel = ServeEngine::new(space.clone(), config, 9);
        let mut heap =
            ServeEngine::<_, Vec<u32>, HeapQueue>::with_scheduler(space, config, 9, vec![0; 256]);
        wheel.run(5_000);
        heap.run(5_000);
        (wheel.state(), heap.state())
    }

    #[test]
    fn matching_states_pass_every_check() {
        let (got, reference) = run_pair();
        let mut checks = Checks::default();
        final_state(&mut checks, &got, &reference, "clean");
        assert_eq!(checks.ok_share(), 1.0, "{:?}", checks.failures());
    }

    #[test]
    fn a_corrupted_state_drives_ok_share_below_one() {
        let (mut got, reference) = run_pair();
        let server = got.loads.iter().position(|&l| l > 0).expect("some load");
        got.loads[server] += 1; // books a session that never arrived
        let mut checks = Checks::default();
        final_state(&mut checks, &got, &reference, "corrupt");
        assert!(checks.ok_share() < 1.0);
        assert_eq!(checks.failures().len(), 3, "{:?}", checks.failures());
    }

    #[test]
    fn one_failed_check_among_many_passing_costs_a_whole_kind() {
        let (got, reference) = run_pair();
        let mut checks = Checks::default();
        for window in 0..10_000 {
            checks.check("window conservation", true, || format!("window {window}"));
        }
        let mut wrong = reference.clone();
        wrong.counters.arrivals += 1;
        final_state(&mut checks, &got, &wrong, "oracle");
        // Four kinds (window conservation and the oracle's conservation,
        // departure entries and equality); only the single equality
        // check fails, yet it costs a quarter.
        assert_eq!(checks.kinds(), 4);
        assert_eq!(checks.total(), 10_003);
        assert_eq!(checks.ok_share(), 0.75, "{:?}", checks.failures());
    }

    #[test]
    fn no_checks_is_not_a_pass() {
        assert_eq!(Checks::default().ok_share(), 0.0);
    }
}
