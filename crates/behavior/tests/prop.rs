//! Property tests for the generative behavior model.

use behavior::{QueryOrigin, SessionKind, SessionPlanner, Vocabulary};
use geoip::Region;
use model::WorkloadModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A planner over the paper's popularity with smaller day sets.
fn planner() -> SessionPlanner {
    let mut popularity = WorkloadModel::paper_default().popularity;
    for (class, size) in popularity
        .classes
        .iter_mut()
        .zip([300, 280, 60, 20, 3, 3, 2])
    {
        class.daily_size = size;
    }
    let vocab = Vocabulary::build(7, popularity.laws().unwrap());
    SessionPlanner::paper_default(Arc::new(vocab))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn plans_are_well_formed(seed in any::<u64>(), hour in 0u32..24, region_idx in 0usize..4, day in 0usize..3) {
        let p = planner();
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = p.plan(day, hour, Region::ALL[region_idx], &mut rng);

        // Offsets sorted and inside the session.
        let mut prev = simnet::SimDuration::ZERO;
        for q in &plan.queries {
            prop_assert!(q.offset >= prev);
            prop_assert!(q.offset <= plan.duration);
            prev = q.offset;
        }
        // Kind-specific invariants.
        match plan.kind {
            SessionKind::Quick => {
                prop_assert!(plan.duration.as_secs_f64() < 64.0);
                prop_assert_eq!(plan.user_query_count, 0);
            }
            SessionKind::Passive => {
                prop_assert!(plan.queries.is_empty());
                prop_assert!(plan.duration.as_secs_f64() >= 64.0);
                // §4.4 support cap.
                prop_assert!(plan.duration.as_secs_f64() <= 50.0 * 3600.0);
            }
            SessionKind::Active => {
                let users = plan
                    .queries
                    .iter()
                    .filter(|q| q.origin == QueryOrigin::User)
                    .count() as u32;
                prop_assert_eq!(users, plan.user_query_count);
                prop_assert!(users >= 1);
            }
        }
        // SHA1 queries carry a urn and empty text; others carry text.
        for q in &plan.queries {
            if q.origin == QueryOrigin::AutoSha1 {
                prop_assert!(q.text.is_empty());
                prop_assert!(q.sha1.as_deref().unwrap().starts_with("urn:sha1:"));
            } else {
                prop_assert!(q.sha1.is_none());
                prop_assert!(!q.text.is_empty());
            }
        }
    }

    #[test]
    fn plans_are_deterministic(seed in any::<u64>()) {
        let p = planner();
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        prop_assert_eq!(
            p.plan(1, 12, Region::Europe, &mut a),
            p.plan(1, 12, Region::Europe, &mut b)
        );
    }

}
