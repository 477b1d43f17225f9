//! Property-based tests (proptest) over the core DP invariants.

use proptest::prelude::*;

use dprovdb::core::synopsis_manager::SynopsisManager;
use dprovdb::engine::datagen::adult::adult_database;
use dprovdb::engine::synopsis::Synopsis;
use dprovdb::engine::view::ViewDef;

use dprovdb::core::analyst::{AnalystId, AnalystRegistry};
use dprovdb::core::config::{AnalystConstraintSpec, SystemConfig};
use dprovdb::core::mechanism::MechanismKind;
use dprovdb::core::processor::{QueryOutcome, SubmissionMode};
use dprovdb::core::system::DProvDb;
use dprovdb::dp::budget::{Budget, Delta, Epsilon};
use dprovdb::dp::math::monotone_binary_search;
use dprovdb::dp::mechanism::{
    additive_gaussian_release, analytic_gaussian_delta, analytic_gaussian_sigma,
};
use dprovdb::dp::rng::DpRng;
use dprovdb::dp::sensitivity::Sensitivity;
use dprovdb::dp::translation::{translate_variance_to_epsilon, FrictionAwareTranslation};
use dprovdb::dp::DpError;
use dprovdb::engine::catalog::ViewCatalog;
use dprovdb::engine::schema::{Attribute, AttributeType, Schema};
use dprovdb::engine::table::Table;
use dprovdb::engine::value::Value;
use dprovdb::engine::view::{flat_index, MultiIndexIter};

/// Definition 9 read literally, the reference for the direct search: the
/// same monotone search on ε, with the predicate "the σ calibrated for ε
/// has σ² <= target", so every step runs a σ bisection.
fn nested_translation_epsilon(
    target: f64,
    delta: f64,
    sens: f64,
    max_eps: f64,
    precision: f64,
) -> Option<f64> {
    let lo = (precision / 100.0).min(1e-6);
    monotone_binary_search(
        |eps| analytic_gaussian_sigma(eps, delta, sens).is_ok_and(|s| s * s <= target),
        lo,
        max_eps,
        precision,
    )
}

const SENSITIVITIES: [f64; 4] = [1.0, std::f64::consts::SQRT_2, 2.0, 8.0];
const PRECISIONS: [f64; 3] = [1e-4, 1e-5, 1e-6];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The direct ε search (σ fixed at √target, profile evaluated once per
    /// step) returns the nested search's ε bit for bit, and its release σ
    /// is both (ε, δ)-DP and within the target with no slack — for the
    /// vanilla and the friction-aware translation alike.
    #[test]
    fn direct_translation_equals_the_nested_search_and_is_safe(
        log_target in (0.5f64).log10()..6.0,
        delta_exp in 5.0f64..13.0,
        sens_idx in 0usize..4,
        precision_idx in 0usize..3,
        existing_factor in 1.05f64..20.0,
    ) {
        let target = 10f64.powf(log_target);
        let delta = 10f64.powf(-delta_exp);
        let sens = SENSITIVITIES[sens_idx];
        let precision = PRECISIONS[precision_idx];
        let max_eps = 50.0;
        let d = Delta::new(delta).unwrap();
        let s = Sensitivity::new(sens).unwrap();
        let direct = translate_variance_to_epsilon(
            target, d, s, Epsilon::new(max_eps).unwrap(), precision,
        );
        let nested = nested_translation_epsilon(target, delta, sens, max_eps, precision);
        match (&direct, nested) {
            (Ok(t), Some(nested)) => {
                prop_assert_eq!(t.epsilon.value().to_bits(), nested.to_bits());
                prop_assert!(t.achieved_variance <= target);
                prop_assert!(analytic_gaussian_delta(t.sigma, sens, t.epsilon.value()) <= delta);
            }
            // Out of reach within ψ_P for both searches alike.
            (Err(DpError::TranslationOutOfRange { .. }), None) => {}
            _ => prop_assert!(false, "direct {:?} but nested {:?}", direct, nested),
        }

        let translator = FrictionAwareTranslation { delta: d, sensitivity: s, precision };
        match translator.translate(
            target,
            Some(target * existing_factor),
            Epsilon::new(max_eps).unwrap(),
        ) {
            Ok(friction) => {
                prop_assert!(friction.achieved_variance <= friction.target_variance);
                prop_assert!(
                    analytic_gaussian_delta(friction.sigma, sens, friction.epsilon.value())
                        <= delta
                );
            }
            Err(e) => prop_assert!(
                matches!(e, DpError::TranslationOutOfRange { .. }),
                "friction-aware translation failed: {:?}",
                e
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The analytic-Gaussian calibration is tight: the calibrated sigma
    /// satisfies the privacy profile, and a 1% smaller sigma violates it.
    #[test]
    fn analytic_calibration_is_tight(
        eps in 0.05f64..8.0,
        delta_exp in 5i32..13,
        sens in 0.5f64..4.0,
    ) {
        let delta = 10f64.powi(-delta_exp);
        let sigma = analytic_gaussian_sigma(eps, delta, sens).unwrap();
        prop_assert!(analytic_gaussian_delta(sigma, sens, eps) <= delta * (1.0 + 1e-6));
        prop_assert!(analytic_gaussian_delta(sigma * 0.99, sens, eps) > delta);
    }

    /// Calibrated sigma is monotone: more budget (larger eps or delta) never
    /// needs more noise.
    #[test]
    fn calibration_is_monotone_in_epsilon(
        eps in 0.05f64..4.0,
        bump in 0.01f64..2.0,
    ) {
        let s1 = analytic_gaussian_sigma(eps, 1e-9, 1.0).unwrap();
        let s2 = analytic_gaussian_sigma(eps + bump, 1e-9, 1.0).unwrap();
        prop_assert!(s2 <= s1 + 1e-9);
    }

    /// Accuracy→privacy translation always delivers at least the requested
    /// accuracy, and the result is monotone in the target.
    #[test]
    fn translation_meets_accuracy_and_is_monotone(
        target in 0.5f64..1e6,
        factor in 1.1f64..10.0,
    ) {
        let delta = Delta::new(1e-9).unwrap();
        let max_eps = Epsilon::new(50.0).unwrap();
        let tight = translate_variance_to_epsilon(
            target, delta, Sensitivity::histogram_bounded(), max_eps, 1e-5,
        ).unwrap();
        prop_assert!(tight.achieved_variance <= target * (1.0 + 1e-9));

        let loose = translate_variance_to_epsilon(
            target * factor, delta, Sensitivity::histogram_bounded(), max_eps, 1e-5,
        ).unwrap();
        prop_assert!(loose.epsilon.value() <= tight.epsilon.value() + 1e-5);
    }

    /// The friction-aware translation never asks for more budget than the
    /// vanilla translation, and its combination always meets the requested
    /// accuracy (Eq. 3).
    #[test]
    fn friction_aware_translation_is_never_worse(
        target in 1.0f64..10_000.0,
        existing_factor in 1.05f64..20.0,
    ) {
        let delta = Delta::new(1e-9).unwrap();
        let max_eps = Epsilon::new(50.0).unwrap();
        let existing = target * existing_factor;
        let translator = FrictionAwareTranslation::new(delta, Sensitivity::histogram_bounded());
        let friction = translator.translate(target, Some(existing), max_eps).unwrap();
        let vanilla = translator.translate(target, None, max_eps).unwrap();
        prop_assert!(friction.epsilon.value() <= vanilla.epsilon.value() + 1e-6);
        let w = friction.combination_weight;
        let combined = w * w * existing + (1.0 - w) * (1.0 - w) * friction.achieved_variance;
        prop_assert!(combined <= target * (1.0 + 1e-6));
    }

    /// The additive Gaussian release charges each recipient its own budget
    /// and noisier answers go to smaller budgets (Algorithm 3 ordering).
    #[test]
    fn additive_release_orders_noise_by_budget(
        eps in proptest::collection::vec(0.05f64..3.0, 2..6),
        seed in 0u64..1_000,
    ) {
        let budgets: Vec<Budget> = eps.iter().map(|&e| Budget::new(e, 1e-9).unwrap()).collect();
        let mut rng = DpRng::seed_from_u64(seed);
        let truth = vec![500.0; 32];
        let releases =
            additive_gaussian_release(&truth, Sensitivity::COUNT, &budgets, &mut rng).unwrap();
        prop_assert_eq!(releases.len(), budgets.len());
        for (i, r) in releases.iter().enumerate() {
            prop_assert_eq!(r.recipient, i);
            let expected =
                analytic_gaussian_sigma(eps[i], 1e-9, 1.0).unwrap();
            prop_assert!((r.sigma - expected).abs() < 1e-9);
        }
        // Pairwise: a strictly larger epsilon never gets a larger sigma.
        for i in 0..releases.len() {
            for j in 0..releases.len() {
                if eps[i] > eps[j] {
                    prop_assert!(releases[i].sigma <= releases[j].sigma + 1e-12);
                }
            }
        }
    }

    /// Budget composition is commutative and monotone.
    #[test]
    fn budget_composition_properties(
        e1 in 0.0f64..5.0, e2 in 0.0f64..5.0,
        d1 in 0.0f64..1e-6, d2 in 0.0f64..1e-6,
    ) {
        let a = Budget::new(e1, d1).unwrap();
        let b = Budget::new(e2, d2).unwrap();
        prop_assert_eq!(a.compose(b), b.compose(a));
        prop_assert!(a.compose(b).covers(a));
        prop_assert!(a.compose(b).covers(b));
        prop_assert!(a.compose(b).covers(a.pointwise_max(b)));
    }

    /// Flat indexing is a bijection between multi-indices and 0..N.
    #[test]
    fn flat_index_is_a_bijection(dims in proptest::collection::vec(1usize..6, 1..4)) {
        let total: usize = dims.iter().product();
        let mut seen = vec![false; total];
        for cell in MultiIndexIter::new(&dims) {
            let idx = flat_index(&dims, &cell);
            prop_assert!(idx < total);
            prop_assert!(!seen[idx], "duplicate flat index {}", idx);
            seen[idx] = true;
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// The inverse-variance (UMVUE, Eq. 2) combination of two unbiased
    /// synopses is at least as accurate as either input: with the optimal
    /// weight the merged per-bin variance equals the harmonic combination
    /// `(1/v_a + 1/v_b)^{-1}`, which is ≤ min(v_a, v_b).
    #[test]
    fn umvue_combination_beats_both_inputs(
        v_a in 1.0f64..1e6,
        v_b in 1.0f64..1e6,
    ) {
        let counts = vec![100.0; 16];
        let a = Synopsis::new("v", counts.clone(), v_a);
        let b = Synopsis::new("v", counts, v_b);
        let w = a.optimal_combination_weight(v_b);
        prop_assert!((0.0..=1.0).contains(&w));
        let merged = a.combine(&b, w);
        let harmonic = 1.0 / (1.0 / v_a + 1.0 / v_b);
        prop_assert!((merged.per_bin_variance - harmonic).abs() <= harmonic * 1e-9);
        prop_assert!(merged.per_bin_variance <= v_a.min(v_b) * (1.0 + 1e-9));
    }

    /// Table insertion round-trips every in-domain value.
    #[test]
    fn table_insert_round_trips(values in proptest::collection::vec(17i64..=90, 1..50)) {
        let schema = Schema::new(vec![Attribute::new("age", AttributeType::integer(17, 90))]);
        let mut table = Table::new("t", schema);
        for &v in &values {
            table.insert_row(&[Value::Int(v)]).unwrap();
        }
        prop_assert_eq!(table.num_rows(), values.len());
        for (row, &v) in values.iter().enumerate() {
            prop_assert_eq!(table.value_at(row, "age").unwrap(), Value::Int(v));
        }
    }
}

proptest! {
    // Each case materialises a small database, so keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The SynopsisManager's global-synopsis growth (`ensure_global`) obeys
    /// the UMVUE-merge invariants across an arbitrary growth schedule:
    /// the nominal epsilon is monotone non-decreasing, and every merge
    /// leaves the per-bin variance no larger than the *minimum* of its two
    /// inputs (the previous global synopsis and the fresh delta synopsis).
    #[test]
    fn ensure_global_merge_is_monotone_and_umvue_accurate(
        eps_first in 0.1f64..1.5,
        growths in proptest::collection::vec(0.05f64..0.8, 1..5),
        seed in 0u64..1_000,
    ) {
        use dprovdb::dp::budget::Delta;
        use dprovdb::dp::mechanism::analytic_gaussian_sigma;
        use dprovdb::dp::rng::DpRng;

        let db = adult_database(300, 1);
        let mut mgr = SynopsisManager::new(Delta::new(1e-9).unwrap());
        mgr.register_view(&db, &ViewDef::histogram("adult.age", "adult", &["age"]))
            .unwrap();
        let mut rng = DpRng::seed_from_u64(seed);
        let sens = mgr.sensitivity("adult.age").unwrap().value();

        mgr.ensure_global("adult.age", eps_first, &mut rng).unwrap();
        let (mut prev_eps, mut prev_var) =
            mgr.global_state("adult.age").unwrap().unwrap();
        prop_assert_eq!(prev_eps, eps_first);

        for growth in growths {
            let target = prev_eps + growth;
            let spent = mgr.ensure_global("adult.age", target, &mut rng).unwrap();
            prop_assert!((spent - growth).abs() < 1e-9);
            let (eps, var) = mgr.global_state("adult.age").unwrap().unwrap();
            // Epsilon is monotone non-decreasing (exactly the target here).
            prop_assert!(eps >= prev_eps);
            prop_assert!((eps - target).abs() < 1e-12);
            // The merge is a strict accuracy improvement over the previous
            // global synopsis ...
            prop_assert!(var <= prev_var * (1.0 + 1e-9));
            // ... and no worse than the fresh delta synopsis it merged in.
            let sigma_delta = analytic_gaussian_sigma(growth, 1e-9, sens).unwrap();
            let fresh_var = sigma_delta * sigma_delta;
            prop_assert!(var <= fresh_var.min(prev_var) * (1.0 + 1e-9));
            prev_eps = eps;
            prev_var = var;
        }

        // Shrinking the target is free and changes nothing.
        let spent = mgr.ensure_global("adult.age", prev_eps * 0.5, &mut rng).unwrap();
        prop_assert_eq!(spent, 0.0);
        let (eps, var) = mgr.global_state("adult.age").unwrap().unwrap();
        prop_assert_eq!(eps, prev_eps);
        prop_assert_eq!(var, prev_var);
    }
}

/// Every accuracy-mode answer that spent budget (a cache miss) carries at
/// most the variance the analyst asked for, under both mechanisms, across
/// an RRQ stream that mixes first releases, friction-aware growth and
/// rejections.
#[test]
fn accuracy_mode_misses_meet_the_requested_variance() {
    let db = adult_database(2_000, 3);
    let workload = dprovdb::workloads::rrq::generate(
        &db,
        &dprovdb::workloads::rrq::RrqConfig::new("adult", 60, 4),
        3,
    )
    .unwrap();
    for mechanism in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
        let mut registry = AnalystRegistry::new();
        for level in 1..=3 {
            registry.register(&format!("a{level}"), level).unwrap();
        }
        let spec = match mechanism {
            MechanismKind::AdditiveGaussian => AnalystConstraintSpec::MaxNormalized {
                system_max_level: None,
            },
            MechanismKind::Vanilla => AnalystConstraintSpec::ProportionalSum,
        };
        let mut system = DProvDb::new(
            db.clone(),
            ViewCatalog::one_per_attribute(&db, "adult").unwrap(),
            registry,
            SystemConfig::new(6.4)
                .unwrap()
                .with_seed(5)
                .with_analyst_constraints(spec),
            mechanism,
        )
        .unwrap();
        let mut misses = 0;
        for round in 0..60 {
            for (analyst, requests) in workload.per_analyst.iter().enumerate() {
                let Some(request) = requests.get(round) else {
                    continue;
                };
                let SubmissionMode::Accuracy { variance } = request.mode else {
                    panic!("RRQ requests are accuracy-oriented");
                };
                let outcome = system.submit(AnalystId(analyst), request).unwrap();
                if let QueryOutcome::Answered(answer) = outcome {
                    if !answer.from_cache {
                        misses += 1;
                        assert!(
                            answer.noise_variance <= variance,
                            "{mechanism:?}: variance {} above the requested {variance}",
                            answer.noise_variance
                        );
                    }
                }
            }
        }
        assert!(misses >= 20, "{mechanism:?}: only {misses} misses");
    }
}
