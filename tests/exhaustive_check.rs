//! End-to-end checks of the exhaustive reachability checker over the
//! composed ITUA models: the symmetry-reduced quotient must account for
//! the full state space exactly (orbit sizes sum to the unreduced
//! count), canonicalization must be invariant under arbitrary
//! domain/host/replica permutations, both of the analytic backend's
//! state-space generators (plain and lumped) must match the explored
//! graphs with their vanishing states eliminated on every shipped
//! study's micro variant, and budget exhaustion must be a structured
//! error, not a hang.

use itua_analyzer::reach::{self, ReachConfig, ReachError};
use itua_core::params::Params;
use itua_core::{analysis, san_model};
use itua_san::marking::PlaceId;
use itua_san::model::San;
use itua_studies::{figure3, figure4, figure5};
use proptest::prelude::*;

fn micro_params() -> Params {
    Params::default().with_domains(1, 2).with_applications(1, 2)
}

/// All place indices whose names start with `prefix`, in insertion
/// order (congruent across template copies — same construction the
/// symmetry-spec builder uses).
fn places_under(san: &San, prefix: &str) -> Vec<usize> {
    (0..san.num_places())
        .filter(|&p| san.place_name(PlaceId::from_index(p)).starts_with(prefix))
        .collect()
}

#[test]
fn quotient_orbit_sizes_sum_to_the_full_state_count() {
    // Two micro shapes with different symmetry content: two
    // interchangeable hosts in one domain, and two interchangeable
    // single-host domains.
    for params in [
        micro_params(),
        Params::default().with_domains(2, 1).with_applications(1, 2),
    ] {
        let model = san_model::build(&params).unwrap();
        let spec = analysis::symmetry_spec(&model);
        let cfg = ReachConfig::with_max_states(200_000);
        let quotient = reach::explore(&model.san, &cfg, Some(&spec), |_, _, _, _, _| {}).unwrap();
        let full = reach::explore(&model.san, &cfg, None, |_, _, _, _, _| {}).unwrap();
        assert!(quotient.num_states() < full.num_states());
        assert_eq!(
            quotient.orbit_total(),
            full.num_states() as u128,
            "orbit sizes must partition the unreduced space exactly"
        );
        assert_eq!(
            quotient.tangible_orbit_total(),
            full.num_tangible() as u128,
            "the partition must respect the tangible/vanishing split"
        );
        // Exact place bounds agree between the two explorations.
        assert_eq!(quotient.place_max, full.place_max);
    }
}

#[test]
fn every_shipped_study_micro_variant_cross_validates_against_statespace() {
    // One representative micro point per shipped figure study: with
    // their vanishing states eliminated, the unreduced and quotient
    // graphs must reproduce the analytic backend's plain and lumped
    // generators (tangible markings, rates and initial mass within
    // 1e-12 relative), and the quotient's orbit sums must account for
    // the unreduced exploration. (CI's `itua check --exhaustive --backend
    // analytic` covers every distinct micro model at release speed.)
    let reps = [
        figure3::micro_points().swap_remove(0),
        figure4::micro_points().swap_remove(0),
        figure5::micro_points().swap_remove(0),
    ];
    for point in reps {
        let model = san_model::build(&point.params).unwrap();
        let report = analysis::exhaustive_check(&model, 200_000)
            .unwrap_or_else(|e| panic!("{} (x = {}): {e}", point.series, point.x));
        assert!(
            !report.has_hard_findings(),
            "{} (x = {}):\n{}",
            point.series,
            point.x,
            report.render()
        );
        assert!((report.states as u128) < report.full_states);
        assert_eq!(report.unreduced.len() as u128, report.full_states);
        assert!(report.generated_transitions > 0);
        assert!(report.max_rel_dev <= reach::RATE_REL_TOL);
    }
}

#[test]
fn state_and_work_budgets_fail_structurally() {
    let model = san_model::build(&micro_params()).unwrap();
    let spec = analysis::symmetry_spec(&model);
    let err = reach::explore(
        &model.san,
        &ReachConfig::with_max_states(10),
        Some(&spec),
        |_, _, _, _, _| {},
    )
    .unwrap_err();
    assert_eq!(err, ReachError::StateBudget { max_states: 10 });
    let tiny_work = ReachConfig {
        max_states: 200_000,
        max_work: 5,
    };
    let err = reach::explore(&model.san, &tiny_work, None, |_, _, _, _, _| {}).unwrap_err();
    assert_eq!(err, ReachError::WorkBudget { max_work: 5 });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Canonicalization is a true orbit invariant: permuting
    /// interchangeable domains, the hosts within each domain, or the
    /// replicas within an application never changes a marking's
    /// canonical form. The config has every symmetry axis at width two,
    /// so four independent swap bits generate the whole group.
    #[test]
    fn canonical_form_is_permutation_invariant(
        raw in prop::collection::vec(0i32..4, 256),
        swap_domains in any::<bool>(),
        swap_hosts_d0 in any::<bool>(),
        swap_hosts_d1 in any::<bool>(),
        swap_replicas in any::<bool>(),
    ) {
        let params = Params::default().with_domains(2, 2).with_applications(1, 2);
        let model = san_model::build(&params).unwrap();
        let san = &model.san;
        let spec = analysis::symmetry_spec(&model);
        let n = san.num_places();
        let original: Vec<i32> = (0..n).map(|i| raw[i % raw.len()]).collect();

        // Apply the chosen group element by swapping corresponding
        // index lists (the stamped templates make them congruent).
        let mut permuted = original.clone();
        let swap_lists = |vals: &mut Vec<i32>, a: &[usize], b: &[usize]| {
            assert_eq!(a.len(), b.len());
            for (&i, &j) in a.iter().zip(b) {
                vals.swap(i, j);
            }
        };
        let host_block = |d: usize, h: usize| {
            places_under(san, &format!("itua/domains[{d}]/hosts[{h}]/host/"))
        };
        let domain_all = |d: usize| {
            let mut v = places_under(san, &format!("itua/domains[{d}]/hosts/"));
            v.extend(host_block(d, 0));
            v.extend(host_block(d, 1));
            v
        };
        if swap_hosts_d0 {
            swap_lists(&mut permuted, &host_block(0, 0), &host_block(0, 1));
        }
        if swap_hosts_d1 {
            swap_lists(&mut permuted, &host_block(1, 0), &host_block(1, 1));
        }
        if swap_domains {
            swap_lists(&mut permuted, &domain_all(0), &domain_all(1));
        }
        if swap_replicas {
            swap_lists(
                &mut permuted,
                &places_under(san, "itua/apps[0]/app/replicas[0]/replica/"),
                &places_under(san, "itua/apps[0]/app/replicas[1]/replica/"),
            );
        }

        let mut canon_original = original.clone();
        spec.canonicalize(&mut canon_original);
        let mut canon_permuted = permuted.clone();
        spec.canonicalize(&mut canon_permuted);
        prop_assert_eq!(&canon_original, &canon_permuted);

        // Orbit size is a function of the orbit, so it agrees too, and
        // canonicalization is idempotent.
        prop_assert_eq!(spec.orbit_size(&original), spec.orbit_size(&permuted));
        let mut twice = canon_original.clone();
        spec.canonicalize(&mut twice);
        prop_assert_eq!(&twice, &canon_original);
    }
}
