//! The scenario-matrix contract, checked registry-wide instead of against a
//! hardcoded twin table: every derived cell mirrors its baseline along exactly
//! its declared variant axis, every pairing resolves, and every explicit tag
//! round-trips through the report JSON header.

use overlay_networks::scenarios::{registry, Json, Scenario, ServeSpec, Sweep, VariantAxis};

fn assert_mirrors_baseline(base: &Scenario, twin: &Scenario) {
    let axis = twin
        .axis
        .unwrap_or_else(|| panic!("{} declares a baseline but no axis", twin.name));
    // Per-axis rule: the twin moves along its declared axis and nothing else.
    match axis {
        VariantAxis::Transport => {
            assert!(
                base.transport.is_none() && twin.transport.is_some(),
                "{}",
                twin.name
            );
            assert_eq!(base.n, twin.n, "{}", twin.name);
            assert_eq!(
                base.round_budget.as_percent(),
                twin.round_budget.as_percent(),
                "{}: a transport twin may add flat slack, never a multiplier",
                twin.name
            );
        }
        VariantAxis::Maintenance => {
            let b = base.serve.unwrap_or_else(|| {
                panic!("{}: maintenance baseline without serve spec", base.name)
            });
            let t = twin
                .serve
                .unwrap_or_else(|| panic!("{}: maintenance twin without serve spec", twin.name));
            assert!(
                !b.reinvite && t.reinvite,
                "{}: a maintenance twin switches re-invitation off→on",
                twin.name
            );
            assert_eq!(
                ServeSpec {
                    reinvite: false,
                    ..t
                },
                b,
                "{}: serve specs differ beyond re-invitation",
                twin.name
            );
            assert_eq!(base.n, twin.n, "{}", twin.name);
            assert_eq!(base.transport, twin.transport, "{}", twin.name);
            assert_eq!(base.round_budget, twin.round_budget, "{}", twin.name);
        }
        VariantAxis::Traffic => {
            assert!(
                base.traffic.is_some() && twin.traffic.is_some(),
                "{}: a traffic twin varies one traffic spec against another",
                twin.name
            );
            assert_ne!(base.traffic, twin.traffic, "{}", twin.name);
            assert_eq!(base.n, twin.n, "{}", twin.name);
            assert_eq!(base.transport, twin.transport, "{}", twin.name);
            assert_eq!(base.round_budget, twin.round_budget, "{}", twin.name);
            assert_eq!(base.serve, twin.serve, "{}", twin.name);
        }
        VariantAxis::Phases => {
            assert!(!twin.phases.is_empty(), "{}", twin.name);
            assert_ne!(base.phases, twin.phases, "{}", twin.name);
            assert_eq!(base.n, twin.n, "{}", twin.name);
            assert_eq!(base.transport, twin.transport, "{}", twin.name);
            assert_eq!(base.round_budget, twin.round_budget, "{}", twin.name);
        }
    }
    // Axes shared by every kind: the experiment itself is the baseline's.
    assert_eq!(base.family, twin.family, "{}", twin.name);
    assert_eq!(base.faults, twin.faults, "{}", twin.name);
    if axis != VariantAxis::Traffic {
        assert_eq!(
            base.traffic, twin.traffic,
            "{}: only a traffic twin may vary the workload",
            twin.name
        );
    }
}

/// Registry-wide generalization of the old hardcoded
/// `reliable_twins_mirror_their_baselines` table: *every* scenario that declares
/// a baseline resolves and differs only along its declared axis.
#[test]
fn every_derived_cell_mirrors_its_baseline_along_its_axis() {
    let reg = registry();
    let mut derived = 0;
    for twin in reg {
        let Some(baseline) = &twin.baseline else {
            assert!(twin.axis.is_none(), "{}: axis without baseline", twin.name);
            continue;
        };
        let base = reg
            .find(baseline)
            .unwrap_or_else(|| panic!("{}: baseline {baseline:?} dangling", twin.name));
        assert_mirrors_baseline(base, twin);
        derived += 1;
    }
    assert!(
        derived >= 17,
        "expected the 6 reliable twins and the 11 other derived matrix cells; saw {derived}"
    );
}

/// All six historical reliable twins are still registered, still paired with
/// their historical baselines — now as data, not a test table.
#[test]
fn historical_reliable_twins_stay_paired() {
    let expected = [
        ("lossy-ncc0-reliable", "lossy-ncc0"),
        ("lossy-ncc0-heavy-reliable", "lossy-ncc0-heavy"),
        ("delay-jitter-reliable", "delay-jitter"),
        ("partition-heal-reliable", "partition-heal"),
        ("crash-ncc0-reliable", "mid-build-crash-wave"),
        ("join-churn-reliable", "join-churn"),
    ];
    let reg = registry();
    for (twin, baseline) in expected {
        let s = reg.find(twin).expect("twin registered");
        assert_eq!(s.baseline.as_deref(), Some(baseline), "{twin}");
        assert!(reg
            .pairs()
            .any(|(b, t)| b.name == baseline && t.name == twin));
    }
}

fn header_tags(report: &Json) -> Option<Vec<String>> {
    let Json::Obj(fields) = report else {
        panic!("report must be an object")
    };
    let (_, value) = fields.iter().find(|(k, _)| k == "tags")?;
    let Json::Arr(items) = value else {
        panic!("tags must be an array")
    };
    Some(
        items
            .iter()
            .map(|t| match t {
                Json::Str(s) => s.clone(),
                other => panic!("tag must be a string, got {other:?}"),
            })
            .collect(),
    )
}

/// Every explicit tag survives the render→parse round trip through the report
/// JSON header, and untagged scenarios keep their historical tag-free header
/// (which is what holds the pre-matrix committed baselines byte-identical).
#[test]
fn explicit_tags_round_trip_through_the_report_header() {
    let mut tagged = 0;
    for scenario in registry() {
        let expect_tags = scenario.tags.clone();
        let rendered = Sweep::over_seeds(scenario.clone(), 0, 1)
            .run()
            .to_json_string();
        let parsed = Json::parse(&rendered).expect("report parses");
        match header_tags(&parsed) {
            Some(tags) => {
                assert_eq!(tags, expect_tags, "{}", scenario.name);
                tagged += 1;
            }
            None => assert!(
                expect_tags.is_empty(),
                "{}: tags missing from the header",
                scenario.name
            ),
        }
    }
    assert!(tagged >= 5, "only {tagged} tagged scenarios in the matrix");
}
