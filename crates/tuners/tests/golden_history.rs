//! Behaviour pins for the baseline tuners: the FNV-1a hash of each tuner's full sample
//! history (config ids and observed-time bits, in order) and its chosen configuration,
//! plus the report fingerprint of a reduced scenario gauntlet.
//!
//! Any change to a tuner's internals that is meant to be a pure speed-up must leave
//! every constant here unchanged. At budget 200 BLISS's 120-observation fit window
//! slides, so the pins cover both its incremental and its full refactorisation.

use dg_campaign::{Campaign, CampaignSpec, ExperimentScale, ScenarioSpec};
use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
use dg_obs::json::fnv1a;
use dg_tuners::{TunerRegistry, TuningBudget, TuningOutcome};
use dg_workloads::{Application, Workload};

const TUNER_SEED: u64 = 11;
const ENV_SEED: u64 = 0x5ce1;

/// `(tuner, budget, history hash, chosen config)`.
const HISTORY_PINS: [(&str, usize, u64, u64); 12] = [
    ("Exhaustive", 100, 307266961643245438, 8096),
    ("BLISS", 100, 12665278837609309473, 5818),
    ("OpenTuner", 100, 13758419572148467006, 5794),
    ("ActiveHarmony", 100, 18083041981539538771, 3493),
    ("RandomSearch", 100, 12707668101147290077, 8845),
    ("NTBEA", 100, 15066780232017918868, 5782),
    ("Exhaustive", 200, 10655469307058142599, 5796),
    ("BLISS", 200, 3516908384047407101, 3566),
    ("OpenTuner", 200, 15293689503500805830, 5794),
    ("ActiveHarmony", 200, 7291389865028777419, 3494),
    ("RandomSearch", 200, 1658866335401802431, 12392),
    ("NTBEA", 200, 4233072671507985277, 5774),
];

/// `fnv1a` of the canonical report of [`reduced_gauntlet`].
const GAUNTLET_PIN: u64 = 5739324280696185525;

/// FNV-1a over each sample's config id and observed-time bits (little-endian).
fn history_hash(outcome: &TuningOutcome) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for sample in &outcome.history {
        let bytes = sample
            .config
            .to_le_bytes()
            .into_iter()
            .chain(sample.observed_time.to_bits().to_le_bytes());
        for byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn tune(name: &str, budget: usize) -> TuningOutcome {
    let workload = Workload::scaled(Application::Redis, 20_000);
    let mut cloud =
        CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), ENV_SEED);
    TunerRegistry::baselines()
        .build(name, TUNER_SEED, VmType::M5_8xlarge)
        .expect("baseline is registered")
        .tune(&workload, &mut cloud, TuningBudget::evaluations(budget))
}

#[test]
fn baseline_histories_match_their_pins() {
    let mut mismatches = Vec::new();
    for (name, budget, hash, chosen) in HISTORY_PINS {
        let outcome = tune(name, budget);
        assert_eq!(outcome.samples, budget, "{name}@{budget}: budget not spent");
        let found = (history_hash(&outcome), outcome.chosen);
        if found != (hash, chosen) {
            mismatches.push(format!("(\"{name}\", {budget}, {}, {}),", found.0, found.1));
        }
    }
    assert!(
        mismatches.is_empty(),
        "history pins moved:\n{}",
        mismatches.join("\n")
    );
}

/// Six tuners over the whole scenario pack at seed 0 and the smoke scale.
fn reduced_gauntlet() -> CampaignSpec {
    let mut spec = CampaignSpec::single("scenario-gauntlet", "DarwinGame", 1);
    spec.tuners = [
        "DarwinGame",
        "RandomSearch",
        "BLISS",
        "OpenTuner",
        "ActiveHarmony",
        "NTBEA",
    ]
    .iter()
    .map(|t| t.to_string())
    .collect();
    spec.scenarios = ScenarioSpec::pack();
    spec.seeds = vec![0];
    spec.scale = ExperimentScale::smoke();
    spec
}

#[test]
fn reduced_gauntlet_report_matches_its_pin() {
    let report = Campaign::new(reduced_gauntlet()).run_with_workers(2);
    assert_eq!(report.completed_cells(), 48);
    assert_eq!(fnv1a(&report.to_json()), GAUNTLET_PIN);
}
