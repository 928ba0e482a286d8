//! Baseline application tuners used as comparison points in the DarwinGame paper.
//!
//! Every tuner here is *interference-unaware by design*: it evaluates one configuration
//! at a time in the shared cloud and trusts the observed execution time. That is exactly
//! the failure mode DarwinGame (the `darwin-core` crate) is built to avoid, and the
//! experiments in the paper's Sec. 5 quantify the gap.
//!
//! Implemented baselines:
//!
//! * [`RandomSearch`] — uniform random sampling.
//! * [`ExhaustiveSearch`] — the brute-force strategy of Sec. 2.
//! * [`OracleTuner`] — the dedicated-environment optimum ("Optimal" in the figures).
//! * [`ActiveHarmony`] — rank-order simplex search (Nelder–Mead with restarts).
//! * [`OpenTuner`] — an ensemble of techniques arbitrated by an AUC bandit.
//! * [`Bliss`] — a pool of lightweight Bayesian-optimisation models.
//! * [`Ntbea`] — the N-Tuple Bandit Evolutionary Algorithm (model-based search).
//!
//! [`TunerRegistry`] exposes all of them (and anything downstream crates register) as
//! named `Box<dyn Tuner>` factories, which is how campaign drivers sweep over tuners.
//!
//! # Quick example
//!
//! ```
//! use dg_cloudsim::{CloudEnvironment, InterferenceProfile, VmType};
//! use dg_tuners::{Bliss, Tuner, TuningBudget};
//! use dg_workloads::{Application, Workload};
//!
//! let workload = Workload::scaled(Application::Redis, 5_000);
//! let mut cloud = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 1);
//! let outcome = Bliss::new(7).tune(&workload, &mut cloud, TuningBudget::evaluations(30));
//! assert!(outcome.samples <= 30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activeharmony;
mod bliss;
mod evaluator;
mod exhaustive;
mod gp;
mod ntbea;
mod opentuner;
mod oracle;
mod outcome;
mod random;
mod registry;
mod simplex;
mod techniques;
mod tuner;

pub use activeharmony::ActiveHarmony;
pub use bliss::Bliss;
pub use evaluator::{CloudEvaluator, TuningBudget};
pub use exhaustive::ExhaustiveSearch;
pub use gp::{GaussianProcess, PredictScratch};
pub use ntbea::{Ntbea, TupleModel};
pub use opentuner::OpenTuner;
pub use oracle::OracleTuner;
pub use outcome::{SampleRecord, TuningOutcome};
pub use random::RandomSearch;
pub use registry::{TunerFactory, TunerRegistry};
pub use simplex::nelder_mead;
pub use techniques::{
    EvolutionTechnique, HillClimbTechnique, PatternSearchTechnique, RandomTechnique, SearchContext,
    Technique,
};
pub use tuner::Tuner;
