//! The default backend: full resimulation through `dg_cloudsim::CloudEnvironment`.

use crate::backend::{BackendProvider, ExecutionBackend, GameBatchItem, GamePlay, GameRules};
use dg_cloudsim::{fast_path_enabled, GameTermination, MAX_RUN_MULTIPLIER};
use dg_cloudsim::{
    CloudEnvironment, CostTracker, ExecutionSpec, InterferenceProfile, ObservedRun, SimTime, VmType,
};
use dg_obs::Counter;
use std::sync::OnceLock;

/// The registry counter behind [`sim_ops`]: `exec.sim_ops` in the `dg-obs` metrics
/// registry, cached so the per-operation cost stays one atomic add plus a
/// thread-local add.
fn sim_ops_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| dg_obs::metrics::counter("exec.sim_ops"))
}

/// Number of simulator operations (games, solo runs, observations) performed so far
/// **on the current thread** by [`SimBackend`] / `CloudEnvironment` backends.
///
/// Replay backends never touch the simulator, so replaying on this thread (e.g. a
/// single-worker campaign replay, which runs on the caller's thread) leaves the
/// counter unchanged — the property the record/replay tests pin. The reading is
/// per-thread so concurrent tests (or campaign workers) cannot perturb each other;
/// the process-wide total is the `exec.sim_ops` counter in a
/// [`MetricsSnapshot`](dg_obs::MetricsSnapshot).
pub fn sim_ops() -> u64 {
    sim_ops_counter().thread_value()
}

fn count_sim_op() {
    sim_ops_counter().increment();
}

/// Plays one game on a concrete [`CloudEnvironment`], stepping the co-located run and
/// applying the early-termination rules. This is the single simulation loop behind both
/// the `CloudEnvironment` trait impl and [`SimBackend`].
fn play_on(env: &mut CloudEnvironment, specs: &[ExecutionSpec], rules: &GameRules) -> GamePlay {
    assert!(!specs.is_empty(), "a game needs at least one player");
    count_sim_op();
    if fast_path_enabled() {
        // The fused struct-of-arrays engine in dg-cloudsim: bit-identical to the
        // stepping loop below (proven by the differential batteries on both sides of
        // the crate seam), just faster.
        let play = env.play_game_fast(
            specs,
            &GameTermination {
                early_termination: rules.early_termination,
                work_done_deviation: rules.work_done_deviation,
                min_leader_progress: rules.min_leader_progress,
            },
        );
        return GamePlay {
            start: play.start,
            elapsed: play.elapsed,
            observed_times: play.observed_times,
            execution_scores: play.execution_scores,
            early_terminated: play.early_terminated,
        };
    }
    let mut run = env.start_colocated(specs);
    let step = run.default_step();
    // Safety cap: no game can run longer than a generous multiple of the slowest spec.
    let max_seconds = specs
        .iter()
        .map(ExecutionSpec::base_time)
        .fold(0.0_f64, f64::max)
        * MAX_RUN_MULTIPLIER;

    let mut early_terminated = false;
    while !run.any_finished() && run.elapsed() < max_seconds {
        run.step(step);
        if rules.early_termination && specs.len() > 1 {
            let fractions = run.work_fractions();
            let leader = run.leader();
            let leader_work = fractions[leader];
            if leader_work >= rules.min_leader_progress {
                let runner_up = fractions
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != leader)
                    .map(|(_, w)| *w)
                    .fold(0.0_f64, f64::max);
                let gap = if leader_work > 0.0 {
                    (leader_work - runner_up) / leader_work
                } else {
                    0.0
                };
                if gap >= rules.work_done_deviation {
                    early_terminated = true;
                    break;
                }
            }
        }
    }

    let outcome = run.into_outcome();
    GamePlay {
        start: outcome.start_time(),
        elapsed: outcome.elapsed(),
        observed_times: outcome.observed_times().to_vec(),
        execution_scores: outcome.execution_scores(),
        early_terminated,
    }
}

/// The cloud simulator is itself an execution backend; [`SimBackend`] is a thin
/// wrapper around exactly this implementation.
impl ExecutionBackend for CloudEnvironment {
    fn vm(&self) -> VmType {
        CloudEnvironment::vm(self)
    }

    fn profile(&self) -> &InterferenceProfile {
        CloudEnvironment::profile(self)
    }

    fn seed(&self) -> u64 {
        CloudEnvironment::seed(self)
    }

    fn clock(&self) -> SimTime {
        CloudEnvironment::clock(self)
    }

    fn set_clock(&mut self, t: SimTime) {
        CloudEnvironment::set_clock(self, t);
    }

    fn cost(&self) -> &CostTracker {
        CloudEnvironment::cost(self)
    }

    fn play_game(&mut self, specs: &[ExecutionSpec], rules: &GameRules) -> GamePlay {
        play_on(self, specs, rules)
    }

    fn play_games_batch(
        &mut self,
        games: &[GameBatchItem<'_>],
        rules: &GameRules,
    ) -> Vec<GamePlay> {
        games
            .iter()
            .map(|game| play_on(self, game.specs, rules))
            .collect()
    }

    fn run_single(&mut self, spec: ExecutionSpec) -> ObservedRun {
        count_sim_op();
        CloudEnvironment::run_single(self, spec)
    }

    fn observe_single_at(&mut self, spec: ExecutionSpec, start: SimTime, salt: u64) -> f64 {
        count_sim_op();
        CloudEnvironment::observe_single_at(self, spec, start, salt)
    }

    fn commit(&mut self, play: &GamePlay) {
        self.commit_elapsed(play.elapsed);
    }

    fn commit_parallel(&mut self, plays: &[GamePlay]) {
        let elapsed: Vec<f64> = plays.iter().map(|p| p.elapsed).collect();
        self.commit_parallel_elapsed(&elapsed);
    }

    fn fork(&mut self, seed: u64) -> Box<dyn ExecutionBackend> {
        Box::new(CloudEnvironment::new(
            CloudEnvironment::vm(self),
            CloudEnvironment::profile(self).clone(),
            seed,
        ))
    }
}

/// The default [`ExecutionBackend`]: a wrapped [`CloudEnvironment`] that resimulates
/// every operation from scratch.
///
/// The wrapper exists so callers can name "the simulation backend" as a type, keep
/// access to simulator-only APIs ([`env`](Self::env) / [`env_mut`](Self::env_mut),
/// e.g. the run log), and so other backends have something concrete to wrap.
#[derive(Debug)]
pub struct SimBackend {
    env: CloudEnvironment,
}

impl SimBackend {
    /// Creates a simulation backend on the given VM type with the given interference
    /// profile and root seed.
    pub fn new(vm: VmType, profile: InterferenceProfile, seed: u64) -> Self {
        Self {
            env: CloudEnvironment::new(vm, profile, seed),
        }
    }

    /// Wraps an existing environment.
    pub fn from_env(env: CloudEnvironment) -> Self {
        Self { env }
    }

    /// The underlying simulated environment.
    pub fn env(&self) -> &CloudEnvironment {
        &self.env
    }

    /// The underlying simulated environment, mutably.
    pub fn env_mut(&mut self) -> &mut CloudEnvironment {
        &mut self.env
    }

    /// Unwraps the backend into its environment.
    pub fn into_env(self) -> CloudEnvironment {
        self.env
    }
}

impl ExecutionBackend for SimBackend {
    fn vm(&self) -> VmType {
        self.env.vm()
    }

    fn profile(&self) -> &InterferenceProfile {
        self.env.profile()
    }

    fn seed(&self) -> u64 {
        self.env.seed()
    }

    fn clock(&self) -> SimTime {
        self.env.clock()
    }

    fn set_clock(&mut self, t: SimTime) {
        self.env.set_clock(t);
    }

    fn cost(&self) -> &CostTracker {
        self.env.cost()
    }

    fn play_game(&mut self, specs: &[ExecutionSpec], rules: &GameRules) -> GamePlay {
        play_on(&mut self.env, specs, rules)
    }

    fn play_games_batch(
        &mut self,
        games: &[GameBatchItem<'_>],
        rules: &GameRules,
    ) -> Vec<GamePlay> {
        games
            .iter()
            .map(|game| play_on(&mut self.env, game.specs, rules))
            .collect()
    }

    fn run_single(&mut self, spec: ExecutionSpec) -> ObservedRun {
        ExecutionBackend::run_single(&mut self.env, spec)
    }

    fn observe_single_at(&mut self, spec: ExecutionSpec, start: SimTime, salt: u64) -> f64 {
        ExecutionBackend::observe_single_at(&mut self.env, spec, start, salt)
    }

    fn commit(&mut self, play: &GamePlay) {
        ExecutionBackend::commit(&mut self.env, play);
    }

    fn commit_parallel(&mut self, plays: &[GamePlay]) {
        ExecutionBackend::commit_parallel(&mut self.env, plays);
    }

    fn fork(&mut self, seed: u64) -> Box<dyn ExecutionBackend> {
        Box::new(SimBackend::new(
            self.env.vm(),
            self.env.profile().clone(),
            seed,
        ))
    }
}

/// The default [`BackendProvider`]: every stream gets a fresh [`SimBackend`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SimProvider;

impl BackendProvider for SimProvider {
    fn backend(
        &self,
        _stream: &str,
        vm: VmType,
        profile: &InterferenceProfile,
        seed: u64,
    ) -> Box<dyn ExecutionBackend> {
        Box::new(SimBackend::new(vm, profile.clone(), seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend(seed: u64) -> SimBackend {
        SimBackend::new(VmType::M5_8xlarge, InterferenceProfile::typical(), seed)
    }

    #[test]
    fn games_are_uncommitted_until_commit() {
        let mut exec = backend(1);
        let specs = [
            ExecutionSpec::new(100.0, 0.5),
            ExecutionSpec::new(300.0, 0.5),
        ];
        let play = exec.play_game(&specs, &GameRules::default());
        assert_eq!(play.players(), 2);
        assert_eq!(exec.cost().core_hours(), 0.0);
        exec.commit(&play);
        assert!(exec.cost().core_hours() > 0.0);
        assert_eq!(exec.clock().as_seconds(), play.elapsed);
    }

    #[test]
    fn sim_backend_matches_bare_environment() {
        // The trait impl on CloudEnvironment and the SimBackend wrapper must be the
        // same simulation: identical seeds produce bitwise-identical plays.
        let mut wrapped = backend(7);
        let mut bare = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 7);
        let specs = [
            ExecutionSpec::new(120.0, 0.8),
            ExecutionSpec::new(150.0, 0.2),
        ];
        let a = wrapped.play_game(&specs, &GameRules::default());
        let b = ExecutionBackend::play_game(&mut bare, &specs, &GameRules::default());
        assert_eq!(a, b);
    }

    #[test]
    fn forks_are_deterministic_sub_environments() {
        let mut exec = backend(3);
        let mut fork_a = exec.fork(99);
        let mut fork_b = exec.fork(99);
        assert_eq!(fork_a.seed(), 99);
        assert_eq!(fork_a.vm(), exec.vm());
        let spec = ExecutionSpec::new(100.0, 0.6);
        let a = fork_a.run_single(spec);
        let b = fork_b.run_single(spec);
        assert_eq!(a.observed_time.to_bits(), b.observed_time.to_bits());
        // Forks do not disturb the parent's accounting.
        assert_eq!(exec.cost().core_hours(), 0.0);
    }

    #[test]
    fn run_single_reports_charged_elapsed() {
        let mut exec = backend(5);
        let run = ExecutionBackend::run_single(&mut exec, ExecutionSpec::new(100.0, 0.3));
        assert!(run.elapsed >= run.observed_time);
        assert_eq!(exec.clock().as_seconds(), run.elapsed);
    }

    #[test]
    fn sim_ops_counter_counts_this_threads_simulation() {
        let before = sim_ops();
        let mut exec = backend(11);
        let _ = exec.run_single(ExecutionSpec::new(50.0, 0.1));
        let _ = exec.observe_single_at(ExecutionSpec::new(50.0, 0.1), SimTime::ZERO, 0);
        assert_eq!(
            sim_ops(),
            before + 2,
            "the counter is thread-local and exact"
        );
    }
}
