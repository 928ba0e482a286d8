//! Pass-through timing seams around the program's public layer boundaries.
//!
//! Nothing here changes what the program computes: every decorator forwards each call
//! verbatim and only stamps `Instant`s around it. Two probes exist:
//!
//! * [`CellClock`] — the untraced probe. It records when the campaign executor asks
//!   for each cell's backend and hands back the inner backend unwrapped, so cell
//!   latencies come for free: no per-operation cost at all.
//! * [`TimedProvider`] + [`LedgerSink`] — the traced probe. The provider wraps every
//!   backend (and every fork of it) in a [`TimedBackend`] that times each execution
//!   call; the sink stamps the executor's `cell_start` / `cell_finish` events and the
//!   tournament's `span_start` / `span_end` events. At each cell's end the
//!   [`Ledger`] splits the cell's time into layers that add up to the cell time.

use dg_cloudsim::{CostTracker, ExecutionSpec, InterferenceProfile, ObservedRun, SimTime, VmType};
use dg_exec::{BackendProvider, ExecutionBackend, GameBatchItem, GamePlay, GameRules};
use dg_obs::{EventSink, ObsEvent, ObsRecord};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The untraced probe: records the instant of every `backend` call and returns the
/// inner backend as is.
pub struct CellClock<'a> {
    inner: &'a dyn BackendProvider,
    starts: Mutex<Vec<Instant>>,
}

impl<'a> CellClock<'a> {
    pub fn new(inner: &'a dyn BackendProvider) -> Self {
        Self {
            inner,
            starts: Mutex::new(Vec::new()),
        }
    }

    /// The recorded cell start instants, in call order.
    pub fn into_starts(self) -> Vec<Instant> {
        self.starts.into_inner().expect("cell clock poisoned")
    }
}

impl BackendProvider for CellClock<'_> {
    fn backend(
        &self,
        stream: &str,
        vm: VmType,
        profile: &InterferenceProfile,
        seed: u64,
    ) -> Box<dyn ExecutionBackend> {
        self.starts
            .lock()
            .expect("cell clock poisoned")
            .push(Instant::now());
        self.inner.backend(stream, vm, profile, seed)
    }
}

/// The tournament phases the program brackets with spans.
pub const PHASES: [&str; 3] = ["regional", "global", "playoffs"];

fn phase_index(span: &str) -> Option<usize> {
    PHASES
        .iter()
        .position(|phase| span.strip_prefix("phase.") == Some(*phase))
}

/// Per-pass totals of the traced run. Times are seconds, counts are exact.
#[derive(Debug, Clone, Default)]
pub struct PassLedger {
    pub cells: u64,
    pub cell_s: f64,
    pub backend_new_s: f64,
    pub unattributed_s: f64,
    pub phase_s: [f64; 3],
    pub phase_exec_s: [f64; 3],
    /// Execution calls a tournament cell makes outside its phase spans and before
    /// its final evaluation.
    pub tournament_exec_outside_s: f64,
    pub rounds: u64,
    pub tuner_cell_s: BTreeMap<String, f64>,
    pub tuner_self_s: f64,
    pub tuner_exec_s: f64,
    pub batch_s: f64,
    pub batch_calls: u64,
    pub games: u64,
    pub player_slots: u64,
    pub game_s: f64,
    pub game_calls: u64,
    pub solo_s: f64,
    pub solo_calls: u64,
    pub observe_s: f64,
    pub observe_calls: u64,
    pub final_eval_s: f64,
    pub fork_s: f64,
    pub forks: u64,
    pub events: u64,
    pub timelines: u64,
    pub preemptions: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Batch,
    Game,
    Solo,
    Observe,
    Repeated,
    Fork,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: OpKind,
    start: Instant,
    end: Instant,
}

impl Op {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    fn within(&self, from: Instant, to: Instant) -> bool {
        self.start >= from && self.end <= to
    }
}

#[derive(Debug)]
struct OpenCell {
    start: Instant,
    tuner: String,
    backend_s: f64,
    backend_end: Option<Instant>,
    spans: Vec<(usize, Instant, Instant)>,
    open_span: Option<(usize, Instant)>,
    ops: Vec<Op>,
}

/// Collects one pass of the traced run.
#[derive(Debug)]
pub struct Ledger {
    evaluation_runs: usize,
    cell: Option<OpenCell>,
    pass: PassLedger,
    /// The first inconsistency met while attributing a cell, if any.
    error: Option<String>,
}

/// The ledger as shared between the provider, every backend and the sink.
pub type SharedLedger = Arc<Mutex<Ledger>>;

impl Ledger {
    /// A ledger for cells whose final evaluation observes the chosen configuration
    /// `evaluation_runs` times.
    pub fn shared(evaluation_runs: usize) -> SharedLedger {
        Arc::new(Mutex::new(Self {
            evaluation_runs,
            cell: None,
            pass: PassLedger::default(),
            error: None,
        }))
    }

    /// Takes this pass's totals (or the attribution error) and resets for the next.
    pub fn take(&mut self) -> Result<PassLedger, String> {
        if self.cell.is_some() {
            self.error
                .get_or_insert_with(|| "a cell never finished".to_string());
        }
        self.cell = None;
        let pass = std::mem::take(&mut self.pass);
        match self.error.take() {
            Some(error) => Err(error),
            None => Ok(pass),
        }
    }

    fn fail(&mut self, message: String) {
        self.error.get_or_insert(message);
    }

    fn on_backend(&mut self, start: Instant, end: Instant) {
        self.pass.backend_new_s += (end - start).as_secs_f64();
        match self.cell.as_mut() {
            Some(cell) if cell.backend_end.is_none() => {
                cell.backend_s = (end - start).as_secs_f64();
                cell.backend_end = Some(end);
            }
            _ => self.fail("a backend was created outside a cell".to_string()),
        }
    }

    fn on_op(&mut self, kind: OpKind, start: Instant, end: Instant, games: u64, slots: u64) {
        let op = Op { kind, start, end };
        let secs = op.secs();
        let pass = &mut self.pass;
        match kind {
            OpKind::Batch => {
                pass.batch_s += secs;
                pass.batch_calls += 1;
                pass.games += games;
                pass.player_slots += slots;
            }
            OpKind::Game => {
                pass.game_s += secs;
                pass.game_calls += 1;
            }
            OpKind::Solo => {
                pass.solo_s += secs;
                pass.solo_calls += 1;
            }
            OpKind::Observe => {
                pass.observe_s += secs;
                pass.observe_calls += 1;
            }
            OpKind::Repeated => {}
            OpKind::Fork => {
                pass.fork_s += secs;
                pass.forks += 1;
            }
        }
        match self.cell.as_mut() {
            Some(cell) => cell.ops.push(op),
            None => self.fail("an execution call ran outside a cell".to_string()),
        }
    }

    fn on_event(&mut self, event: &ObsEvent, now: Instant) {
        self.pass.events += 1;
        match event {
            ObsEvent::CellStart { tuner, .. } => {
                if self.cell.is_some() {
                    self.fail("cells overlap; the benchmark runs one worker".to_string());
                }
                self.cell = Some(OpenCell {
                    start: now,
                    tuner: tuner.clone(),
                    backend_s: 0.0,
                    backend_end: None,
                    spans: Vec::new(),
                    open_span: None,
                    ops: Vec::new(),
                });
            }
            ObsEvent::CellFinish { .. } => match self.cell.take() {
                Some(cell) => self.close_cell(cell, now),
                None => self.fail("cell_finish without cell_start".to_string()),
            },
            ObsEvent::SpanStart { name } => {
                let phase = phase_index(name);
                match (self.cell.as_mut(), phase) {
                    (Some(cell), Some(phase)) if cell.open_span.is_none() => {
                        cell.open_span = Some((phase, now));
                    }
                    _ => self.fail(format!("unexpected span_start {name}")),
                }
            }
            ObsEvent::SpanEnd { name, .. } => {
                let phase = phase_index(name);
                match (self.cell.as_mut(), phase) {
                    (Some(cell), Some(phase)) => match cell.open_span.take() {
                        Some((open, start)) if open == phase => {
                            cell.spans.push((phase, start, now));
                        }
                        _ => self.fail(format!("unmatched span_end {name}")),
                    },
                    _ => self.fail(format!("unexpected span_end {name}")),
                }
            }
            ObsEvent::Round { .. } => self.pass.rounds += 1,
            ObsEvent::ScenarioTimeline { .. } => self.pass.timelines += 1,
            ObsEvent::PreemptionStrike { .. } => self.pass.preemptions += 1,
            _ => {}
        }
    }

    /// Splits a finished cell into layers:
    /// `cell = backend_new + tune + final_eval + unattributed`, where `tune` is the
    /// phase spans plus any execution call outside them for a tournament cell, and
    /// the whole window between backend creation and final evaluation for a
    /// baseline cell (split into the tuner's own time and its execution calls).
    fn close_cell(&mut self, cell: OpenCell, finish: Instant) {
        let cell_s = (finish - cell.start).as_secs_f64();
        let Some(backend_end) = cell.backend_end else {
            return self.fail("a cell finished without creating a backend".to_string());
        };
        if cell.open_span.is_some() {
            return self.fail("a cell finished inside an open span".to_string());
        }
        // The final evaluation is the cell's last execution work: one
        // `observe_repeated` call, or (when a wrapper outside the probe expands it)
        // the last `evaluation_runs` single observations.
        let ops = &cell.ops;
        let tail = match ops.last() {
            Some(op) if op.kind == OpKind::Repeated => 1,
            _ => self.evaluation_runs,
        };
        let final_ops = &ops[ops.len().saturating_sub(tail)..];
        let final_ok = final_ops.len() == tail
            && (tail == 1 || final_ops.iter().all(|op| op.kind == OpKind::Observe));
        if !final_ok {
            return self.fail(format!(
                "cell of {} does not end in its final evaluation",
                cell.tuner
            ));
        }
        let final_start = final_ops[0].start;
        let final_s = (final_ops[tail - 1].end - final_start).as_secs_f64();
        let tune_ops = &ops[..ops.len() - tail];

        let pass = &mut self.pass;
        let tune_s = if cell.spans.is_empty() {
            let window = (final_start - backend_end).as_secs_f64();
            let exec: f64 = tune_ops.iter().map(Op::secs).sum();
            pass.tuner_self_s += window - exec;
            pass.tuner_exec_s += exec;
            window
        } else {
            let mut covered = 0.0;
            for &(phase, start, end) in &cell.spans {
                let span_s = (end - start).as_secs_f64();
                let exec: f64 = tune_ops
                    .iter()
                    .filter(|op| op.within(start, end))
                    .map(Op::secs)
                    .sum();
                pass.phase_s[phase] += span_s;
                pass.phase_exec_s[phase] += exec;
                covered += span_s;
            }
            let outside: f64 = tune_ops
                .iter()
                .filter(|op| !cell.spans.iter().any(|&(_, s, e)| op.within(s, e)))
                .map(Op::secs)
                .sum();
            pass.tournament_exec_outside_s += outside;
            covered + outside
        };
        pass.cells += 1;
        pass.cell_s += cell_s;
        pass.final_eval_s += final_s;
        pass.unattributed_s += cell_s - cell.backend_s - tune_s - final_s;
        *pass.tuner_cell_s.entry(cell.tuner).or_insert(0.0) += cell_s;
    }
}

/// The traced probe's provider: wraps every backend the inner provider creates.
pub struct TimedProvider<'a> {
    inner: &'a dyn BackendProvider,
    ledger: SharedLedger,
}

impl<'a> TimedProvider<'a> {
    pub fn new(inner: &'a dyn BackendProvider, ledger: SharedLedger) -> Self {
        Self { inner, ledger }
    }
}

impl BackendProvider for TimedProvider<'_> {
    fn backend(
        &self,
        stream: &str,
        vm: VmType,
        profile: &InterferenceProfile,
        seed: u64,
    ) -> Box<dyn ExecutionBackend> {
        let start = Instant::now();
        let inner = self.inner.backend(stream, vm, profile, seed);
        let end = Instant::now();
        lock(&self.ledger).on_backend(start, end);
        Box::new(TimedBackend {
            inner,
            ledger: Arc::clone(&self.ledger),
        })
    }
}

fn lock(ledger: &SharedLedger) -> std::sync::MutexGuard<'_, Ledger> {
    ledger.lock().expect("ledger poisoned")
}

/// A backend decorator timing every execution call; everything else is forwarded.
pub struct TimedBackend {
    inner: Box<dyn ExecutionBackend>,
    ledger: SharedLedger,
}

impl TimedBackend {
    fn record(&self, kind: OpKind, start: Instant, games: u64, slots: u64) {
        let end = Instant::now();
        lock(&self.ledger).on_op(kind, start, end, games, slots);
    }
}

impl ExecutionBackend for TimedBackend {
    fn vm(&self) -> VmType {
        self.inner.vm()
    }

    fn profile(&self) -> &InterferenceProfile {
        self.inner.profile()
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn clock(&self) -> SimTime {
        self.inner.clock()
    }

    fn set_clock(&mut self, t: SimTime) {
        self.inner.set_clock(t);
    }

    fn cost(&self) -> &CostTracker {
        self.inner.cost()
    }

    fn players_per_game(&self) -> usize {
        self.inner.players_per_game()
    }

    fn play_game(&mut self, specs: &[ExecutionSpec], rules: &GameRules) -> GamePlay {
        let start = Instant::now();
        let play = self.inner.play_game(specs, rules);
        self.record(OpKind::Game, start, 0, 0);
        play
    }

    fn play_games_batch(
        &mut self,
        games: &[GameBatchItem<'_>],
        rules: &GameRules,
    ) -> Vec<GamePlay> {
        let start = Instant::now();
        let plays = self.inner.play_games_batch(games, rules);
        let slots = games.iter().map(|game| game.specs.len() as u64).sum();
        self.record(OpKind::Batch, start, games.len() as u64, slots);
        plays
    }

    fn run_single(&mut self, spec: ExecutionSpec) -> ObservedRun {
        let start = Instant::now();
        let run = self.inner.run_single(spec);
        self.record(OpKind::Solo, start, 0, 0);
        run
    }

    fn observe_single_at(&mut self, spec: ExecutionSpec, start: SimTime, salt: u64) -> f64 {
        let begin = Instant::now();
        let observed = self.inner.observe_single_at(spec, start, salt);
        self.record(OpKind::Observe, begin, 0, 0);
        observed
    }

    fn observe_repeated(
        &mut self,
        spec: ExecutionSpec,
        count: usize,
        spacing_seconds: f64,
    ) -> Vec<f64> {
        let start = Instant::now();
        let runs = self.inner.observe_repeated(spec, count, spacing_seconds);
        self.record(OpKind::Repeated, start, 0, 0);
        runs
    }

    fn commit(&mut self, play: &GamePlay) {
        self.inner.commit(play);
    }

    fn commit_parallel(&mut self, plays: &[GamePlay]) {
        self.inner.commit_parallel(plays);
    }

    fn fork(&mut self, seed: u64) -> Box<dyn ExecutionBackend> {
        let start = Instant::now();
        let inner = self.inner.fork(seed);
        self.record(OpKind::Fork, start, 0, 0);
        Box::new(TimedBackend {
            inner,
            ledger: Arc::clone(&self.ledger),
        })
    }

    fn failure(&self) -> Option<String> {
        self.inner.failure()
    }
}

/// Stamps the program's existing cell and span events into the ledger.
pub struct LedgerSink {
    ledger: SharedLedger,
}

impl LedgerSink {
    pub fn new(ledger: SharedLedger) -> Self {
        Self { ledger }
    }
}

impl EventSink for LedgerSink {
    fn record(&self, record: &ObsRecord) {
        let now = Instant::now();
        lock(&self.ledger).on_event(&record.event, now);
    }
}
