//! A deterministic work counter for the tournament's bookkeeping: heap allocations.
//!
//! Wall time on a shared host swings by tens of percent run to run; the number of heap
//! allocations a phase makes does not. This binary installs a counting global
//! allocator (per thread, so the harness's other threads do not leak into a count) and
//! plays one regional phase on [`CloudEnvironment`] at 8, 16 and 32 players per game.
//! A probe backend reads the counter when a region's game starts and when the
//! simulator returns its play, which splits every regional round into two counts:
//!
//! * the tournament's bookkeeping, from one play's return to the next game's start:
//!   ranking the play, recording scores, selecting the next round's players and
//!   building their spec list — [`TOURNAMENT_ALLOCATIONS_PER_ROUND`];
//! * the simulator's game, from a game's start to its play's return — after a fork's
//!   first game has sized its scratch, [`SIMULATOR_ALLOCATIONS_PER_GAME`] (the play's
//!   two result vectors).
//!
//! Both are pinned, and both are the same at every game size and in every round:
//! selection reuses its buffers, score records are aggregates, and spec lookups decode
//! configurations in place. `ScoreBoard::record_game` and copying a `Player` allocate
//! nothing.

use darwin_core::{run_regional_phase, Player, ScoreBoard, TournamentConfig};
use dg_cloudsim::{
    CloudEnvironment, CostTracker, ExecutionSpec, InterferenceProfile, ObservedRun, SimTime, VmType,
};
use dg_exec::{ExecutionBackend, GamePlay, GameRules};
use dg_workloads::{Application, IndexPartition, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

/// Heap allocations (including reallocations) of the tournament's side of one regional
/// round: the play's ranks and their sort order, and the next game's spec list.
const TOURNAMENT_ALLOCATIONS_PER_ROUND: u64 = 3;

/// Heap allocations of one simulated game once its fork's scratch is sized: the play's
/// observed times and execution scores.
const SIMULATOR_ALLOCATIONS_PER_GAME: u64 = 2;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counting beside it only bumps a const-initialised
// thread-local `Cell`, which never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `alloc` are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed on as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, that is from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Counter readings `(game start, play returned)` of one probe, one pair per game.
type GameReadings = Arc<Mutex<Vec<(u64, u64)>>>;

/// The readings of every probe made so far, in fork order.
type Readings = Arc<Mutex<Vec<GameReadings>>>;

/// Forwards to an inner backend and reads the allocation counter around every game.
/// Its forks are probes too, registered in `readings` in fork order.
struct Probe {
    inner: Box<dyn ExecutionBackend>,
    readings: Readings,
    mine: GameReadings,
}

impl Probe {
    fn new(inner: Box<dyn ExecutionBackend>, readings: Readings) -> Self {
        // Reserved up front so that recording a reading never allocates.
        let mine = Arc::new(Mutex::new(Vec::with_capacity(1 << 12)));
        readings.lock().unwrap().push(Arc::clone(&mine));
        Self {
            inner,
            readings,
            mine,
        }
    }
}

impl ExecutionBackend for Probe {
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
        self.inner.set_clock(t)
    }
    fn cost(&self) -> &CostTracker {
        self.inner.cost()
    }
    fn play_game(&mut self, specs: &[ExecutionSpec], rules: &GameRules) -> GamePlay {
        let start = allocations();
        let play = self.inner.play_game(specs, rules);
        let end = allocations();
        let mut mine = self.mine.lock().unwrap();
        assert!(mine.len() < mine.capacity(), "reading buffer would grow");
        mine.push((start, end));
        play
    }
    fn run_single(&mut self, spec: ExecutionSpec) -> ObservedRun {
        self.inner.run_single(spec)
    }
    fn observe_single_at(&mut self, spec: ExecutionSpec, start: SimTime, salt: u64) -> f64 {
        self.inner.observe_single_at(spec, start, salt)
    }
    fn commit(&mut self, play: &GamePlay) {
        self.inner.commit(play)
    }
    fn commit_parallel(&mut self, plays: &[GamePlay]) {
        self.inner.commit_parallel(plays)
    }
    fn fork(&mut self, seed: u64) -> Box<dyn ExecutionBackend> {
        Box::new(Probe::new(
            self.inner.fork(seed),
            Arc::clone(&self.readings),
        ))
    }
}

/// Per-region allocation counts of one regional phase.
struct RegionCounts {
    /// Tournament allocations between consecutive games (one per round after the
    /// first).
    tournament: Vec<u64>,
    /// Simulator allocations of every game after the region's first.
    simulator: Vec<u64>,
}

/// Plays one regional phase at `players` per game and returns its allocation counts,
/// region by region, plus the number of regional games played.
fn regional_phase_counts(players: usize) -> (Vec<RegionCounts>, usize) {
    let workload = Workload::scaled(Application::Redis, 20_000);
    let partition = IndexPartition::new(workload.size(), 16);
    let mut config = TournamentConfig::scaled(16, 41);
    config.players_per_game = Some(players);
    config.parallel_regions = false;

    let readings: Readings = Arc::new(Mutex::new(Vec::new()));
    let cloud = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 5);
    let mut main = Probe::new(Box::new(cloud), Arc::clone(&readings));
    let (outcomes, _) = run_regional_phase(&workload, &partition, 0, &mut main, &config);
    let games = outcomes.iter().map(|o| o.games_played).sum();

    let readings = readings.lock().unwrap();
    // The first probe is the main backend, which plays no regional game.
    assert!(readings[0].lock().unwrap().is_empty());
    let regions = readings[1..]
        .iter()
        .map(|region| {
            let games = region.lock().unwrap();
            RegionCounts {
                tournament: games.windows(2).map(|w| w[1].0 - w[0].1).collect(),
                simulator: games[1..].iter().map(|(start, end)| end - start).collect(),
            }
        })
        .collect();
    (regions, games)
}

#[test]
fn a_regional_round_allocates_the_same_at_every_game_size() {
    for players in [8usize, 16, 32] {
        let (regions, games) = regional_phase_counts(players);
        assert_eq!(regions.len(), 16, "one probe per region");
        let seen: usize = regions.iter().map(|r| r.simulator.len() + 1).sum();
        assert_eq!(seen, games, "every regional game was seen by a probe");
        let tournament: Vec<u64> = regions.iter().flat_map(|r| r.tournament.clone()).collect();
        let simulator: Vec<u64> = regions.iter().flat_map(|r| r.simulator.clone()).collect();
        assert!(
            tournament.len() >= 16,
            "P = {players}: too few multi-round regions"
        );
        assert!(
            tournament
                .iter()
                .all(|n| *n == TOURNAMENT_ALLOCATIONS_PER_ROUND),
            "P = {players}: tournament allocations per round {tournament:?}, \
             pinned {TOURNAMENT_ALLOCATIONS_PER_ROUND}"
        );
        assert!(
            simulator
                .iter()
                .all(|n| *n == SIMULATOR_ALLOCATIONS_PER_GAME),
            "P = {players}: simulator allocations per game {simulator:?}, \
             pinned {SIMULATOR_ALLOCATIONS_PER_GAME}"
        );
    }
}

#[test]
fn recording_a_game_allocates_nothing() {
    let mut board = ScoreBoard::new();
    let mut player = Player::new(7, Some(0));
    let before = allocations();
    for game in 0..10_000usize {
        board.record_game((game % 11) as f64 / 10.0, 1 + game % 96);
        player.scores_mut().record_game(1.0, 1);
    }
    let copied = player;
    assert_eq!(allocations() - before, 0);
    assert_eq!(board.games_played(), 10_000);
    assert_eq!(copied.scores().games_played(), 10_000);
}
