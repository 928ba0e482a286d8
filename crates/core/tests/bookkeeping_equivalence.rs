//! Differential battery for the tournament's per-round bookkeeping.
//!
//! The reference implementations below are the bookkeeping as it was before it became
//! aggregate- and bitset-based, kept verbatim: a score board that keeps every game's
//! execution score and rank in two `Vec`s and re-reduces them on every read, and a
//! `sample_distinct` that tracks membership in a `BTreeSet`. The production code must
//! agree with them exactly:
//!
//! * [`ScoreBoard`]: over random record sequences (scores in `[0, 1]` including exact
//!   `0.0`, `-0.0` and `1.0`; ranks 1–96, biased toward rank 1 so streaks form), after
//!   every record, the bits of `average_execution_score` and `consistency_score`, and
//!   `games_played`, `wins`, `latest_execution_score` and `winning_streak(k)` for
//!   `k = 0..=4`.
//! * [`IndexPartition::sample_distinct`]: over random partitions, parts and counts —
//!   spans at or below the count, counts close to the span, parts at non-zero offsets
//!   — the returned ids, and the generator's state afterwards (its next `next_u64`).
//!
//! The battery runs a smaller slice in debug builds; release builds run the full count.

use darwin_core::ScoreBoard;
use dg_cloudsim::SimRng;
use dg_workloads::{ConfigId, IndexPartition};

const BOARD_CASES: usize = if cfg!(debug_assertions) {
    2_000
} else {
    12_000
};
const SAMPLE_CASES: usize = if cfg!(debug_assertions) {
    1_000
} else {
    10_000
};

// ---------------------------------------------------------------------------------
// Reference score board (full histories, re-reduced per read).
// ---------------------------------------------------------------------------------

#[derive(Default)]
struct ReferenceScoreBoard {
    execution_scores: Vec<f64>,
    ranks: Vec<usize>,
}

impl ReferenceScoreBoard {
    fn record_game(&mut self, execution_score: f64, rank: usize) {
        assert!(
            (0.0..=1.0).contains(&execution_score),
            "execution score must be within [0, 1], got {execution_score}"
        );
        assert!(rank >= 1, "ranks are 1-based");
        self.execution_scores.push(execution_score);
        self.ranks.push(rank);
    }

    fn games_played(&self) -> usize {
        self.execution_scores.len()
    }

    fn latest_execution_score(&self) -> Option<f64> {
        self.execution_scores.last().copied()
    }

    fn average_execution_score(&self) -> f64 {
        if self.execution_scores.is_empty() {
            0.0
        } else {
            self.execution_scores.iter().sum::<f64>() / self.execution_scores.len() as f64
        }
    }

    fn consistency_score(&self) -> f64 {
        if self.ranks.is_empty() {
            0.0
        } else {
            self.ranks.iter().map(|r| 1.0 / *r as f64).sum::<f64>() / self.ranks.len() as f64
        }
    }

    fn wins(&self) -> usize {
        self.ranks.iter().filter(|r| **r == 1).count()
    }

    fn winning_streak(&self, streak: usize) -> bool {
        if streak == 0 || self.ranks.len() < streak {
            return false;
        }
        self.ranks.iter().rev().take(streak).all(|r| *r == 1)
    }
}

// ---------------------------------------------------------------------------------
// Reference sampler (BTreeSet membership).
// ---------------------------------------------------------------------------------

fn reference_sample_distinct(
    partition: &IndexPartition,
    i: usize,
    count: usize,
    rng: &mut SimRng,
) -> Vec<ConfigId> {
    let range = partition.range(i);
    let span = (range.end - range.start) as usize;
    if span <= count {
        return range.collect();
    }
    let mut chosen = std::collections::BTreeSet::new();
    // Rejection sampling is fine because count << span in the regional phase.
    let mut attempts = 0usize;
    while chosen.len() < count && attempts < count * 64 {
        chosen.insert(partition.sample(i, rng));
        attempts += 1;
    }
    // Degenerate fallback: fill sequentially from the start of the range.
    let mut result: Vec<ConfigId> = chosen.into_iter().collect();
    let mut next = range.start;
    while result.len() < count {
        if !result.contains(&next) {
            result.push(next);
        }
        next += 1;
    }
    result
}

// ---------------------------------------------------------------------------------
// Battery.
// ---------------------------------------------------------------------------------

/// An execution score in `[0, 1]`, hitting the exact edges often.
fn random_score(rng: &mut SimRng) -> f64 {
    match rng.index(8) {
        0 => 0.0,
        1 => -0.0,
        2 | 3 => 1.0,
        4 => 1.0 - rng.uniform() * 1e-12,
        _ => rng.uniform(),
    }
}

/// A rank in 1..=96, rank 1 about half the time so winning streaks form.
fn random_rank(rng: &mut SimRng) -> usize {
    if rng.chance(0.5) {
        1
    } else {
        1 + rng.index(96)
    }
}

fn assert_boards_agree(case: usize, step: usize, got: &ScoreBoard, want: &ReferenceScoreBoard) {
    let at = format!("case {case}, after {step} records");
    assert_eq!(
        got.average_execution_score().to_bits(),
        want.average_execution_score().to_bits(),
        "average_execution_score, {at}"
    );
    assert_eq!(
        got.consistency_score().to_bits(),
        want.consistency_score().to_bits(),
        "consistency_score, {at}"
    );
    assert_eq!(
        got.games_played(),
        want.games_played(),
        "games_played, {at}"
    );
    assert_eq!(got.wins(), want.wins(), "wins, {at}");
    assert_eq!(
        got.latest_execution_score().map(f64::to_bits),
        want.latest_execution_score().map(f64::to_bits),
        "latest_execution_score, {at}"
    );
    for k in 0..=4 {
        assert_eq!(
            got.winning_streak(k),
            want.winning_streak(k),
            "winning_streak({k}), {at}"
        );
    }
}

#[test]
fn score_aggregates_match_the_history_reference_bit_for_bit() {
    let mut rng = SimRng::new(0x0005_c04e);
    for case in 0..BOARD_CASES {
        let games = rng.index(64);
        let mut got = ScoreBoard::new();
        let mut want = ReferenceScoreBoard::default();
        assert_boards_agree(case, 0, &got, &want);
        for step in 1..=games {
            let (score, rank) = (random_score(&mut rng), random_rank(&mut rng));
            got.record_game(score, rank);
            want.record_game(score, rank);
            assert_boards_agree(case, step, &got, &want);
        }
    }
}

#[test]
fn a_board_of_negative_zeros_keeps_the_sign_of_the_history_sum() {
    // `Iterator::sum` over f64 starts from -0.0, so a history of -0.0 scores averages
    // to -0.0; the running sum must start from the same value.
    let mut got = ScoreBoard::new();
    let mut want = ReferenceScoreBoard::default();
    for _ in 0..3 {
        got.record_game(-0.0, 2);
        want.record_game(-0.0, 2);
    }
    assert!(want.average_execution_score().is_sign_negative());
    assert_boards_agree(0, 3, &got, &want);
}

/// One sampling case: a partition, a part, and a count, drawn to cover spans at or
/// below the count, counts close to the span, and ordinary `count << span` cases.
fn random_sampling_case(rng: &mut SimRng) -> (IndexPartition, usize, usize) {
    let total = 1 + rng.index(5_000) as u64;
    let partition = IndexPartition::new(total, 1 + rng.index(40));
    let part = rng.index(partition.parts());
    let span = partition.part_size(part) as usize;
    let count = match rng.index(4) {
        // At or above the span: the whole part comes back.
        0 => span + rng.index(4),
        // Close to the span: nearly every index must be found.
        1 => span.saturating_sub(rng.index(3)).max(1),
        // A large share of the span.
        2 => 1 + rng.index(span),
        // The regional phase's shape: count well below the span.
        _ => 1 + rng.index((span / 8).max(1)),
    };
    (partition, part, count)
}

#[test]
fn bitset_sampling_matches_the_btreeset_reference_draw_for_draw() {
    let mut cases = SimRng::new(0xb175e7);
    let mut offsets = 0usize;
    for case in 0..SAMPLE_CASES {
        let (partition, part, count) = random_sampling_case(&mut cases);
        offsets += usize::from(partition.range(part).start > 0);
        let seed = cases.next_u64();
        let (mut got_rng, mut want_rng) = (SimRng::new(seed), SimRng::new(seed));
        let got = partition.sample_distinct(part, count, &mut got_rng);
        let want = reference_sample_distinct(&partition, part, count, &mut want_rng);
        assert_eq!(
            got, want,
            "case {case}: part {part} of {partition:?}, count {count}"
        );
        assert_eq!(
            got_rng.next_u64(),
            want_rng.next_u64(),
            "case {case}: generator state diverged"
        );
    }
    assert!(offsets > SAMPLE_CASES / 2, "most parts start at an offset");
}

#[test]
fn regional_pool_shapes_match_the_reference() {
    // The exact shapes the fig15 sweep samples: 60k configs in 96 regions, pools of
    // P + P/2 * (rounds - 1) for P in 8..=96.
    let partition = IndexPartition::new(60_000, 96);
    for players in [8usize, 16, 32, 48, 64, 96] {
        let pool = players + players / 2 * 9;
        for region in [0usize, 1, 47, 95] {
            let seed = dg_cloudsim::mix(players as u64, region as u64);
            let (mut got_rng, mut want_rng) = (SimRng::new(seed), SimRng::new(seed));
            assert_eq!(
                partition.sample_distinct(region, pool, &mut got_rng),
                reference_sample_distinct(&partition, region, pool, &mut want_rng),
                "P = {players}, region {region}"
            );
            assert_eq!(got_rng.next_u64(), want_rng.next_u64());
        }
    }
}
