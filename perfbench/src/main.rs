//! The repository benchmark: tuning-session throughput, latency and quality on three
//! workloads, plus a traced run that attributes time to each layer.
//!
//! ```text
//! perfbench --workload <fig15-sweep|gauntlet|trace-replay> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every workload is a closed loop with one client on one worker thread: a pass runs
//! the whole campaign, and the next pass starts when the previous one returns. The
//! untraced run (`--trace 0`) reports the end-to-end metrics; the traced run
//! (`--trace 1`) alternates untraced and traced passes and reports the per-layer
//! ledger. Every pass's report is checked against a reference, and any mismatch makes
//! the command exit non-zero. `perfbench/README.md` lists the metrics and the layer
//! each should move.

mod ledger;
mod quantile;
mod reference;

use dg_campaign::{Campaign, CampaignReport, CampaignSpec, ExperimentScale, ScenarioSpec};
use dg_exec::{sim_ops, BackendProvider, ExecutionTrace, SimProvider, TraceReplayer};
use dg_obs::json::fnv1a;
use dg_obs::{install_sink, remove_sink, set_obs_enabled};
use dg_tuners::OracleTuner;
use dg_workloads::Workload;
use ledger::{CellClock, Ledger, LedgerSink, PassLedger, SharedLedger, TimedProvider, PHASES};
use quantile::harrell_davis;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `fnv1a` of the canonical fig15 sweep report at its default seed, as pinned in
/// `BENCH_fig15.json` (`campaign_fingerprint`).
const FIG15_PIN: u64 = 255_963_129_071_380_612;
const FIG15_SEED: u64 = 80;
const GAUNTLET_SEED: u64 = 0x5ce1;
/// The six tuners of the gauntlet, in the registry's names.
const TUNERS: [&str; 6] = [
    "DarwinGame",
    "RandomSearch",
    "BLISS",
    "OpenTuner",
    "ActiveHarmony",
    "NTBEA",
];
/// Fewest untraced passes, so that each cell's latency is the fastest of at least
/// this many timings.
const MIN_PASSES: usize = 5;
/// Timings of the host-speed reference kernel before each untraced pass and before
/// each set-up.
const REFERENCE_CALLS: usize = 3;
/// Fewest traced (and untraced) passes the traced run takes.
const MIN_TRACED_PASSES: usize = 2;
/// Cold set-ups per untraced run: this process's own plus fresh child processes
/// running `--setup-only`, spread evenly over the run so that they sample the host
/// as the passes do; `setup_s` is their median.
const SETUP_REPLICAS: usize = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fig15Sweep,
    Gauntlet,
    TraceReplay,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Fig15Sweep, Kind::Gauntlet, Kind::TraceReplay];

    fn name(self) -> &'static str {
        match self {
            Kind::Fig15Sweep => "fig15-sweep",
            Kind::Gauntlet => "gauntlet",
            Kind::TraceReplay => "trace-replay",
        }
    }

    fn default_seed(self) -> u64 {
        match self {
            Kind::Fig15Sweep | Kind::TraceReplay => FIG15_SEED,
            Kind::Gauntlet => GAUNTLET_SEED,
        }
    }

    /// The campaign a pass runs. `trace-replay` replays the fig15 sweep.
    fn spec(self, seed: u64) -> CampaignSpec {
        let mut spec = match self {
            Kind::Fig15Sweep | Kind::TraceReplay => dg_bench::fig15_sweep_spec(false),
            Kind::Gauntlet => {
                let mut spec = CampaignSpec::single("scenario-gauntlet", TUNERS[0], 1);
                spec.tuners = TUNERS.iter().map(|t| t.to_string()).collect();
                spec.scenarios = ScenarioSpec::pack();
                spec.scale = ExperimentScale {
                    space_size: 20_000,
                    regions: 64,
                    evaluation_runs: 30,
                    // Half the default budget: BLISS's GP still dominates a pass, and
                    // a pass (about 2.5 s) repeats often enough in a run for the
                    // best-of-N cell timings.
                    baseline_budget: 100,
                    ..ExperimentScale::default_scale()
                };
                spec
            }
        };
        spec.base_seed = seed;
        spec
    }

    /// Whether set-up ends with a warm-up pass. The sweep's first pass runs about
    /// 1.5× slower while the spec memo fills; the gauntlet's GP-bound first pass does
    /// not, so its set-up stays the cold construction alone.
    fn warms_up(self) -> bool {
        self != Kind::Gauntlet
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed: seed.unwrap_or(kind.default_seed()),
        seconds,
        trace,
        setup_only,
    })
}

/// How a pass is observed.
enum Probe<'a> {
    /// Untraced: only cell start instants.
    Clock,
    /// Traced: the full ledger.
    Ledger(&'a SharedLedger),
}

/// What one pass produced.
struct Pass {
    elapsed: Duration,
    cells: usize,
    /// Seconds from the pass's start to its first cell (on `trace-replay`, the trace
    /// encode and decode), untraced passes only.
    lead_s: f64,
    /// Host latency of each cell, in schedule order (untraced passes only).
    cell_latencies: Vec<f64>,
    report: Option<CampaignReport>,
    report_json: String,
    report_encode_s: f64,
    sim_ops: u64,
    trace_encode_s: f64,
    trace_decode_s: f64,
    trace_bytes: usize,
    /// Why the pass is wrong, if it is (beyond its report, checked separately).
    error: Option<String>,
    ledger: Option<PassLedger>,
}

/// The recorded fig15 trace a `trace-replay` pass encodes, decodes and replays.
struct Recording {
    trace: Arc<ExecutionTrace>,
    /// The canonical encoding of the first pass; every later encoding must match.
    encoded: Option<String>,
}

struct Bench {
    campaign: Campaign,
    recording: Option<Recording>,
    /// The report every pass must reproduce byte for byte: the recorded run on
    /// `trace-replay`, otherwise the first pass.
    reference: Option<String>,
    /// A checked report, for the quality metrics.
    report: Option<CampaignReport>,
    errors: Vec<String>,
}

impl Bench {
    fn run_campaign(
        &self,
        inner: &dyn BackendProvider,
        probe: &Probe<'_>,
    ) -> (CampaignReport, Vec<Instant>) {
        match probe {
            Probe::Clock => {
                let clock = CellClock::new(inner);
                let report = self.campaign.run_with_provider(&clock, 1);
                (report, clock.into_starts())
            }
            Probe::Ledger(ledger) => {
                let provider = TimedProvider::new(inner, Arc::clone(ledger));
                (self.campaign.run_with_provider(&provider, 1), Vec::new())
            }
        }
    }

    /// One closed-loop pass: the whole campaign (for `trace-replay`: encode, decode
    /// and replay the recorded trace). Checks run after the clock stops.
    fn pass(&mut self, probe: &Probe<'_>) -> Pass {
        let ops_before = sim_ops();
        let start = Instant::now();
        let mut encoded = None;
        let (mut trace_encode_s, mut trace_decode_s) = (0.0, 0.0);
        let outcome = match &self.recording {
            None => Ok(self.run_campaign(&SimProvider, probe)),
            Some(recording) => {
                let t = Instant::now();
                let text = recording.trace.to_json();
                trace_encode_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let decoded = ExecutionTrace::from_json(&text);
                trace_decode_s = t.elapsed().as_secs_f64();
                encoded = Some(text);
                decoded.map(|trace| self.run_campaign(&TraceReplayer::new(trace), probe))
            }
        };
        let end = Instant::now();
        let sim_ops = sim_ops() - ops_before;

        let mut pass = Pass {
            elapsed: end - start,
            cells: self.campaign.spec().grid_size(),
            lead_s: 0.0,
            cell_latencies: Vec::new(),
            report: None,
            report_json: String::new(),
            report_encode_s: 0.0,
            sim_ops,
            trace_encode_s,
            trace_decode_s,
            trace_bytes: encoded.as_ref().map_or(0, String::len),
            error: None,
            ledger: None,
        };
        let (report, starts) = match outcome {
            Ok(done) => done,
            Err(err) => {
                pass.error = Some(format!("trace decode failed: {err}"));
                return pass;
            }
        };
        let t = Instant::now();
        pass.report_json = report.to_json();
        pass.report_encode_s = t.elapsed().as_secs_f64();
        pass.cells = report.cells.len();
        pass.report = Some(report);
        if let (Some(text), Some(recording)) = (encoded, self.recording.as_mut()) {
            if sim_ops != 0 {
                pass.error = Some(format!("replay ran {sim_ops} simulator ops"));
            }
            match &recording.encoded {
                None => recording.encoded = Some(text),
                Some(first) if *first != text => {
                    pass.error = Some("the trace encoding changed between passes".into());
                }
                Some(_) => {}
            }
        }
        pass.lead_s = starts.first().map_or(0.0, |at| (*at - start).as_secs_f64());
        pass.cell_latencies = starts
            .iter()
            .enumerate()
            .map(|(i, at)| (starts.get(i + 1).copied().unwrap_or(end) - *at).as_secs_f64())
            .collect();
        pass
    }

    /// A traced pass: the sink and the timed provider are live only inside it.
    fn traced_pass(&mut self, ledger: &SharedLedger) -> Pass {
        set_obs_enabled(true);
        let sink = install_sink(Arc::new(LedgerSink::new(Arc::clone(ledger))));
        let mut pass = self.pass(&Probe::Ledger(ledger));
        remove_sink(sink);
        set_obs_enabled(false);
        match ledger.lock().expect("ledger poisoned").take() {
            Ok(totals) => pass.ledger = Some(totals),
            Err(err) => {
                pass.error.get_or_insert(format!("ledger: {err}"));
            }
        }
        pass
    }

    /// Checks a pass against the reference and returns its failed cells: the cells
    /// whose backend failed, or every cell of a pass whose report is wrong.
    fn check(&mut self, pass: &mut Pass) -> usize {
        let problem = match (&pass.error, &self.reference) {
            (Some(err), _) => Some(err.clone()),
            (None, Some(reference)) if pass.report_json != *reference => {
                Some("a pass's report differs from the reference".to_string())
            }
            (None, _) => None,
        };
        if let Some(problem) = problem {
            self.errors.push(problem);
            return pass.cells;
        }
        let report = pass
            .report
            .take()
            .expect("checked passes carry their report");
        let failed = report.cells.iter().filter(|c| c.failure.is_some()).count();
        if self.reference.is_none() {
            self.reference = Some(pass.report_json.clone());
        }
        self.report.get_or_insert(report);
        failed
    }
}

/// Cold set-up before the first timed pass: the scaled workload surfaces,
/// `Campaign::new`, the recording on `trace-replay` and, where the caches need it,
/// one checked warm-up pass. Returns the bench, the set-up seconds and the seconds
/// of the surface build alone.
fn set_up(kind: Kind, seed: u64) -> (Bench, f64, f64) {
    let started = Instant::now();
    let spec = kind.spec(seed);
    // Built cold through the same process-wide pool the executor reads.
    let t = Instant::now();
    for app in &spec.applications {
        std::hint::black_box(Workload::scaled_cached(*app, spec.scale.space_size));
    }
    let surface_build_s = t.elapsed().as_secs_f64();
    let mut bench = Bench {
        campaign: Campaign::new(spec),
        recording: None,
        reference: None,
        report: None,
        errors: Vec::new(),
    };
    if kind == Kind::TraceReplay {
        let (report, trace) = bench.campaign.record_with_workers(1);
        bench.reference = Some(report.to_json());
        bench.recording = Some(Recording {
            trace: Arc::new(trace),
            encoded: None,
        });
    }
    if kind.warms_up() {
        let mut warm = bench.pass(&Probe::Clock);
        bench.check(&mut warm);
    }
    (bench, started.elapsed().as_secs_f64(), surface_build_s)
}

/// Repeats the cold set-up in a fresh process, which is the only way to empty the
/// process-wide caches, and returns its set-up seconds.
fn setup_replica(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-only", "--workload", args.kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("set-up replica: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().map(str::parse::<f64>) {
        Some(Ok(secs)) if out.status.success() => Ok(secs),
        _ => Err(format!("set-up replica failed: {}", out.status)),
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn median_elapsed(passes: &[Pass]) -> f64 {
    median(
        &passes
            .iter()
            .map(|p| p.elapsed.as_secs_f64())
            .collect::<Vec<_>>(),
    )
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The report the quality metrics describe: the workload's campaign at its default
/// seed, checked against the pin where one exists. Quality varies from seed to seed
/// far more than any bound allows (the mean CoV of the 16 sweep cells ranges from
/// 0.6% to 3.0% over seeds 1-5), so the behaviour guard is one fixed campaign: it
/// reads bit-identically on every run, and any change in behaviour moves it.
fn default_seed_report(args: &Args, bench: &Bench) -> Result<CampaignReport, String> {
    let seed = args.kind.default_seed();
    let report = match &bench.report {
        Some(report) if args.seed == seed => report.clone(),
        _ => Campaign::new(args.kind.spec(seed)).run_with_workers(1),
    };
    let found = fnv1a(&report.to_json());
    if args.kind != Kind::Gauntlet && found != FIG15_PIN {
        return Err(format!(
            "fig15 report fingerprint {found} differs from the pinned {FIG15_PIN}"
        ));
    }
    if report.cells.iter().any(|c| c.failure.is_some()) {
        return Err("a cell of the default-seed campaign failed".into());
    }
    Ok(report)
}

/// The deterministic quality of a report: the mean gap of the chosen configurations
/// to the dedicated-environment optimum of their app and VM, and their mean measured
/// CoV, both in percent.
fn quality(spec: &CampaignSpec, report: &CampaignReport) -> (f64, f64) {
    let cells = spec.cells();
    let mut optimum: BTreeMap<(String, String), f64> = BTreeMap::new();
    let (mut gap, mut cov) = (0.0, 0.0);
    for result in &report.cells {
        let cell = &cells[result.index];
        let key = (result.application.clone(), result.vm.clone());
        let best = *optimum.entry(key).or_insert_with(|| {
            let workload = Workload::scaled_cached(cell.application, spec.scale.space_size);
            OracleTuner::new().optimal_time(&workload, cell.vm)
        });
        gap += (result.mean_time / best - 1.0) * 100.0;
        cov += result.cov_percent;
    }
    let n = report.cells.len() as f64;
    (gap / n, cov / n)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    // Measurements run with tracing off; only a traced pass turns it on.
    set_obs_enabled(false);
    let reference_s = reference::best_of(REFERENCE_CALLS);
    let (bench, setup_s, surface_build_s) = set_up(args.kind, args.seed);
    // Set-up time at the reference host speed (`src/reference.rs`).
    let setup_s = setup_s * reference::REFERENCE_S / reference_s;
    if args.setup_only {
        for err in &bench.errors {
            eprintln!("perfbench: FAILED: {err}");
        }
        println!("{setup_s:?}");
        return if bench.errors.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if args.trace {
        traced_run(&args, bench, surface_build_s)
    } else {
        untraced_run(&args, bench, setup_s)
    }
}

fn untraced_run(args: &Args, mut bench: Bench, setup_s: f64) -> ExitCode {
    let budget = Duration::from_secs_f64(args.seconds);
    let children = SETUP_REPLICAS - 1;
    let started = Instant::now();
    // Wall time spent in set-up replicas, which does not count against the budget.
    let mut in_replicas = Duration::ZERO;
    let mut setups = vec![setup_s];
    let mut passes = Vec::new();
    // Each cell at its fastest over the run, and likewise the lead before the first
    // cell: a pass is deterministic, so repeated timings of one cell differ only by
    // the host's speed, which swings between two states about 1.5x apart (README,
    // "Noise"). The best of many timings reads the program in the fast state.
    let grid = bench.campaign.spec().grid_size();
    let mut best_lead = f64::INFINITY;
    let mut best = vec![f64::INFINITY; grid];
    // The host-speed reference at its fastest over the run: it scales the timings
    // to the reference host speed (`src/reference.rs`), which undoes the stretches
    // of a run the host spends slow.
    let mut reference_s = f64::INFINITY;
    let mut replica_failed = false;
    let mut failed = 0;
    loop {
        let measured = started.elapsed() - in_replicas;
        let done = setups.len() - 1;
        let due = done as f64 * args.seconds / children as f64 <= measured.as_secs_f64();
        if done < children && due && !replica_failed {
            let t = Instant::now();
            match setup_replica(args) {
                Ok(secs) => setups.push(secs),
                Err(err) => {
                    bench.errors.push(err);
                    replica_failed = true;
                }
            }
            in_replicas += t.elapsed();
            continue;
        }
        if measured >= budget && passes.len() >= MIN_PASSES {
            break;
        }
        reference_s = reference_s.min(reference::best_of(REFERENCE_CALLS));
        let mut pass = bench.pass(&Probe::Clock);
        failed += bench.check(&mut pass);
        if pass.cell_latencies.len() == grid {
            best_lead = best_lead.min(pass.lead_s);
            for (cell, secs) in best.iter_mut().zip(&pass.cell_latencies) {
                *cell = cell.min(*secs);
            }
        }
        passes.push(pass);
    }
    let peak_rss_mb = peak_rss_mb();
    let cells: usize = passes.iter().map(|p| p.cells).sum();
    let fastest_pass = best_lead + best.iter().sum::<f64>();
    best.sort_by(f64::total_cmp);
    let to_reference = reference::REFERENCE_S / reference_s;
    let (p50_s, p90_s) = (harrell_davis(&best, 0.5), harrell_davis(&best, 0.9));
    let (gap, cov, core_hours) = match default_seed_report(args, &bench) {
        Ok(report) => {
            let (gap, cov) = quality(bench.campaign.spec(), &report);
            (gap, cov, report.total_core_hours)
        }
        Err(err) => {
            bench.errors.push(err);
            failed += grid;
            (f64::NAN, f64::NAN, f64::NAN)
        }
    };
    // The default-seed campaign's cells are checked too, so they count as attempted.
    let attempted = cells + grid;
    let failed_frac = failed as f64 / attempted as f64;
    let metrics = vec![
        metric(
            "cells_per_s",
            grid as f64 / (fastest_pass * to_reference),
            "cells/s",
            passes.len(),
        ),
        metric("cell_p50_ms", p50_s * to_reference * 1e3, "ms", grid),
        metric("cell_p90_ms", p90_s * to_reference * 1e3, "ms", grid),
        metric("setup_s", median(&setups), "s", setups.len()),
        metric("peak_rss_mb", peak_rss_mb, "MiB", 1),
        metric("champion_gap_pct", gap, "%", grid),
        metric("champion_cov_pct", cov, "%", grid),
        metric("tuning_core_hours", core_hours, "core-h", 1),
        metric("ok_frac", 1.0 - failed_frac, "ratio", attempted),
    ];
    // The same timings at the host's own speed, and the reference that scaled them.
    let shown = [
        metric("failed_frac", failed_frac, "ratio", attempted),
        metric(
            "host.cells_per_s",
            grid as f64 / fastest_pass,
            "cells/s",
            passes.len(),
        ),
        metric("host.cell_p50_ms", p50_s * 1e3, "ms", grid),
        metric("host.cell_p90_ms", p90_s * 1e3, "ms", grid),
        metric(
            "host.reference_ms",
            reference_s * 1e3,
            "ms",
            REFERENCE_CALLS * passes.len(),
        ),
    ];
    finish(args, &metrics, &shown, attempted, failed, &bench.errors)
}

fn traced_run(args: &Args, mut bench: Bench, surface_build_s: f64) -> ExitCode {
    let ledger = Ledger::shared(bench.campaign.spec().scale.evaluation_runs);
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut failed = 0;
    while started.elapsed() < budget || traced.len() < MIN_TRACED_PASSES {
        let mut pass = bench.pass(&Probe::Clock);
        failed += bench.check(&mut pass);
        plain.push(pass);
        let mut pass = bench.traced_pass(&ledger);
        failed += bench.check(&mut pass);
        traced.push(pass);
    }
    let cells: usize = plain.iter().chain(&traced).map(|p| p.cells).sum();
    let ledgers: Vec<&PassLedger> = traced.iter().filter_map(|p| p.ledger.as_ref()).collect();
    if ledgers.len() != traced.len() {
        bench.errors.push("a traced pass produced no ledger".into());
        return finish(args, &[], &[], cells, failed.max(1), &bench.errors);
    }
    // Work counters must repeat exactly from pass to pass.
    let counters = |p: &Pass, l: &PassLedger| {
        [
            p.sim_ops,
            l.games,
            l.player_slots,
            l.solo_calls,
            p.trace_bytes as u64,
            l.rounds,
            l.preemptions,
        ]
    };
    let first = counters(&traced[0], ledgers[0]);
    if traced
        .iter()
        .zip(&ledgers)
        .any(|(p, l)| counters(p, l) != first)
        || plain.iter().any(|p| p.sim_ops != traced[0].sim_ops)
    {
        bench
            .errors
            .push("work counters differ between passes".into());
    }
    // Every per-layer figure comes from the median traced pass, so they add up.
    let mut order: Vec<usize> = (0..traced.len()).collect();
    order.sort_by_key(|i| traced[*i].elapsed);
    let mid = order[order.len() / 2];
    let (pass, l) = (&traced[mid], ledgers[mid]);
    let n = traced.len();
    let trace_events = bench
        .recording
        .as_ref()
        .map_or(0, |r| r.trace.events_total());
    let overhead_pct = (median_elapsed(&traced) / median_elapsed(&plain) - 1.0) * 100.0;
    let ns_per_slot = if l.player_slots == 0 {
        0.0
    } else {
        l.batch_s * 1e9 / l.player_slots as f64
    };
    let count = |value: u64| value as f64;
    let mut metrics = vec![
        metric("campaign.cell_s", l.cell_s, "s", n),
        metric("campaign.cells", count(l.cells), "count", n),
        metric("campaign.backend_new_s", l.backend_new_s, "s", n),
        metric("campaign.unattributed_s", l.unattributed_s, "s", n),
    ];
    for (i, phase) in PHASES.iter().enumerate() {
        let self_s = l.phase_s[i] - l.phase_exec_s[i];
        metrics.push(metric(
            format!("tournament.{phase}_s"),
            l.phase_s[i],
            "s",
            n,
        ));
        metrics.push(metric(format!("tournament.{phase}_self_s"), self_s, "s", n));
    }
    metrics.push(metric(
        "tournament.exec_outside_s",
        l.tournament_exec_outside_s,
        "s",
        n,
    ));
    metrics.push(metric("tournament.rounds", count(l.rounds), "count", n));
    for tuner in TUNERS {
        let secs = l.tuner_cell_s.get(tuner).copied().unwrap_or(0.0);
        metrics.push(metric(format!("tuner.{tuner}.cell_s"), secs, "s", n));
    }
    metrics.extend([
        metric("tuner.self_s", l.tuner_self_s, "s", n),
        metric("tuner.exec_s", l.tuner_exec_s, "s", n),
        metric("exec.batch_s", l.batch_s, "s", n),
        metric("exec.batch_calls", count(l.batch_calls), "count", n),
        metric("exec.games", count(l.games), "count", n),
        metric("exec.player_slots", count(l.player_slots), "count", n),
        metric("exec.game_s", l.game_s, "s", n),
        metric("exec.game_calls", count(l.game_calls), "count", n),
        metric("exec.solo_s", l.solo_s, "s", n),
        metric("exec.solo_calls", count(l.solo_calls), "count", n),
        metric("exec.observe_s", l.observe_s, "s", n),
        metric("exec.observe_calls", count(l.observe_calls), "count", n),
        metric("exec.final_eval_s", l.final_eval_s, "s", n),
        metric("exec.fork_s", l.fork_s, "s", n),
        metric("exec.forks", count(l.forks), "count", n),
        metric("exec.sim_ops", count(pass.sim_ops), "count", n),
        metric("exec.ns_per_player_slot", ns_per_slot, "ns", n),
        metric("json.trace_encode_s", pass.trace_encode_s, "s", n),
        metric("json.trace_decode_s", pass.trace_decode_s, "s", n),
        metric("json.trace_bytes", pass.trace_bytes as f64, "bytes", n),
        metric("trace.events", trace_events as f64, "count", n),
        metric("json.report_encode_s", pass.report_encode_s, "s", n),
        metric(
            "json.report_bytes",
            pass.report_json.len() as f64,
            "bytes",
            n,
        ),
        metric("workloads.surface_build_s", surface_build_s, "s", 1),
        metric("scenario.timelines", count(l.timelines), "count", n),
        metric("scenario.preemptions", count(l.preemptions), "count", n),
        metric("obs.events", count(l.events), "count", n),
        metric(
            "obs.trace_overhead_pct",
            overhead_pct,
            "%",
            plain.len().min(n),
        ),
    ]);
    println!(
        "ledger: cell {:.4} s = backend {:.4} + phases {:.4} + tournament exec outside \
         phases {:.4} + tuner self {:.4} + tuner exec {:.4} + final eval {:.4} \
         + unattributed {:.4}",
        l.cell_s,
        l.backend_new_s,
        l.phase_s.iter().sum::<f64>(),
        l.tournament_exec_outside_s,
        l.tuner_self_s,
        l.tuner_exec_s,
        l.final_eval_s,
        l.unattributed_s,
    );
    finish(args, &metrics, &[], cells, failed, &bench.errors)
}

/// Prints the human-readable table (`shown` rows are printed but not part of the
/// JSON result), then the one-line JSON result, and picks the exit code.
fn finish(
    args: &Args,
    metrics: &[Metric],
    shown: &[Metric],
    attempted: usize,
    failed: usize,
    errors: &[String],
) -> ExitCode {
    let correct = errors.is_empty() && failed == 0;
    println!(
        "perfbench {} seed={} trace={} (closed loop, one client, one worker)",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    for m in metrics.iter().chain(shown) {
        println!(
            "  {:<28} {:>18.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for err in errors {
        eprintln!("perfbench: FAILED: {err}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // A failed run may lack a value; keep the line valid JSON regardless.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
