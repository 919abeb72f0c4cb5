//! `mark-steady`: one `course::pipeline::run_cell` cell — steady
//! Poisson arrivals under a burst fault storm, default
//! `PipelineConfig`, a `TaskRuntime` with one worker per core.
//!
//! The untraced run times whole cells. The traced run also replays the
//! cell's stage calls on the same seeded cohort (`generate_tick`, then
//! parse, rules, scoring and the explorer spot-check per submission,
//! fanned out in marker-sized batches on the same runtime) so each
//! stage's self time is measured; whatever part of the cell's wall
//! clock the replayed stages do not cover is the ledger, queue,
//! supervision and tick-loop work (`pipeline.unattributed_s`).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use course::assessment::{score_analysis, AutoMarkRubric};
use course::pipeline::cohort::{generate_tick, spot_eligible};
use course::pipeline::report::fnv1a;
use course::{run_cell, CellReport, PipelineConfig};
use faultsim::FaultStorm;
use parc_analyze::diag;
use parc_analyze::genprog::{DEADLOCK_CLASS, RACE_CLASS};
use parc_explore::Config;
use parc_loadgen::ArrivalProcess;
use parc_trace::TraceHandle;
use parc_util::rng::{SplitMix64, Xoshiro256};
use partask::TaskRuntime;

use crate::trace::{layer_times, SpanFile, Tracer};
use crate::{oracle, stats, Opts, Outcome, Setups};

/// Mean submissions per tick; with the default 60 arrival ticks a
/// cell generates about 144,000 submissions.
const RATE_PER_TICK: f64 = 2400.0;

/// One cohort: the arrivals, storm and pipeline configuration of a
/// cell. Cohort `k` of a seed draws its own submissions and storm.
struct Cohort {
    arrival: ArrivalProcess,
    storm: FaultStorm,
    cfg: PipelineConfig,
}

fn cohort(seed: u64, k: u64) -> Cohort {
    let s = SplitMix64::mix(seed ^ k.rotate_left(40));
    Cohort {
        arrival: ArrivalProcess::PoissonSteady {
            rate: RATE_PER_TICK,
        },
        storm: FaultStorm::burst(SplitMix64::mix(s ^ 0x5707)),
        cfg: PipelineConfig {
            seed: SplitMix64::mix(s ^ 0xC0DE),
            ..PipelineConfig::default()
        },
    }
}

fn setup(workers: usize) -> TaskRuntime {
    TaskRuntime::builder()
        .workers(workers)
        .name("perfbench-mark")
        .build()
}

/// Cells run one cohort after another, so a run's median is taken over
/// several cohorts: which submissions draw an explorer spot-check, and
/// how long that check runs, varies widely from cohort to cohort. The
/// untraced run ends by marking its first cohort again, whose
/// fingerprint must not change.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let rt = setups.time(&mut out, || setup(opts.nproc));

    let started = Instant::now();
    let mut first_fp = None;
    let mut spans = opts
        .trace
        .then(|| SpanFile::create(&opts.span_path("mark-steady")));
    let mut k = 0u64;
    loop {
        // The untraced run's last cell repeats cohort 0.
        let repeat = !opts.trace && k > 0 && started.elapsed().as_secs_f64() >= opts.seconds;
        let c = cohort(opts.seed, if repeat { 0 } else { k });
        let before = crate::partask_snapshot(&rt);
        let t = Instant::now();
        let report = run_cell(&rt, &c.arrival, &c.storm, &c.cfg, &TraceHandle::disabled());
        let wall = t.elapsed().as_secs_f64();
        let after = crate::partask_snapshot(&rt);
        k += 1;

        let fp = *first_fp.get_or_insert_with(|| report.fingerprint());
        let expect_fp = if repeat { fp } else { report.fingerprint() };
        for v in oracle::check_cell(&report, expect_fp) {
            out.errors.push(format!("cell: {v}"));
        }
        out.attempted += report.submitted;
        out.failed += report.shed;
        out.push("items_per_s", report.marked as f64 / wall);
        out.push("pass_s", wall);
        out.push("mark.subs_per_s", report.marked as f64 / wall);
        out.push(
            "failed_frac",
            stats::failed_frac(report.shed, report.submitted),
        );

        if let Some(file) = spans.as_mut() {
            push_cell_layers(&mut out, &report, &before, &after);
            let plain = replay(&rt, &c, &report, &Arc::new(Tracer::new(false)), false);
            let traced = replay(&rt, &c, &report, &Arc::new(Tracer::new(true)), true);
            out.errors.extend(plain.errors);
            out.errors.extend(traced.errors.iter().cloned());
            out.push("pipeline.unattributed_s", wall - plain.wall_s);
            out.push("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0);
            push_replay_layers(&mut out, &traced);
            file.write(&traced.spans);
            if traced.programs as u64 != report.submitted {
                out.notes.push(format!(
                    "replay generated {} programs, the cell {}",
                    traced.programs, report.submitted
                ));
            }
        }
        if setups.due(started.elapsed().as_secs_f64(), opts.seconds) {
            setups.time(&mut out, || setup(opts.nproc)).shutdown();
        }
        if repeat || (opts.trace && started.elapsed().as_secs_f64() >= opts.seconds) {
            break;
        }
    }
    while setups.due(f64::INFINITY, opts.seconds) {
        setups.time(&mut out, || setup(opts.nproc)).shutdown();
    }
    if let Some(file) = spans {
        out.note_spans(file.finish());
        out.push(
            "partask.steal_wait_p99_ms",
            rt.latencies().steal_wait_ms.p99(),
        );
    }
    let cohorts = if opts.trace { k } else { k - 1 };
    out.notes.push(format!("{k} cells over {cohorts} cohorts"));
    rt.shutdown();
    out
}

fn push_cell_layers(
    out: &mut Outcome,
    report: &CellReport,
    before: &(partask::RuntimeStats, u64),
    after: &(partask::RuntimeStats, u64),
) {
    out.push("pipeline.claims", report.claims as f64);
    out.push(
        "pipeline.useful_frac",
        stats::ratio(report.marked as f64, report.claims as f64),
    );
    out.push("pipeline.redone", report.redone as f64);
    out.push("pipeline.spot_run", report.spot_run as f64);
    out.push("pipeline.spot_degraded", report.spot_degraded as f64);
    out.push("pipeline.shed", report.shed as f64);
    out.push("supervise.kills", report.kills as f64);
    out.push("supervise.restarts", report.restarts as f64);
    crate::push_partask_delta(out, before, after);
}

/// What one replay of a cell's stage calls measured.
struct Replay {
    wall_s: f64,
    programs: usize,
    distinct: usize,
    diagnostics: u64,
    schedules: u64,
    spans: Vec<crate::trace::Span>,
    errors: Vec<String>,
}

/// What marking one submission produced.
struct Marked {
    mark: f64,
    diagnostics: usize,
    schedules: usize,
    missed: bool,
}

/// One submission's stage calls, as `cohort::mark_submission` makes
/// them, with a span around each call into a layer.
fn mark_one(
    l: &mut crate::trace::Local<'_>,
    rid: u64,
    source: &str,
    rubric: &AutoMarkRubric,
    spot: bool,
) -> Marked {
    l.span("mark.request", rid, |l| {
        let analysis = crate::lint::analyze_traced(l, rid, source);
        let score = l.span("assessment", rid, |_| score_analysis(&analysis, rubric));
        let (mut schedules, mut missed) = (0, false);
        if let (true, Some(program)) = (spot, &analysis.program) {
            let report = l.span("explore.spot", rid, |_| {
                parc_analyze::bridge::explore_program(program, Config::fuzz("spot-check"))
            });
            let claims =
                |class: &[diag::Code]| analysis.diagnostics.iter().any(|d| class.contains(&d.code));
            missed = (!report.races.is_empty() && !claims(&RACE_CLASS))
                || (report.deadlocks > 0 && !claims(&DEADLOCK_CLASS));
            schedules = report.schedules;
        }
        Marked {
            mark: score.mark,
            diagnostics: analysis.diagnostics.len(),
            schedules,
            missed,
        }
    })
}

/// Replay the cell's stage calls on the same cohort: the arrivals are
/// drawn from the cell seed exactly as `run_cell` draws them, and each
/// tick's submissions are marked in `batch_per_marker`-sized
/// `spawn_batch` fan-outs.
fn replay(
    rt: &TaskRuntime,
    c: &Cohort,
    report: &CellReport,
    tracer: &Arc<Tracer>,
    count_distinct: bool,
) -> Replay {
    let cfg = &c.cfg;
    let cell_seed = report.seed;
    let spot_seed = SplitMix64::mix(cell_seed ^ 0x590F);
    let mut arrivals = Xoshiro256::seed_from_u64(SplitMix64::mix(cell_seed ^ 0xA221));
    let rubric = Arc::new(cfg.rubric.clone());
    let mut texts: HashSet<u64> = HashSet::new();
    let mut r = Replay {
        wall_s: 0.0,
        programs: 0,
        distinct: 0,
        diagnostics: 0,
        schedules: 0,
        spans: Vec::new(),
        errors: Vec::new(),
    };
    let mut local = tracer.local(0);
    let mut next_id = 0u64;
    let started = Instant::now();
    for tick in 0..cfg.arrival_ticks {
        let n = c.arrival.sample(tick as usize, &mut arrivals);
        let subs = local.span("genprog", u64::from(tick), |_| {
            generate_tick(cell_seed, tick, n, cfg.students)
        });
        r.programs += subs.len();
        if count_distinct {
            texts.extend(subs.iter().map(|s| fnv1a(s.source.as_bytes())));
        }
        let items: Vec<(u64, String, bool)> = subs
            .into_iter()
            .map(|s| {
                let id = next_id;
                next_id += 1;
                (id, s.source, spot_eligible(spot_seed, id, cfg.spot_every))
            })
            .collect();
        for chunk in items.chunks(cfg.batch_per_marker) {
            let chunk: Arc<Vec<(u64, String, bool)>> = Arc::new(chunk.to_vec());
            let results = local.span("pipeline.fanout", u64::from(tick), |l| {
                let parent = l.current();
                let rubric = Arc::clone(&rubric);
                let work = Arc::clone(&chunk);
                let tracer = Arc::clone(tracer);
                rt.spawn_batch(work.len(), move |i| {
                    let (id, source, spot) = &work[i];
                    let mut l = tracer.local(parent);
                    let marked = mark_one(&mut l, *id, source, &rubric, *spot);
                    (marked, l.into_spans())
                })
                .join()
            });
            for res in results {
                let (marked, spans) = res.expect("marking neither panics nor cancels");
                r.diagnostics += marked.diagnostics as u64;
                r.schedules += marked.schedules as u64;
                if marked.missed {
                    r.errors
                        .push("replay: a spot-check found a finding the lint missed".into());
                }
                if !(0.0..=100.0).contains(&marked.mark) {
                    r.errors
                        .push(format!("replay: mark {} outside 0..=100", marked.mark));
                }
                r.spans.extend(spans);
            }
        }
    }
    r.wall_s = started.elapsed().as_secs_f64();
    r.spans.extend(local.into_spans());
    r.distinct = texts.len();
    r
}

fn push_replay_layers(out: &mut Outcome, r: &Replay) {
    let t = layer_times(&r.spans);
    let busy = |name: &str| t.get(name).map_or(0.0, |x| x.self_s);
    let calls = |name: &str| t.get(name).map_or(0, |x| x.count) as f64;
    out.push("genprog.busy_s", busy("genprog"));
    out.push("genprog.programs", r.programs as f64);
    out.push("analyze.parse.busy_s", busy("analyze.parse"));
    out.push("analyze.parse.calls", calls("analyze.parse"));
    out.push("analyze.rules.busy_s", busy("analyze.rules"));
    out.push("analyze.diagnostics", r.diagnostics as f64);
    out.push(
        "analyze.distinct_frac",
        stats::distinct_frac(r.distinct, calls("analyze.parse") as usize),
    );
    out.push("assessment.busy_s", busy("assessment"));
    out.push("explore.spot.calls", calls("explore.spot"));
    out.push("explore.spot.busy_s", busy("explore.spot"));
    out.push("explore.spot.schedules", r.schedules as f64);
}
