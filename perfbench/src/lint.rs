//! `lint-unique`: generated directive programs, each made textually
//! distinct by a per-submission comment, marked one call at a time
//! through `course::assessment::auto_mark` by closed-loop clients (one
//! per core, at most two). No two calls share an input, so reuse of
//! repeated work cannot pay here; the explorer, ledger, queues and
//! generator are not on this path (generation is set-up).
//!
//! Clients work in rounds: each builds a block of distinct texts,
//! times every call of the block, then checks the block's outcomes.
//! A round's wall clock runs from the first call to the last client's
//! last call.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use course::assessment::{auto_mark, score_analysis, AutoMarkOutcome, AutoMarkRubric};
use course::pipeline::report::fnv1a;
use parc_analyze::{diag, genprog, parse, rules, Analysis};

use crate::oracle::{self, LintRef};
use crate::trace::{layer_times, Local, Span, SpanFile, Tracer};
use crate::{stats, Opts, Outcome, Setups};

/// Distinct generated sources the stream cycles through.
const POOL: usize = 2000;
/// Calls per client per round.
const BLOCK: usize = 5000;
/// Most closed-loop clients, whatever the core count.
const MAX_CLIENTS: usize = 2;

struct Pool {
    sources: Vec<String>,
    refs: Vec<LintRef>,
}

/// Generate the pool and lint each unmodified source once, for the
/// oracle.
fn setup(seed: u64, rubric: &AutoMarkRubric) -> Pool {
    let mut sources = Vec::with_capacity(POOL);
    let mut refs = Vec::with_capacity(POOL);
    for p in genprog::generate(seed, POOL) {
        let mut source = p.source;
        if !source.ends_with('\n') {
            source.push('\n');
        }
        let a = parc_analyze::analyze(&source);
        let s = score_analysis(&a, rubric);
        refs.push(LintRef {
            codes: a.diagnostics.iter().map(|d| d.code).collect(),
            mark: s.mark,
            parsed: s.parsed,
        });
        sources.push(source);
    }
    Pool { sources, refs }
}

/// The parse and rule calls `parc_analyze::analyze` makes, one span
/// each, under an `analyze` span that also covers sorting and dedup.
pub fn analyze_traced(l: &mut Local<'_>, rid: u64, source: &str) -> Analysis {
    l.span("analyze", rid, |l| {
        let (program, mut diagnostics) =
            l.span("analyze.parse", rid, |_| parse::parse_recover(source));
        if let Some(p) = &program {
            diagnostics.extend(l.span("analyze.rules", rid, |_| rules::check(p)));
            diag::sort_diagnostics(&mut diagnostics);
            diagnostics
                .dedup_by(|a, b| a.code == b.code && a.span == b.span && a.message == b.message);
        }
        Analysis {
            program,
            diagnostics,
        }
    })
}

/// One client's block: the distinct texts it marks and the pool index
/// each came from.
struct Block {
    texts: Vec<String>,
    base: Vec<usize>,
}

fn make_block(pool: &Pool, client: usize, round: u64) -> Block {
    let mut texts = Vec::with_capacity(BLOCK);
    let mut base = Vec::with_capacity(BLOCK);
    for k in 0..BLOCK {
        let i = (round as usize * BLOCK + k + client * 7919) % POOL;
        texts.push(format!(
            "{}// submission {client}-{round}-{k}\n",
            pool.sources[i]
        ));
        base.push(i);
    }
    Block { texts, base }
}

/// What one client's block measured.
struct BlockRun {
    latencies_us: Vec<f64>,
    end: Instant,
    spans: Vec<Span>,
    diagnostics: u64,
    errors: Vec<String>,
}

/// Untraced: the real `auto_mark` call, timed one call at a time.
fn run_block(pool: &Pool, block: &Block, rubric: &AutoMarkRubric) -> BlockRun {
    let mut latencies_us = Vec::with_capacity(BLOCK);
    let mut outcomes: Vec<AutoMarkOutcome> = Vec::with_capacity(BLOCK);
    for text in &block.texts {
        let t = Instant::now();
        let o = auto_mark(text, rubric);
        latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        outcomes.push(o);
    }
    let end = Instant::now();
    let errors = outcomes
        .iter()
        .zip(&block.base)
        .filter_map(|(o, &i)| oracle::check_lint(o, &pool.refs[i]).err())
        .collect();
    BlockRun {
        latencies_us,
        end,
        spans: Vec::new(),
        diagnostics: 0,
        errors,
    }
}

/// Traced: the layer calls `auto_mark` makes (parse, rules, scoring),
/// one span each, under a per-request root span.
fn run_block_traced(
    pool: &Pool,
    block: &Block,
    rubric: &AutoMarkRubric,
    tracer: &Tracer,
    rid0: u64,
) -> BlockRun {
    let mut l = tracer.local(0);
    let mut latencies_us = Vec::with_capacity(BLOCK);
    let mut results = Vec::with_capacity(BLOCK);
    for (k, text) in block.texts.iter().enumerate() {
        let rid = rid0 + k as u64;
        let t = Instant::now();
        let r = l.span("lint.request", rid, |l| {
            let analysis = analyze_traced(l, rid, text);
            let score = l.span("assessment", rid, |_| score_analysis(&analysis, rubric));
            let codes: Vec<diag::Code> = analysis.diagnostics.iter().map(|d| d.code).collect();
            (codes, score)
        });
        latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        results.push(r);
    }
    let end = Instant::now();
    let mut diagnostics = 0;
    let mut errors = Vec::new();
    for ((codes, score), &i) in results.iter().zip(&block.base) {
        diagnostics += codes.len() as u64;
        if let Err(e) = oracle::check_codes(codes, score.mark, score.parsed, &pool.refs[i]) {
            errors.push(e);
        }
    }
    BlockRun {
        latencies_us,
        end,
        spans: l.into_spans(),
        diagnostics,
        errors,
    }
}

/// Run one round: every client marks its block, through the real
/// `auto_mark` when `tracer` is `None`, through the traced layer calls
/// otherwise (a disabled tracer gives the same calls untraced). Returns
/// the round's wall clock and each client's run.
fn round(
    pool: &Pool,
    blocks: &[Block],
    rubric: &AutoMarkRubric,
    round_no: u64,
    tracer: Option<&Tracer>,
) -> (Duration, Vec<BlockRun>) {
    let start = Instant::now();
    let runs: Vec<BlockRun> = std::thread::scope(|s| {
        let handles: Vec<_> = blocks
            .iter()
            .enumerate()
            .map(|(c, b)| {
                s.spawn(move || match tracer {
                    None => run_block(pool, b, rubric),
                    Some(t) => {
                        run_block_traced(pool, b, rubric, t, (round_no << 32) | ((c as u64) << 24))
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lint client panicked"))
            .collect()
    });
    let end = runs
        .iter()
        .map(|r| r.end)
        .max()
        .expect("at least one client");
    (end - start, runs)
}

pub fn run(opts: &Opts) -> Outcome {
    let rubric = AutoMarkRubric::default();
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let pool = setups.time(&mut out, || setup(opts.seed, &rubric));
    let clients = opts.nproc.clamp(1, MAX_CLIENTS);
    out.notes.push(format!(
        "{clients} closed-loop client(s), {BLOCK} calls each per round"
    ));

    let started = Instant::now();
    let mut spans = opts
        .trace
        .then(|| SpanFile::create(&opts.span_path("lint-unique")));
    let mut texts: HashSet<u64> = HashSet::new();
    let mut round_no = 0u64;
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    while round_no < 2 || started.elapsed().as_secs_f64() < opts.seconds {
        // A traced run alternates the layer calls untraced and traced;
        // the untraced rounds are the baseline for the tracing overhead.
        let blocks: Vec<Block> = (0..clients)
            .map(|c| make_block(&pool, c, round_no))
            .collect();
        let traced = opts.trace && round_no % 2 == 1;
        let tracer = opts.trace.then(|| Tracer::new(traced));
        let (wall, runs) = round(&pool, &blocks, &rubric, round_no, tracer.as_ref());
        round_no += 1;
        if setups.due(started.elapsed().as_secs_f64(), opts.seconds) {
            drop(setups.time(&mut out, || setup(opts.seed, &rubric)));
        }
        let calls = clients * BLOCK;
        out.attempted += calls as u64;
        let mut lat: Vec<f64> = Vec::with_capacity(calls);
        let mut all_spans = Vec::new();
        let mut diagnostics = 0;
        for r in runs {
            out.errors.extend(r.errors.into_iter().take(3));
            lat.extend(r.latencies_us);
            all_spans.extend(r.spans);
            diagnostics += r.diagnostics;
        }
        lat.sort_by(f64::total_cmp);
        let wall_s = wall.as_secs_f64();
        if !traced {
            plain_s.push(wall_s);
            if !opts.trace {
                out.push("items_per_s", calls as f64 / wall_s);
                out.push("pass_s", wall_s);
                out.push("lint.progs_per_s", calls as f64 / wall_s);
                out.push("lint.p50_us", stats::percentile(&lat, 50.0));
                if stats::tail_count(lat.len(), 99.0) >= stats::MIN_TAIL {
                    out.push("lint.p99_us", stats::percentile(&lat, 99.0));
                }
                out.push("failed_frac", 0.0);
            }
            continue;
        }
        traced_s.push(wall_s);
        let file = spans.as_mut().expect("traced runs write spans");
        file.write(&all_spans);
        // Distinctness is measured, not assumed: hash every text of the
        // round (outside the timed calls).
        let before = texts.len();
        for b in &blocks {
            texts.extend(b.texts.iter().map(|t| fnv1a(t.as_bytes())));
        }
        let t = layer_times(&all_spans);
        let busy = |name: &str| t.get(name).map_or(0.0, |x| x.self_s);
        let count = |name: &str| t.get(name).map_or(0, |x| x.count) as f64;
        out.push("analyze.parse.busy_s", busy("analyze.parse"));
        out.push("analyze.parse.calls", count("analyze.parse"));
        out.push("analyze.rules.busy_s", busy("analyze.rules"));
        out.push("analyze.diagnostics", diagnostics as f64);
        out.push(
            "analyze.distinct_frac",
            stats::distinct_frac(texts.len() - before, calls),
        );
        out.push("assessment.busy_s", busy("assessment"));
    }
    while setups.due(f64::INFINITY, opts.seconds) {
        drop(setups.time(&mut out, || setup(opts.seed, &rubric)));
    }
    if let Some(file) = spans {
        out.note_spans(file.finish());
        let plain = stats::Summary::of(&plain_s).median;
        let traced = stats::Summary::of(&traced_s).median;
        out.push("trace.overhead_frac", traced / plain - 1.0);
    }
    out
}
