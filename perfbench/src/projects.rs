//! `projects`: one pass over the compute-bound student projects on
//! Parallel Task (`partask`) and Pyjama, with a GUI responsiveness
//! probe running throughout. Every kernel call is timed; the pass time
//! is their sum. Sizes make each kernel run for tens of milliseconds and
//! keep any one kernel well under half the pass.
//!
//! E6 (trivial), E8 (times deliberate races) and E10 (times
//! `thread::sleep`) are left out; E7 searches the same way as E4.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use docsearch::corpus::{generate_tree, CorpusConfig};
use docsearch::{search_folder, Dir, Query};
use guievent::{EventLoop, Probe};
use imaging::{render_gallery, GalleryConfig, Image, Strategy};
use kernels::{fft, graph, linalg, montecarlo, Complex, CsrGraph, Matrix};
use parc_util::rng::SplitMix64;
use partask::TaskRuntime;
use pyjama::{MapMerge, Schedule, SetUnion, SumRed, Team};
use taskcol::workload::{run_map_workload, MapWorkload};
use taskcol::{ConcurrentMap, ShardedMap};

use crate::oracle::{check_equal, check_err};
use crate::trace::{layer_times, Local, SpanFile, Tracer};
use crate::{stats, Opts, Outcome, Setups};

const IMAGES: usize = 96;
const SORT_N: usize = 1_000_000;
const FFT_N: usize = 1 << 19;
const GRAPH_N: usize = 150_000;
const GRAPH_M: usize = 750_000;
const PAGERANK_ITERS: usize = 20;
const MATMUL_N: usize = 384;
const PI_STEPS: usize = 20_000_000;
const REDUCE_N: usize = 2_000_000;
const MAP_OPS_PER_THREAD: usize = 200_000;

struct Inputs {
    images: Arc<Vec<Image>>,
    sort: Vec<u64>,
    signal: Vec<Complex>,
    graph: CsrGraph,
    a: Matrix,
    b: Matrix,
    tree: Dir,
    planted: usize,
    needle: String,
    map: MapWorkload,
}

struct Engines {
    rt: TaskRuntime,
    team: Team,
    gui: EventLoop,
}

impl Engines {
    fn shutdown(self) {
        self.rt.shutdown();
        self.gui.shutdown();
    }
}

fn setup(seed: u64, workers: usize) -> (Engines, Inputs) {
    let s = |k: u64| SplitMix64::mix(seed ^ k);
    let engines = Engines {
        rt: TaskRuntime::builder()
            .workers(workers)
            .name("perfbench-projects")
            .build(),
        team: Team::new(workers),
        gui: EventLoop::spawn(),
    };
    let corpus = CorpusConfig {
        files_per_dir: 24,
        dirs_per_level: 3,
        depth: 3,
        lines_per_file: 120,
        needle_rate: 0.03,
        seed: s(4),
        ..CorpusConfig::default()
    };
    let (tree, planted) = generate_tree(&corpus);
    let inputs = Inputs {
        images: Arc::new(imaging::gen::generate_folder(IMAGES, 192, 384, s(1))),
        sort: parsort::data::random(SORT_N, s(2)),
        signal: fft::test_signal(FFT_N, s(3)),
        graph: CsrGraph::random(GRAPH_N, GRAPH_M, s(5)),
        a: Matrix::random(MATMUL_N, MATMUL_N, s(6)),
        b: Matrix::random(MATMUL_N, MATMUL_N, s(7)),
        tree,
        planted,
        needle: corpus.needle,
        map: MapWorkload {
            threads: workers,
            ops_per_thread: MAP_OPS_PER_THREAD,
            seed: s(8),
            ..MapWorkload::default()
        },
    };
    (engines, inputs)
}

/// Sequential references every pass is checked against, computed once
/// after set-up.
struct Refs {
    thumbs: Vec<u64>,
    sorted: Vec<u64>,
    fft: Vec<Complex>,
    pagerank: Vec<f64>,
    matmul: Matrix,
}

fn gallery(strategy: Strategy) -> GalleryConfig {
    GalleryConfig {
        thumb_w: 64,
        thumb_h: 64,
        strategy,
        ..GalleryConfig::default()
    }
}

fn thumb_hashes(e: &Engines, inp: &Inputs, strategy: Strategy) -> Vec<u64> {
    render_gallery(&inp.images, &gallery(strategy), &e.rt, &e.team, None)
        .thumbnails
        .iter()
        .map(Image::content_hash)
        .collect()
}

fn references(e: &Engines, inp: &Inputs) -> Refs {
    let mut sorted = inp.sort.clone();
    sorted.sort_unstable();
    let mut fft = inp.signal.clone();
    fft::fft_seq(&mut fft);
    Refs {
        thumbs: thumb_hashes(e, inp, Strategy::Sequential),
        sorted,
        fft,
        pagerank: graph::pagerank_seq(&inp.graph, 0.85, PAGERANK_ITERS),
        matmul: linalg::matmul_seq(&inp.a, &inp.b),
    }
}

fn max_abs_diff(a: impl Iterator<Item = f64>) -> f64 {
    a.fold(
        0.0,
        |m, d| if d.is_nan() { f64::NAN } else { m.max(d.abs()) },
    )
}

/// The kernels of one pass, in the order [`call`] numbers them: span
/// name and the engine the kernel runs on.
const KERNELS: [(&str, Engine); 11] = [
    ("imaging.render", Engine::Partask),
    ("imaging.render", Engine::Pyjama),
    ("sort.partask", Engine::Partask),
    ("sort.pyjama", Engine::Pyjama),
    ("kernels.fft", Engine::Pyjama),
    ("kernels.pagerank", Engine::Pyjama),
    ("kernels.matmul", Engine::Pyjama),
    ("kernels.pi", Engine::Pyjama),
    ("docsearch.search", Engine::Partask),
    ("reductions", Engine::Pyjama),
    ("taskcol.map", Engine::Threads),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    Partask,
    Pyjama,
    Threads,
}

/// What one kernel call produced, for the oracle and the layer metrics.
struct Call {
    secs: f64,
    check: Result<(), String>,
    ops_per_s: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Time one call into kernel `k`'s public function, inside its span.
fn timed_in<T>(l: &mut Local<'_>, k: usize, rid: u64, f: impl FnOnce() -> T) -> (T, f64) {
    l.span(KERNELS[k].0, rid, |_| timed(f))
}

/// Run kernel `k` once and check its output; inputs are copied and
/// outputs checked outside the timed call.
fn call(k: usize, e: &Engines, inp: &Inputs, refs: &Refs, l: &mut Local<'_>, rid: u64) -> Call {
    let mut ops_per_s = 0.0;
    let (check, secs) = match k {
        0 | 1 => {
            let strategy = if k == 0 {
                Strategy::TaskPerImage
            } else {
                Strategy::PyjamaDynamic(2)
            };
            let cfg = gallery(strategy);
            let (r, s) = timed_in(l, k, rid, || {
                render_gallery(&inp.images, &cfg, &e.rt, &e.team, None)
            });
            let hashes: Vec<u64> = r.thumbnails.iter().map(Image::content_hash).collect();
            (
                check_equal(
                    &format!("thumbnails {}", strategy.label()),
                    &hashes,
                    &refs.thumbs,
                ),
                s,
            )
        }
        2 | 3 => {
            let mut v = inp.sort.clone();
            let s = if k == 2 {
                timed_in(l, k, rid, || parsort::quicksort_partask(&e.rt, &mut v)).1
            } else {
                timed_in(l, k, rid, || parsort::quicksort_pyjama(&e.team, &mut v)).1
            };
            (check_equal(KERNELS[k].0, &v, &refs.sorted), s)
        }
        4 => {
            let mut v = inp.signal.clone();
            let s = timed_in(l, k, rid, || fft::fft_par(&e.team, &mut v)).1;
            let err = max_abs_diff(v.iter().zip(&refs.fft).map(|(a, b)| a.sub(*b).abs()));
            (check_err("fft", err, 1e-6), s)
        }
        5 => {
            let (pr, s) = timed_in(l, k, rid, || {
                graph::pagerank_par(&e.team, &inp.graph, 0.85, PAGERANK_ITERS)
            });
            let err = max_abs_diff(pr.iter().zip(&refs.pagerank).map(|(a, b)| a - b));
            (check_err("pagerank", err, 1e-10), s)
        }
        6 => {
            let (m, s) = timed_in(l, k, rid, || linalg::matmul_par(&e.team, &inp.a, &inp.b));
            (check_err("matmul", m.max_diff(&refs.matmul), 1e-9), s)
        }
        7 => {
            let (pi, s) = timed_in(l, k, rid, || {
                montecarlo::pi_quadrature_par(&e.team, PI_STEPS, Schedule::Static)
            });
            (check_err("pi", (pi - std::f64::consts::PI).abs(), 1e-8), s)
        }
        8 => {
            let q = Query::literal(&inp.needle);
            let (r, s) = timed_in(l, k, rid, || {
                search_folder(&e.rt, &inp.tree, &q, None, None)
            });
            (
                check_equal("text search matches", &r.matches.len(), &inp.planted),
                s,
            )
        }
        9 => timed_in(l, k, rid, || reductions(&e.team)),
        _ => {
            let map = Arc::new(ShardedMap::new(16));
            let (r, s) = timed_in(l, k, rid, || run_map_workload(&map, &inp.map));
            ops_per_s = r.ops_per_sec();
            (check_map(&map, &inp.map, r.total_ops), s)
        }
    };
    Call {
        secs,
        check,
        ops_per_s,
    }
}

/// E5: scalar, set-union and map-merge reductions against their closed
/// forms.
fn reductions(team: &Team) -> Result<(), String> {
    let n = REDUCE_N;
    let sum = team.par_reduce(0..n, Schedule::Static, &SumRed, |i| i as u64);
    check_equal("sum reduction", &sum, &((n as u64 - 1) * n as u64 / 2))?;
    let set: HashSet<u64> =
        team.par_reduce(0..n / 10, Schedule::Dynamic(256), &SetUnion::new(), |i| {
            HashSet::from([(i % 97) as u64])
        });
    check_equal("set-union reduction", &set.len(), &97)?;
    let red = MapMerge::new(|a: u64, b: u64| a + b);
    let counts: HashMap<u64, u64> = team.par_reduce(0..n / 10, Schedule::Guided(64), &red, |i| {
        HashMap::from([((i % 10) as u64, 1u64)])
    });
    check_equal(
        "map-merge reduction",
        &counts.values().sum::<u64>(),
        &((n / 10) as u64),
    )
}

/// E9: every operation ran, and the map holds only values the workload
/// can write (`k` from pre-population, `3k` from inserts).
fn check_map(
    map: &ShardedMap<u64, u64>,
    cfg: &MapWorkload,
    total_ops: usize,
) -> Result<(), String> {
    check_equal(
        "map operations",
        &total_ops,
        &(cfg.threads * cfg.ops_per_thread),
    )?;
    for k in 0..cfg.key_space {
        if let Some(v) = map.get(&k) {
            if v != k && v != k.wrapping_mul(3) {
                return Err(format!("map key {k} holds {v}"));
            }
        }
    }
    Ok(())
}

/// Time the sequential counterparts of the kernels that have one.
fn sequential_secs(e: &Engines, inp: &Inputs) -> [Option<f64>; 11] {
    let cfg = gallery(Strategy::Sequential);
    let render = timed(|| render_gallery(&inp.images, &cfg, &e.rt, &e.team, None)).1;
    let mut v = inp.sort.clone();
    let sort = timed(|| parsort::quicksort_seq(&mut v)).1;
    let mut f = inp.signal.clone();
    let fft_s = timed(|| fft::fft_seq(&mut f)).1;
    let pr = timed(|| graph::pagerank_seq(&inp.graph, 0.85, PAGERANK_ITERS)).1;
    let mm = timed(|| linalg::matmul_seq(&inp.a, &inp.b)).1;
    let pi = timed(|| montecarlo::pi_quadrature_seq(PI_STEPS)).1;
    [
        Some(render),
        Some(render),
        Some(sort),
        Some(sort),
        Some(fft_s),
        Some(pr),
        Some(mm),
        Some(pi),
        None,
        None,
        None,
    ]
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let (e, inp) = setups.time(&mut out, || setup(opts.seed, opts.nproc));
    let refs = references(&e, &inp);

    let started = Instant::now();
    let mut spans = opts
        .trace
        .then(|| SpanFile::create(&opts.span_path("projects")));
    let mut probe_ms: Vec<f64> = Vec::new();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut pass_no = 0u64;
    while pass_no < 2 || started.elapsed().as_secs_f64() < opts.seconds {
        // A traced run alternates untraced and traced passes; the
        // untraced ones are the baseline for the tracing overhead.
        let traced = opts.trace && pass_no % 2 == 1;
        let tracer = Tracer::new(traced);
        let mut l = tracer.local(0);
        let before = crate::partask_snapshot(&e.rt);
        let probe = Probe::start(e.gui.handle(), Duration::from_millis(1));
        let mut calls = Vec::with_capacity(KERNELS.len());
        l.span("projects.pass", pass_no, |l| {
            for k in 0..KERNELS.len() {
                calls.push(call(k, &e, &inp, &refs, l, pass_no));
            }
        });
        let samples = probe.finish().samples_ms;
        let after = crate::partask_snapshot(&e.rt);
        pass_no += 1;
        if setups.due(started.elapsed().as_secs_f64(), opts.seconds) {
            setups
                .time(&mut out, || setup(opts.seed, opts.nproc))
                .0
                .shutdown();
        }

        out.attempted += calls.len() as u64;
        for c in &calls {
            if let Err(msg) = &c.check {
                out.errors.push(msg.clone());
            }
        }
        let pass_s: f64 = calls.iter().map(|c| c.secs).sum();
        if !traced {
            plain_s.push(pass_s);
            if !opts.trace {
                out.push("items_per_s", calls.len() as f64 / pass_s);
                out.push("pass_s", pass_s);
                out.push("projects.suite_s", pass_s);
                out.push("failed_frac", 0.0);
            }
            continue;
        }
        traced_s.push(pass_s);
        let spans_now = l.into_spans();
        spans
            .as_mut()
            .expect("traced runs write spans")
            .write(&spans_now);
        let t = layer_times(&spans_now);
        for name in [
            "imaging.render",
            "sort.partask",
            "sort.pyjama",
            "kernels.fft",
            "kernels.pagerank",
            "kernels.matmul",
            "kernels.pi",
            "docsearch.search",
            "reductions",
        ] {
            out.push(
                &format!("{name}.busy_s"),
                t.get(name).map_or(0.0, |x| x.self_s),
            );
        }
        let pyjama: f64 = KERNELS
            .iter()
            .zip(&calls)
            .filter(|((_, eng), _)| *eng == Engine::Pyjama)
            .map(|(_, c)| c.secs)
            .sum();
        out.push("pyjama.busy_s", pyjama);
        out.push("taskcol.ops_per_s", calls[KERNELS.len() - 1].ops_per_s);
        crate::push_partask_delta(&mut out, &before, &after);
        probe_ms.extend(samples);

        let seq = sequential_secs(&e, &inp);
        let (mut seq_sum, mut par_sum) = (0.0, 0.0);
        for (s, c) in seq.iter().zip(&calls) {
            if let Some(s) = s {
                seq_sum += s;
                par_sum += c.secs;
            }
        }
        out.push("projects.speedup_2w", stats::ratio(seq_sum, par_sum));
    }
    while setups.due(f64::INFINITY, opts.seconds) {
        setups
            .time(&mut out, || setup(opts.seed, opts.nproc))
            .0
            .shutdown();
    }
    if let Some(file) = spans {
        out.note_spans(file.finish());
        probe_ms.sort_by(f64::total_cmp);
        out.push(
            "guievent.dispatch_p50_ms",
            stats::percentile(&probe_ms, 50.0),
        );
        if stats::tail_count(probe_ms.len(), 99.0) >= stats::MIN_TAIL {
            out.push(
                "guievent.dispatch_p99_ms",
                stats::percentile(&probe_ms, 99.0),
            );
        }
        out.notes
            .push(format!("{} GUI probe samples", probe_ms.len()));
        let lat = e.rt.latencies();
        out.push("partask.steal_wait_p99_ms", lat.steal_wait_ms.p99());
        let plain = stats::Summary::of(&plain_s).median;
        let traced = stats::Summary::of(&traced_s).median;
        out.push("trace.overhead_frac", traced / plain - 1.0);
    }
    e.shutdown();
    out
}
