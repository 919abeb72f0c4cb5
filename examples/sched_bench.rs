//! E-SCHED: scheduler fan-out throughput and steal latency.
//!
//! Measures the lock-free Chase–Lev runtime core against the
//! `Mutex<VecDeque>` substrate it replaced (still available as
//! [`SchedulerKind::WorkStealingLocked`] — the ablation baseline), at
//! 1/2/4/8 workers:
//!
//! * `locked-spawn`   — baseline: per-task `spawn` onto the locked
//!   deques, one injector lock + one boxed closure + one
//!   `Arc<Mutex<Core>>` per task.
//! * `lockfree-spawn` — the same per-task protocol on the Chase–Lev
//!   deques (isolates the deque swap).
//! * `lockfree-batch` — `spawn_batch`: one injector episode and one
//!   completion structure for the whole 10k-task fan-out (the spawn
//!   path the tentpole adds).
//! * `fanout-*`       — the fan-out issued from *inside* a worker
//!   task, so the jobs land on one worker's own deque and every other
//!   worker must steal: this is what populates the steal-latency
//!   trajectory (p50/p99 of time-to-acquire-work per steal episode).
//!
//! Artifact: first argument (default `BENCH_runtime.json`) — one
//! record per (variant, workers) with throughput, steal latency and a
//! *deterministic accounting block* (spawned/executed/pending), plus
//! the computed batch-vs-baseline speedups. The CI determinism gate
//! reruns this and diffs everything except the wall-clock fields.
//!
//! Run with: `cargo run --release --example sched_bench [OUTPUT.json]`;
//! an output path that starts with `-` is rejected with a usage line.

use std::fmt::Write as _;
use std::thread;
use std::time::{Duration, Instant};

use partask::{SchedulerKind, TaskRuntime};
use parc_util::Table;

const TASKS: usize = 10_000;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The measured body: a short pseudo-random spin so a task is cheap
/// but not empty (an empty body over-rewards the batch path).
fn busy_work(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..32 {
        x = x.wrapping_mul(x).rotate_left(7);
    }
    x & 1
}

struct Run {
    variant: &'static str,
    workers: usize,
    elapsed_ms: f64,
    tasks_per_sec: f64,
    steal_episodes: u64,
    steal_p50_ms: f64,
    steal_p99_ms: f64,
    spawned: u64,
    executed: u64,
    pending_after: usize,
}

fn build(kind: SchedulerKind, workers: usize) -> TaskRuntime {
    TaskRuntime::builder()
        .workers(workers)
        .scheduler(kind)
        .name("sched-bench")
        .build()
}

/// Per-task spawn of `TASKS` trivial tasks from this thread, then
/// quiescence. The spawn path is the measured object, so handles are
/// deliberately not retained (results resolve into their cores).
fn run_spawn(variant: &'static str, kind: SchedulerKind, workers: usize) -> Run {
    let rt = build(kind, workers);
    let started = Instant::now();
    for i in 0..TASKS {
        drop(rt.spawn(move || busy_work(i as u64)));
    }
    rt.wait_quiescent();
    finish(variant, workers, started, rt)
}

/// One `spawn_batch` episode for the whole fan-out.
fn run_batch(variant: &'static str, kind: SchedulerKind, workers: usize) -> Run {
    let rt = build(kind, workers);
    let started = Instant::now();
    let batch = rt.spawn_batch(TASKS, |i| busy_work(i as u64));
    batch.wait();
    rt.wait_quiescent();
    finish(variant, workers, started, rt)
}

/// Fan out from inside a worker task: children land on that worker's
/// own deque, so every task a *different* worker runs was stolen.
///
/// The root handle must not be help-joined from this thread (and
/// neither `join` nor `wait_quiescent` may run before the pool is
/// done): a helping join pops the root job out of the injector and
/// runs it on *this* (external) thread, where the children go back
/// through the injector instead of a worker deque and no steal ever
/// happens. A non-helping poll of the packed progress word guarantees
/// a pool worker ran the root, which is the whole point of the
/// variant.
fn run_fanout(variant: &'static str, kind: SchedulerKind, workers: usize) -> Run {
    let rt = build(kind, workers);
    let rth = rt.handle();
    let started = Instant::now();
    let root = rt.spawn(move || {
        let handles: Vec<_> =
            (0..TASKS).map(|i| rth.spawn(move || busy_work(i as u64))).collect();
        handles.into_iter().for_each(|h| {
            let _ = h.join();
        });
    });
    while rt.progress().pending != 0 {
        thread::sleep(Duration::from_micros(200));
    }
    root.join().expect("fanout root");
    finish(variant, workers, started, rt)
}

fn finish(variant: &'static str, workers: usize, started: Instant, rt: TaskRuntime) -> Run {
    let elapsed = started.elapsed();
    let stats = rt.stats();
    let lat = rt.latencies();
    let progress = rt.progress();
    assert_eq!(
        progress.spawned,
        progress.finished + progress.pending as u64,
        "torn progress snapshot"
    );
    let run = Run {
        variant,
        workers,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        tasks_per_sec: stats.executed as f64 / elapsed.as_secs_f64().max(1e-9),
        steal_episodes: lat.steal_wait_ms.total(),
        steal_p50_ms: lat.steal_wait_ms.p50(),
        steal_p99_ms: lat.steal_wait_ms.p99(),
        spawned: stats.spawned,
        executed: stats.executed,
        pending_after: rt.queued_hint(),
    };
    rt.shutdown();
    run
}

fn main() {
    let bench_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_runtime.json".to_string());
    if bench_path.starts_with('-') {
        // A flag where the output path belongs would otherwise become
        // a file named after the flag.
        eprintln!("usage: sched_bench [OUTPUT.json]   (default BENCH_runtime.json)");
        std::process::exit(2);
    }

    println!("== E-SCHED: fan-out throughput, {TASKS} tasks per run ==\n");

    let mut runs: Vec<Run> = Vec::new();
    for &workers in &WORKER_COUNTS {
        runs.push(run_spawn("locked-spawn", SchedulerKind::WorkStealingLocked, workers));
        runs.push(run_spawn("lockfree-spawn", SchedulerKind::WorkStealing, workers));
        runs.push(run_batch("lockfree-batch", SchedulerKind::WorkStealing, workers));
        runs.push(run_fanout("fanout-locked", SchedulerKind::WorkStealingLocked, workers));
        runs.push(run_fanout("fanout-lockfree", SchedulerKind::WorkStealing, workers));
    }

    let mut table = Table::new(
        "scheduler fan-out (10k tasks)",
        &["variant", "workers", "tasks/s", "elapsed ms", "steal eps", "steal p50 ms", "steal p99 ms"],
    );
    for r in &runs {
        assert_eq!(r.pending_after, 0, "{}/{}: not quiescent", r.variant, r.workers);
        assert_eq!(r.spawned, r.executed, "{}/{}: lost tasks", r.variant, r.workers);
        table.row(&[
            r.variant.to_string(),
            r.workers.to_string(),
            format!("{:.0}", r.tasks_per_sec),
            format!("{:.1}", r.elapsed_ms),
            r.steal_episodes.to_string(),
            format!("{:.3}", r.steal_p50_ms),
            format!("{:.3}", r.steal_p99_ms),
        ]);
    }
    println!("{}", table.render());

    let tps = |variant: &str, workers: usize| {
        runs.iter()
            .find(|r| r.variant == variant && r.workers == workers)
            .map(|r| r.tasks_per_sec)
            .expect("variant present")
    };
    let mut speedups = String::new();
    for (i, &w) in WORKER_COUNTS.iter().enumerate() {
        let batch = tps("lockfree-batch", w) / tps("locked-spawn", w);
        let spawn = tps("lockfree-spawn", w) / tps("locked-spawn", w);
        println!(
            "{w} workers: lockfree-batch {batch:.1}x, lockfree-spawn {spawn:.1}x vs locked baseline"
        );
        let _ = write!(
            speedups,
            "    {{ \"workers\": {w}, \"batch_vs_locked\": {batch:.2}, \"spawn_vs_locked\": {spawn:.2} }}{}",
            if i + 1 < WORKER_COUNTS.len() { ",\n" } else { "\n" }
        );
    }

    let mut records = String::new();
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            records,
            concat!(
                "    {{ \"variant\": \"{}\", \"workers\": {}, ",
                "\"tasks_per_sec\": {:.1}, \"elapsed_ms\": {:.3}, ",
                "\"steal_episodes\": {}, \"steal_p50_ms\": {:.4}, \"steal_p99_ms\": {:.4}, ",
                "\"accounting\": {{ \"spawned\": {}, \"executed\": {}, \"pending_after\": {} }} }}{}"
            ),
            r.variant,
            r.workers,
            r.tasks_per_sec,
            r.elapsed_ms,
            r.steal_episodes,
            r.steal_p50_ms,
            r.steal_p99_ms,
            r.spawned,
            r.executed,
            r.pending_after,
            if i + 1 < runs.len() { ",\n" } else { "\n" }
        );
    }

    let bench = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"runtime\",\n",
            "  \"tasks_per_run\": {},\n",
            "  \"worker_counts\": [1, 2, 4, 8],\n",
            "  \"variants\": [\"locked-spawn\", \"lockfree-spawn\", \"lockfree-batch\", ",
            "\"fanout-locked\", \"fanout-lockfree\"],\n",
            "  \"runs\": [\n{}  ],\n",
            "  \"speedups\": [\n{}  ]\n",
            "}}\n"
        ),
        TASKS, records, speedups
    );
    std::fs::write(&bench_path, bench).expect("write BENCH_runtime.json");
    println!("\nbenchmark record -> {bench_path}");
}
