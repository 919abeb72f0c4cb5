//! Experiment E-MARK: exactly-once marking of a million-submission
//! cohort under seeded fault storms.
//!
//! Runs the marking matrix — every arrival process (steady Poisson,
//! diurnal wave, flash crowd at the deadline) × every storm shape
//! (burst, brownout, flapping) — through the supervised, sharded,
//! checkpointed `course::pipeline`. Every cell kills markers
//! mid-batch; the claim/complete ledger guarantees no submission is
//! lost or marked twice across the supervised restarts.
//!
//! Gates (any failure exits non-zero, which the CI `mark` job relies
//! on):
//! * every cell's conservation identities hold — `submitted ==
//!   marked + shed`, zero in flight, zero duplicate or stale acks,
//!   per-shard and per-marker sums closing, degradation quantified;
//! * every cell actually exercises the fault path: kills > 0 and
//!   supervised restarts > 0, with the supervision tree's own report
//!   agreeing with the model;
//! * scale — at least 1,000,000 submissions across the matrix;
//! * determinism — one cell per arrival process reruns on 1- and
//!   3-worker pools (the matrix runs on 8) and must reproduce the
//!   8-worker fingerprint bit-for-bit.
//!
//! Artifacts: first argument (default `BENCH_marking.json`) — the
//! full per-cell accounting, including how many acks the cell's mark
//! memo served (`memo_hits`) and computed (`memo_misses`); every
//! field except `elapsed_ms` is bit-identical across same-seed runs
//! and pool sizes. Second argument: the seed (default `0xEA751`). A
//! chrome trace of the first cell's stages lands next to the bench
//! file as `TRACE_marking.json`.
//!
//! Run with: `cargo run --release --example mark_storm`

use std::time::Instant;

use course::pipeline::{run_cell, CellReport, PipelineConfig};
use faultsim::FaultStorm;
use parc_loadgen::ArrivalProcess;
use parc_trace::TraceHandle;
use parc_util::Table;
use partask::TaskRuntime;

const TICKS: u32 = 60;
const RATE_PER_TICK: f64 = 2400.0;
const MATRIX_WORKERS: usize = 8;
const MIN_TOTAL_SUBMISSIONS: u64 = 1_000_000;

fn shed_full(report: &CellReport) -> u64 {
    report.shards.iter().map(|s| s.shed_full).sum()
}

fn shed_drain(report: &CellReport) -> u64 {
    report.shards.iter().map(|s| s.shed_drain).sum()
}

fn main() {
    faultsim::silence_injected_panics();
    let mut args = std::env::args().skip(1);
    let bench_path = args.next().unwrap_or_else(|| "BENCH_marking.json".to_string());
    let seed = args
        .next()
        .map(|s| {
            let trimmed = s.trim_start_matches("0x");
            u64::from_str_radix(trimmed, 16)
                .or_else(|_| s.parse::<u64>())
                .expect("seed must be hex or decimal")
        })
        .unwrap_or(0xEA751);

    let cfg = PipelineConfig { seed, arrival_ticks: TICKS, ..PipelineConfig::default() };

    println!("== E-MARK: fault-tolerant auto-marking of a cohort-scale submission stream ==\n");
    println!(
        "seed {seed:#x}, {MATRIX_WORKERS} workers, {} shards x {} markers, \
         ~{RATE_PER_TICK:.0} submissions/tick for {TICKS} ticks per cell, \
         storms kill markers mid-batch in every cell\n",
        cfg.shards, cfg.markers
    );

    let started = Instant::now();
    let rt = TaskRuntime::builder().workers(MATRIX_WORKERS).build();
    let processes = ArrivalProcess::all(RATE_PER_TICK, TICKS as usize);
    let storms = FaultStorm::all(seed);

    // Chrome trace of the first cell only: enough to see every stage
    // (claims, acks, kills, reclaims, spot-checks) without a
    // gigabyte of instants.
    let collector = parc_trace::Collector::new();

    let mut cells: Vec<CellReport> = Vec::new();
    for (pi, process) in processes.iter().enumerate() {
        for (si, storm) in storms.iter().enumerate() {
            let handle =
                if pi == 0 && si == 0 { collector.handle() } else { TraceHandle::disabled() };
            let cell = run_cell(&rt, process, storm, &cfg, &handle);
            println!(
                "  [{} x {}] submitted {} marked {} shed {} kills {} restarts {} ({:.0} ms)",
                cell.arrival,
                cell.storm,
                cell.submitted,
                cell.marked,
                cell.shed,
                cell.kills,
                cell.restarts,
                cell.elapsed_ms
            );
            cells.push(cell);
        }
    }

    let trace_path = bench_path.replace("BENCH_marking", "TRACE_marking");
    let trace_path =
        if trace_path == bench_path { "TRACE_marking.json".to_string() } else { trace_path };
    std::fs::write(&trace_path, parc_trace::to_chrome_json(&collector.snapshot()))
        .expect("write marking trace");

    let mut table = Table::new(
        "marking matrix (arrival process x storm): exactly-once under mid-batch kills",
        &[
            "process", "storm", "submitted", "marked", "shed", "redone", "kills", "restarts",
            "esc", "degr.ticks", "spot", "p99 ms", "invariants",
        ],
    );
    let mut violation_count = 0usize;
    let mut fault_path_failures = 0usize;
    let mut total_submitted = 0u64;
    let mut total_marked = 0u64;
    for cell in &cells {
        let violations = cell.violations();
        violation_count += violations.len();
        for v in &violations {
            eprintln!("INVARIANT VIOLATION [{} {}]: {v}", cell.arrival, cell.storm);
        }
        if cell.kills == 0 || cell.restarts == 0 {
            fault_path_failures += 1;
            eprintln!(
                "FAULT PATH NOT EXERCISED [{} {}]: kills {} restarts {}",
                cell.arrival, cell.storm, cell.kills, cell.restarts
            );
        }
        total_submitted += cell.submitted;
        total_marked += cell.marked;
        table.row(&[
            cell.arrival.to_string(),
            cell.storm.to_string(),
            cell.submitted.to_string(),
            cell.marked.to_string(),
            cell.shed.to_string(),
            cell.redone.to_string(),
            cell.kills.to_string(),
            cell.restarts.to_string(),
            cell.escalations.to_string(),
            cell.degraded_ticks.to_string(),
            format!("{}/{}", cell.spot_run, cell.spot_eligible),
            format!("{:.0}", cell.latency.p99()),
            if violations.is_empty() { "ok".to_string() } else { format!("{} BAD", violations.len()) },
        ]);
    }
    println!("\n{}", table.render());

    // Narrative: the first cell's deterministic event log — storm
    // phases, mid-batch kills, reclaims, degradation toggles.
    let sample = &cells[0];
    println!("pipeline event log [{} {}]:", sample.arrival, sample.storm);
    for event in sample.events.iter().take(24) {
        println!("  {event}");
    }
    if sample.events.len() > 24 {
        println!("  ... {} more events", sample.events.len() - 24);
    }

    // Determinism: one cell per arrival process reruns on smaller
    // pools; the model fingerprint must not notice.
    let mut determinism_failures = 0usize;
    for (pi, process) in processes.iter().enumerate() {
        let original = &cells[pi * storms.len()];
        let storm = &storms[0];
        for workers in [1usize, 3] {
            let pool = TaskRuntime::builder().workers(workers).build();
            let rerun = run_cell(&pool, process, storm, &cfg, &TraceHandle::disabled());
            pool.shutdown();
            if rerun.fingerprint() == original.fingerprint() {
                println!(
                    "determinism: [{} {}] reran on {workers} worker(s) — fingerprint identical \
                     ({:#018x})",
                    original.arrival,
                    original.storm,
                    original.fingerprint()
                );
            } else {
                determinism_failures += 1;
                eprintln!(
                    "DETERMINISM FAILURE: [{} {}] diverged on {workers} worker(s):\n{}",
                    original.arrival,
                    original.storm,
                    first_divergence(&original.render_deterministic(), &rerun.render_deterministic())
                );
            }
        }
    }
    rt.shutdown();

    let scale_ok = total_submitted >= MIN_TOTAL_SUBMISSIONS;
    if !scale_ok {
        eprintln!(
            "SCALE GATE FAILED: {total_submitted} submissions < {MIN_TOTAL_SUBMISSIONS} required"
        );
    }

    let elapsed = started.elapsed();
    let mut cell_json = String::new();
    for (i, cell) in cells.iter().enumerate() {
        let lost = cell.submitted - cell.marked - cell.shed;
        cell_json.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"process\": \"{}\",\n",
                "      \"storm\": \"{}\",\n",
                "      \"submitted\": {},\n",
                "      \"marked\": {},\n",
                "      \"shed\": {},\n",
                "      \"shed_queue_full\": {},\n",
                "      \"shed_drain_overrun\": {},\n",
                "      \"lost\": {},\n",
                "      \"duplicates\": {},\n",
                "      \"stale_acks\": {},\n",
                "      \"in_flight\": {},\n",
                "      \"claims\": {},\n",
                "      \"reclaims\": {},\n",
                "      \"redone\": {},\n",
                "      \"kills\": {},\n",
                "      \"restarts\": {},\n",
                "      \"escalations\": {},\n",
                "      \"ticks\": {},\n",
                "      \"degraded_ticks\": {},\n",
                "      \"spot_eligible\": {},\n",
                "      \"spot_run\": {},\n",
                "      \"spot_degraded\": {},\n",
                "      \"spot_missed\": {},\n",
                "      \"students_marked\": {},\n",
                "      \"cohort_mean_best\": {:.6},\n",
                "      \"p50_ms\": {:.6},\n",
                "      \"p99_ms\": {:.6},\n",
                "      \"p999_ms\": {:.6},\n",
                "      \"mark_digest\": \"{:#018x}\",\n",
                "      \"memo_hits\": {},\n",
                "      \"memo_misses\": {},\n",
                "      \"fingerprint\": \"{:#018x}\",\n",
                "      \"invariants_ok\": {},\n",
                "      \"elapsed_ms\": {:.3}\n",
                "    }}{}\n"
            ),
            cell.arrival,
            cell.storm,
            cell.submitted,
            cell.marked,
            cell.shed,
            shed_full(cell),
            shed_drain(cell),
            lost,
            cell.duplicates,
            cell.stale_acks,
            cell.in_flight,
            cell.claims,
            cell.reclaims,
            cell.redone,
            cell.kills,
            cell.restarts,
            cell.escalations,
            cell.ticks,
            cell.degraded_ticks,
            cell.spot_eligible,
            cell.spot_run,
            cell.spot_degraded,
            cell.spot_missed,
            cell.students_marked,
            cell.cohort_mean_best,
            cell.latency.p50(),
            cell.latency.p99(),
            cell.latency.p999(),
            cell.mark_digest,
            cell.memo_hits,
            cell.memo_misses,
            cell.fingerprint(),
            cell.violations().is_empty(),
            cell.elapsed_ms,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    let bench = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"marking\",\n",
            "  \"seed\": \"{:#x}\",\n",
            "  \"workers\": {},\n",
            "  \"shards\": {},\n",
            "  \"markers\": {},\n",
            "  \"ticks_per_cell\": {},\n",
            "  \"rate_per_tick\": {:.1},\n",
            "  \"processes\": {},\n",
            "  \"storms\": {},\n",
            "  \"total_submitted\": {},\n",
            "  \"total_marked\": {},\n",
            "  \"scale_gate\": {},\n",
            "  \"cells\": [\n",
            "{}",
            "  ],\n",
            "  \"violations\": {},\n",
            "  \"fault_path_failures\": {},\n",
            "  \"determinism_failures\": {},\n",
            "  \"elapsed_ms\": {:.3}\n",
            "}}\n"
        ),
        seed,
        MATRIX_WORKERS,
        cfg.shards,
        cfg.markers,
        TICKS,
        RATE_PER_TICK,
        processes.len(),
        storms.len(),
        total_submitted,
        total_marked,
        scale_ok,
        cell_json,
        violation_count,
        fault_path_failures,
        determinism_failures,
        elapsed.as_secs_f64() * 1e3,
    );
    std::fs::write(&bench_path, bench).expect("write BENCH_marking.json");
    println!("\nbenchmark record -> {bench_path}");
    println!("chrome trace     -> {trace_path}");

    if violation_count > 0 || determinism_failures > 0 || fault_path_failures > 0 || !scale_ok {
        eprintln!(
            "\n{violation_count} invariant violation(s), {fault_path_failures} cell(s) without \
             kills, {determinism_failures} determinism failure(s), scale_ok={scale_ok}"
        );
        std::process::exit(1);
    }
    println!(
        "\nall {} cells sound: {total_submitted} submissions marked exactly once or shed with \
         cause, fingerprints identical across 1/3/8-worker pools ({:.1} s)",
        cells.len(),
        elapsed.as_secs_f64()
    );
}

fn first_divergence(a: &str, b: &str) -> String {
    for (la, lb) in a.lines().zip(b.lines()) {
        if la != lb {
            return format!("first divergence:\n  first: {la}\n  rerun: {lb}");
        }
    }
    "one rendering is a prefix of the other".to_string()
}
