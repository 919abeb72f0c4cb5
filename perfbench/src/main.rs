//! The repository's benchmark: the paper's two real workloads —
//! marking a cohort and running the student projects — measured end to
//! end and per layer. See `perfbench/README.md` for the workloads, the
//! metrics and which layer moves which end-to-end number.
//!
//! Usage: `perfbench --workload <mark-steady|lint-unique|projects>
//! --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--rustc <v>]
//! [--git-rev <rev>]`. Normally started through `perfbench/run.py`,
//! which builds this crate first.
//!
//! Output: one `metric` line per metric (median, quartiles, sample
//! count), one `record` JSON line with the host block, and as the last
//! line the result object. Exits 1 if any output fails its oracle.

mod lint;
mod mark;
mod oracle;
mod projects;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Times the run's set-ups: the first before anything is measured, the
/// rest spread over the run between units of work (and discarded), so
/// the median does not hang on one moment of a shared host.
#[derive(Default)]
pub struct Setups {
    done: usize,
}

impl Setups {
    pub fn time<T>(&mut self, out: &mut Outcome, f: impl FnOnce() -> T) -> T {
        let t = std::time::Instant::now();
        let v = f();
        out.push("setup_s", t.elapsed().as_secs_f64());
        self.done += 1;
        v
    }

    /// Is another set-up due `elapsed` seconds into a run of `seconds`?
    #[must_use]
    pub fn due(&self, elapsed: f64, seconds: f64) -> bool {
        self.done < SETUP_REPS && elapsed * SETUP_REPS as f64 >= seconds * self.done as f64
    }
}

/// The end-to-end metrics every workload reports untraced (`--trace
/// 0`), with units. The regression gate applies to these.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("items_per_s", "1/s"), ("pass_s", "s")];

/// The per-layer metrics every workload reports traced (`--trace 1`);
/// a layer a workload does not use reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("genprog.busy_s", "s"),
    ("genprog.programs", "count"),
    ("analyze.parse.busy_s", "s"),
    ("analyze.parse.calls", "count"),
    ("analyze.rules.busy_s", "s"),
    ("analyze.diagnostics", "count"),
    ("analyze.distinct_frac", "ratio"),
    ("assessment.busy_s", "s"),
    ("explore.spot.calls", "count"),
    ("explore.spot.busy_s", "s"),
    ("explore.spot.schedules", "count"),
    ("pipeline.claims", "count"),
    ("pipeline.useful_frac", "ratio"),
    ("pipeline.redone", "count"),
    ("pipeline.spot_run", "count"),
    ("pipeline.spot_degraded", "count"),
    ("pipeline.shed", "count"),
    ("pipeline.unattributed_s", "s"),
    ("supervise.kills", "count"),
    ("supervise.restarts", "count"),
    ("partask.spawned", "count"),
    ("partask.steals", "count"),
    ("partask.helped", "count"),
    ("partask.global_pops", "count"),
    ("partask.idle_probes", "count"),
    ("partask.steal_wait_p99_ms", "ms"),
    ("pyjama.busy_s", "s"),
    ("imaging.render.busy_s", "s"),
    ("sort.partask.busy_s", "s"),
    ("sort.pyjama.busy_s", "s"),
    ("kernels.fft.busy_s", "s"),
    ("kernels.pagerank.busy_s", "s"),
    ("kernels.matmul.busy_s", "s"),
    ("kernels.pi.busy_s", "s"),
    ("docsearch.search.busy_s", "s"),
    ("reductions.busy_s", "s"),
    ("taskcol.ops_per_s", "1/s"),
    ("projects.speedup_2w", "ratio"),
    ("guievent.dispatch_p50_ms", "ms"),
    ("guievent.dispatch_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Metrics printed for reading but not gated: the per-workload names
/// of the end-to-end numbers.
const EXTRA: [(&str, &str); 6] = [
    ("mark.subs_per_s", "1/s"),
    ("lint.progs_per_s", "1/s"),
    ("lint.p50_us", "us"),
    ("lint.p99_us", "us"),
    ("projects.suite_s", "s"),
    ("failed_frac", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .chain(&EXTRA)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("every metric is listed with its unit")
}

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub out_dir: PathBuf,
}

impl Opts {
    /// Where a traced run writes its spans (the last traced run of a
    /// workload wins, so repeated runs do not pile up files).
    #[must_use]
    pub fn span_path(&self, workload: &str) -> PathBuf {
        self.out_dir.join(format!("spans-{workload}.tsv"))
    }
}

/// What a workload measured: samples per metric, operation counts,
/// oracle failures and notes for the reader.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64) {
        self.metrics
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    pub fn note_spans(&mut self, (written, dropped): (usize, usize)) {
        self.notes.push(format!(
            "spans written {written}, beyond the file cap {dropped}"
        ));
    }
}

/// The runtime's counters, idle probes included.
#[must_use]
pub fn partask_snapshot(rt: &partask::TaskRuntime) -> (partask::RuntimeStats, u64) {
    (rt.stats(), rt.idle_probes())
}

/// Record the runtime's counter deltas over one unit of work.
pub fn push_partask_delta(
    out: &mut Outcome,
    (before, idle_before): &(partask::RuntimeStats, u64),
    (after, idle_after): &(partask::RuntimeStats, u64),
) {
    out.push("partask.idle_probes", (idle_after - idle_before) as f64);
    out.push("partask.spawned", (after.spawned - before.spawned) as f64);
    out.push("partask.steals", (after.steals - before.steals) as f64);
    out.push("partask.helped", (after.helped - before.helped) as f64);
    out.push(
        "partask.global_pops",
        (after.global_pops - before.global_pops) as f64,
    );
}

/// A JSON number; non-finite values (which JSON cannot carry) become
/// `null` and fail the run.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Args {
    workload: String,
    opts: Opts,
    rustc: String,
    git_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{k}`"))?;
        let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let seed = get("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let out_dir = PathBuf::from(
        kv.get("out")
            .cloned()
            .unwrap_or_else(|| ".bench_build/perfbench".into()),
    );
    Ok(Args {
        workload: get("workload")?,
        opts: Opts {
            seed,
            seconds,
            trace,
            nproc,
            out_dir,
        },
        rustc: kv.get("rustc").cloned().unwrap_or_else(|| "unknown".into()),
        git_rev: kv
            .get("git-rev")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let opts = &args.opts;
    if opts.trace {
        let _ = std::fs::create_dir_all(&opts.out_dir);
    }
    let mut out = match args.workload.as_str() {
        "mark-steady" => mark::run(opts),
        "lint-unique" => lint::run(opts),
        "projects" => projects::run(opts),
        w => {
            eprintln!("perfbench: unknown workload `{w}` (mark-steady, lint-unique, projects)");
            std::process::exit(2);
        }
    };

    let gated: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in gated {
        if !out.metrics.contains_key(*name) {
            if opts.trace {
                // A layer this workload does not use.
                out.push(name, 0.0);
            } else {
                out.errors
                    .push(format!("end-to-end metric {name} was not measured"));
            }
        }
    }
    let summaries: BTreeMap<&str, stats::Summary> = out
        .metrics
        .iter()
        .map(|(k, v)| (k.as_str(), stats::Summary::of(v)))
        .collect();
    if summaries
        .values()
        .any(|s| !(s.median.is_finite() && s.q1.is_finite() && s.q3.is_finite()))
    {
        out.errors.push("a metric is not a finite number".into());
    }

    for note in &out.notes {
        println!("note {note}");
    }
    for e in out.errors.iter().take(20) {
        println!("ORACLE FAILURE {e}");
    }
    let mut record = String::new();
    for (name, s) in &summaries {
        println!(
            "metric {name} = {} {} (n={}, q1={}, q3={})",
            num(s.median),
            unit_of(name),
            s.n,
            num(s.q1),
            num(s.q3)
        );
        let _ = write!(
            record,
            "{}{}: {{\"unit\": {}, \"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}}}",
            if record.is_empty() { "" } else { ", " },
            json_str(name),
            json_str(unit_of(name)),
            s.n,
            num(s.median),
            num(s.q1),
            num(s.q3)
        );
    }
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "record {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"host\": {{\"nproc\": {}, \"rustc\": {}, \"git_rev\": {}, \"profile\": \"{profile}\"}}, \
         \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \"metrics\": {{{record}}}}}",
        json_str(&args.workload),
        opts.seed,
        opts.trace,
        num(opts.seconds),
        opts.nproc,
        json_str(&args.rustc),
        json_str(&args.git_rev),
        out.attempted,
        out.failed,
        num(stats::failed_frac(out.failed, out.attempted)),
    );

    let correct = out.errors.is_empty();
    let result: Vec<String> = gated
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(summaries[name].median),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        result.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + 3
        );
    }

    #[test]
    fn numbers_print_with_all_digits_and_never_as_nan() {
        assert_eq!(num(0.123_456_789_012_345_68), "0.12345678901234568");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
