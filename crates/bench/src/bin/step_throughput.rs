//! Step throughput of the unified engine pipeline: per-stage wall time,
//! steps/second, and CPU-vs-GPU ratios on closed and open registry
//! worlds, plus the backend scale ladder.
//!
//! ```text
//! cargo run -p pedsim-bench --release --bin step_throughput -- \
//!     [--paper|--smoke] [--workers N] [--journal PATH] \
//!     [--registry PATH | --no-registry] \
//!     [--backend NAME [--threads N]]
//! ```
//!
//! Default mode writes `results/step_throughput_<scale>.{csv,json}` plus
//! the repo-root `BENCH_step_throughput.json` perf-trajectory record
//! (including the backend scale ladder), appends one provenance-stamped
//! row per replica to the results registry (and, with `--journal`, one
//! JSONL record per replica), and prints Markdown tables. Exits non-zero
//! when the smoke-scale measurement does not cover both engines and
//! every pipeline stage. Progress chatter honors `PEDSIM_LOG`.
//!
//! `--backend NAME [--threads N]` runs only the ladder cell(s) for that
//! backend configuration (threads defaults to 1) — the CI thread-matrix
//! entry point. Registry rows are appended; the engine-pair record and
//! its coverage gate are skipped.

use pedsim_bench::observe::{self, Sinks};
use pedsim_bench::report;
use pedsim_bench::scale::{arg_value, Scale};
use pedsim_bench::step_throughput as st;
use pedsim_obs::log_summary;
use pedsim_runner::Batch;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args_or_exit(&args);
    // Default to one worker: replicas racing for cores would pollute the
    // per-stage wall clocks this harness exists to record.
    let workers = arg_value(&args, "--workers")
        .and_then(|w| w.parse().ok())
        .unwrap_or(1);
    let sinks = Sinks::from_args(&args);
    let cfg = st::StConfig::for_scale(scale);
    let base = std::path::Path::new(".");

    let backend_only = arg_value(&args, "--backend");
    let threads_only: usize = arg_value(&args, "--threads")
        .and_then(|t| t.parse().ok())
        .unwrap_or(1);

    // The ladder: classic corridor at growing sides × backend registry
    // configurations. In `--backend` mode this is the whole run.
    let only = backend_only.as_deref().map(|b| (b, threads_only));
    let rungs = st::ladder_rungs(scale);
    let ladder_jobs = st::ladder_jobs_for(&rungs, only);
    if let Some((b, t)) = only {
        if ladder_jobs.is_empty() {
            eprintln!("error: --backend {b} --threads {t} matches no ladder configuration");
            std::process::exit(2);
        }
    }

    let mut pair_rows = Vec::new();
    let mut sinks_ok = true;
    let mut record_written = true;
    let t0 = std::time::Instant::now();

    if only.is_none() {
        log_summary!(
            "step_throughput [{}]: {side}x{side} closed+open corridors, both engines, \
             {} steps x {} repeats, on {workers} workers…",
            scale.label(),
            cfg.steps,
            cfg.repeats,
            side = cfg.side,
        );
        let batch = st::run_report(&cfg, workers);
        pair_rows = st::aggregate(&cfg, &batch);
        if let Err(e) = observe::emit(&sinks, "step_throughput", scale, &batch) {
            eprintln!("could not record observability sinks: {e}");
            sinks_ok = false;
        }
    }

    log_summary!(
        "scale ladder [{}]: {} rungs x {} cells…",
        scale.label(),
        rungs.len(),
        ladder_jobs.len() / rungs.len().max(1),
    );
    let ladder_batch = Batch::new(workers).run(&ladder_jobs);
    let ladder_rows = st::aggregate_ladder(&rungs, &ladder_batch);
    if let Err(e) = observe::emit(&sinks, "step_throughput", scale, &ladder_batch) {
        eprintln!("could not record observability sinks: {e}");
        sinks_ok = false;
    }
    let elapsed = t0.elapsed();

    if only.is_none() {
        println!("\n## Step throughput ({} scale)\n", scale.label());
        let table = st::table(&pair_rows);
        print!("{}", table.markdown());
        println!();
        for ratio in st::ratios(&pair_rows) {
            println!(
                "{}: CPU spends {:.2}x the GPU pipeline's wall time per step",
                ratio.world, ratio.total
            );
        }
        let name = format!("step_throughput_{}", scale.label());
        match table.save_csv(base, &name) {
            Ok(p) => log_summary!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write {name}.csv: {e}"),
        }
        let json = st::to_json(scale, &cfg, &pair_rows, &ladder_rows);
        match report::save_json(base, &name, &json) {
            Ok(p) => log_summary!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write {name}.json: {e}"),
        }
        let bench_path = base.join("BENCH_step_throughput.json");
        record_written = match std::fs::write(&bench_path, &json) {
            Ok(()) => {
                log_summary!("wrote {}", bench_path.display());
                true
            }
            Err(e) => {
                eprintln!("could not write {}: {e}", bench_path.display());
                false
            }
        };
    }

    println!("\n## Backend scale ladder ({} scale)\n", scale.label());
    print!("{}", st::ladder_table(&ladder_rows).markdown());
    for (side, mode, x) in st::ladder_speedups(&ladder_rows) {
        println!(
            "side {side} [{mode}]: pooled movement runs at {x:.2}x the scalar stage \
             (gains beyond the banded kernels' single-thread advantage need real cores)",
        );
    }
    for (side, backend, threads, x) in st::sparse_speedups(&ladder_rows) {
        println!("side {side}: {backend}/t{threads} steps {x:.2}x faster sparse than dense");
    }
    for (side, mode, threads, eff) in st::thread_scaling(&ladder_rows) {
        if threads > 1 {
            println!("side {side} [{mode}]: pooled t{threads} thread-scaling efficiency {eff:.2}");
        }
    }
    log_summary!("wall: {:.2}s on {workers} workers", elapsed.as_secs_f64());

    // Gates. In --backend mode: every requested ladder cell must have
    // timed real steps in the mode its backend must report. In default
    // mode: the same, plus every derived ladder series, the engine-pair
    // coverage gate and the sink/record checks, at smoke scale only.
    let ladder_ok = st::ladder_complete(&ladder_jobs, &ladder_rows)
        && (only.is_some() || st::derived_series_present(&ladder_rows));
    if only.is_some() {
        if !ladder_ok || !sinks_ok {
            eprintln!("ladder measurement incomplete");
            std::process::exit(1);
        }
        return;
    }
    let ok = st::covers_both_engines_and_all_stages(&pair_rows);
    println!(
        "\nmeasurement {}",
        if ok && ladder_ok {
            "covers both engines, every pipeline stage, and every ladder cell"
        } else {
            "is INCOMPLETE: an engine, stage, or ladder cell reported no time"
        },
    );
    // The coverage check is the CI acceptance gate at smoke scale; larger
    // scales only report. A failed record or sink write must also fail
    // the gate — otherwise CI would validate whatever stale record is
    // lying around.
    if (!ok || !ladder_ok || !record_written || !sinks_ok) && scale == Scale::Smoke {
        std::process::exit(1);
    }
}
