//! Step throughput of the unified engine pipeline: per-stage wall time
//! and steps/second on every backend-registry configuration, over one
//! scale ladder whose rungs name their world, model and metrics switch.
//!
//! ```text
//! cargo run -p pedsim-bench --release --bin step_throughput -- \
//!     [--paper|--smoke] [--workers N] [--journal PATH] \
//!     [--registry PATH | --no-registry] \
//!     [--backend NAME [--threads N]]
//! ```
//!
//! Default mode runs the whole ladder as one batch, writes
//! `results/step_throughput_<scale>.{csv,json}` plus the repo-root
//! `BENCH_step_throughput.json` perf-trajectory record (schema
//! `pedsim.step_throughput.v4`, one `ladder` array), appends one
//! provenance-stamped row per replica to the results registry (and, with
//! `--journal`, one JSONL record per replica), and prints the Markdown
//! table. At smoke scale it exits non-zero when the ladder gate fails:
//! a missing or mislabelled cell, an untimed row, a zero kernel stage on
//! `scalar`/`simt`, an idle metrics stage where metrics are on, an idle
//! lifecycle on the open world, a missing derived series, or a record or
//! sink that was not written. Progress chatter honors `PEDSIM_LOG`.
//!
//! `--backend NAME [--threads N]` runs only the ladder cell(s) for that
//! backend configuration (threads defaults to 1) — the CI thread-matrix
//! entry point. Registry rows are appended; the record and the derived
//! series are skipped, and the per-row gate applies at every scale.

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
    let base = std::path::Path::new(".");

    let backend_only = arg_value(&args, "--backend");
    let threads_only: usize = arg_value(&args, "--threads")
        .and_then(|t| t.parse().ok())
        .unwrap_or(1);
    let only = backend_only.as_deref().map(|b| (b, threads_only));
    let rungs = st::ladder_rungs(scale);
    let jobs = st::ladder_jobs_for(&rungs, only);
    if let Some((b, t)) = only {
        if jobs.is_empty() {
            eprintln!("error: --backend {b} --threads {t} matches no ladder configuration");
            std::process::exit(2);
        }
    }

    log_summary!(
        "scale ladder [{}]: {} rungs x {} cells, on {workers} workers…",
        scale.label(),
        rungs.len(),
        jobs.len() / rungs.len().max(1),
    );
    let t0 = std::time::Instant::now();
    let batch = Batch::new(workers).run(&jobs);
    let rows = st::aggregate_ladder(&rungs, &batch);
    let elapsed = t0.elapsed();
    let sinks_ok = match observe::emit(&sinks, "step_throughput", scale, &batch) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("could not record observability sinks: {e}");
            false
        }
    };

    println!("\n## Step throughput ladder ({} scale)\n", scale.label());
    let table = st::ladder_table(&rows);
    print!("{}", table.markdown());
    for (rung, mode, x) in st::ladder_speedups(&rows) {
        println!(
            "{}/{} s{} [{mode}]: pooled movement runs at {x:.2}x the scalar stage \
             (gains beyond the banded kernels' single-thread advantage need real cores)",
            rung.world,
            rung.model.name(),
            rung.side,
        );
    }
    for (rung, backend, threads, x) in st::sparse_speedups(&rows) {
        println!(
            "{}/{} s{}: {backend}/t{threads} steps {x:.2}x faster sparse than dense",
            rung.world,
            rung.model.name(),
            rung.side,
        );
    }
    for (rung, mode, threads, eff) in st::thread_scaling(&rows) {
        if threads > 1 {
            println!(
                "{}/{} s{} [{mode}]: pooled t{threads} thread-scaling efficiency {eff:.2}",
                rung.world,
                rung.model.name(),
                rung.side,
            );
        }
    }
    log_summary!("wall: {:.2}s on {workers} workers", elapsed.as_secs_f64());

    let cells_ok = st::ladder_complete(&jobs, &rows);
    if only.is_some() {
        if !cells_ok || !sinks_ok {
            eprintln!("ladder measurement incomplete");
            std::process::exit(1);
        }
        return;
    }

    let name = format!("step_throughput_{}", scale.label());
    match table.save_csv(base, &name) {
        Ok(p) => log_summary!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write {name}.csv: {e}"),
    }
    let json = st::to_json(scale, &rows);
    match report::save_json(base, &name, &json) {
        Ok(p) => log_summary!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write {name}.json: {e}"),
    }
    let bench_path = base.join("BENCH_step_throughput.json");
    let record_written = match std::fs::write(&bench_path, &json) {
        Ok(()) => {
            log_summary!("wrote {}", bench_path.display());
            true
        }
        Err(e) => {
            eprintln!("could not write {}: {e}", bench_path.display());
            false
        }
    };

    let ok = cells_ok && st::derived_series_present(&rows);
    println!(
        "\nmeasurement {}",
        if ok {
            "covers every ladder cell, every working pipeline stage, and every derived series"
        } else {
            "is INCOMPLETE: a ladder cell, stage, or derived series reported no time"
        },
    );
    // The ladder gate is the CI acceptance gate at smoke scale; larger
    // scales only report. A failed record or sink write must also fail
    // the gate — otherwise CI would validate whatever stale record is
    // lying around.
    if (!ok || !record_written || !sinks_ok) && scale == Scale::Smoke {
        std::process::exit(1);
    }
}
