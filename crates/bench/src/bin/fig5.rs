//! Regenerate Figure 5 (execution time and speedup, §V).
//!
//! ```text
//! cargo run -p pedsim-bench --release --bin fig5 -- [--part a|b|c|all] [--paper|--smoke]
//! ```
//!
//! Writes `results/fig5*.csv` and prints Markdown tables.

use pedsim_bench::scale::{arg_value, invalid_corridor, Scale};
use pedsim_bench::{fig5, Table};
use pedsim_obs::log_summary;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args_or_exit(&args);
    let part = arg_value(&args, "--part").unwrap_or_else(|| "all".into());
    let cfg = fig5::Fig5Config::for_scale(scale);

    log_summary!(
        "fig5 [{}]: {}x{} grid, {} steps, populations {:?} — timing both engines…",
        scale.label(),
        cfg.side,
        cfg.side,
        cfg.steps,
        cfg.populations
    );
    let rows = fig5::run(&cfg).unwrap_or_else(|e| invalid_corridor(e));
    let base = std::path::Path::new(".");

    let emit = |name: &str, title: &str, table: &Table| {
        println!("\n## {title} ({} scale)\n", scale.label());
        print!("{}", table.markdown());
        match table.save_csv(base, name) {
            Ok(p) => log_summary!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write {name}.csv: {e}"),
        }
    };

    if part == "a" || part == "all" {
        emit(
            &format!("fig5a_{}", scale.label()),
            "Figure 5a — execution time, ACO vs LEM on the virtual GPU",
            &fig5::table_5a(&rows),
        );
        let mean_ratio: f64 =
            rows.iter().map(fig5::Fig5Row::aco_over_lem).sum::<f64>() / rows.len() as f64;
        println!(
            "\nmean ACO/LEM time ratio: {:.3} (paper: ~1.11)",
            mean_ratio
        );
    }
    if part == "b" || part == "all" {
        emit(
            &format!("fig5b_{}", scale.label()),
            "Figure 5b — ACO execution time, CPU vs virtual GPU",
            &fig5::table_5b(&rows),
        );
    }
    if part == "c" || part == "all" {
        emit(
            &format!("fig5c_{}", scale.label()),
            "Figure 5c — wall-clock speedup (CPU time / GPU time) on this host",
            &fig5::table_5c(&rows),
        );
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        println!(
            "\nhost workers: {workers} (the wall-clock speedup ceiling of this \
             substrate; the paper's ceiling was 448 CUDA cores → 18x…11x)"
        );
        let profile_steps = if matches!(scale, pedsim_bench::Scale::Smoke) {
            2
        } else {
            5
        };
        emit(
            &format!("fig5c_modeled_{}", scale.label()),
            "Figure 5b/5c — modelled on the paper's hardware (GTX 560 Ti vs i7-930, cycle model)",
            &fig5::modeled_speedup(&cfg, profile_steps).unwrap_or_else(|e| invalid_corridor(e)),
        );
    }
}
