//! Regenerate Figure 6 (throughput, §VI).
//!
//! ```text
//! cargo run -p pedsim-bench --release --bin fig6 -- [--part a|b|all] [--paper|--smoke]
//! ```
//!
//! Part a: LEM vs ACO throughput across densities (paper: ACO +39.6 %
//! overall, LEM collapse at density 10, gridlock past density 20).
//! Part b: ACO throughput CPU vs GPU plus the binomial-GLM test on the
//! CPU/GPU indicator (paper: p = 0.6145, not significant).

use pedsim_bench::scale::{arg_value, invalid_corridor, Scale};
use pedsim_bench::{fig6, Table};
use pedsim_obs::log_summary;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args_or_exit(&args);
    let part = arg_value(&args, "--part").unwrap_or_else(|| "all".into());
    let cfg = fig6::Fig6Config::for_scale(scale);
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
        log_summary!(
            "fig6a [{}]: {}x{}, {} steps, {} repeats, {} densities…",
            scale.label(),
            cfg.side,
            cfg.side,
            cfg.steps,
            cfg.repeats,
            cfg.densities.len()
        );
        let rows = fig6::run_6a(&cfg).unwrap_or_else(|e| invalid_corridor(e));
        emit(
            &format!("fig6a_{}", scale.label()),
            "Figure 6a — throughput, LEM vs ACO (virtual GPU)",
            &fig6::table_6a(&rows),
        );
        let gain = fig6::overall_aco_gain(&rows);
        println!(
            "\noverall ACO throughput gain over LEM: {:+.1}% (paper: +39.6%)",
            gain * 100.0
        );
        if let Some(collapse) = rows.iter().find(|r| r.aco > 1.2 * r.lem.max(1.0)) {
            println!(
                "first density where ACO clearly beats LEM: {} ({} agents)",
                collapse.density, collapse.agents
            );
        }
    }

    if part == "b" || part == "all" {
        log_summary!(
            "fig6b [{}]: CPU vs GPU ACO sweep ({} densities x {} repeats, both engines)…",
            scale.label(),
            cfg.densities.len(),
            cfg.repeats
        );
        let analysis = fig6::run_6b(&cfg).unwrap_or_else(|e| invalid_corridor(e));
        emit(
            &format!("fig6b_{}", scale.label()),
            "Figure 6b — ACO throughput, CPU vs virtual GPU",
            &fig6::table_6b(&analysis),
        );
        println!(
            "\nbinomial GLM (crossed/agents ~ population + is_gpu), {} scenarios kept:",
            analysis.glm_scenarios
        );
        println!(
            "  is_gpu coefficient = {:+.4}, z = {:+.3}, two-sided p = {:.4} (paper: p = 0.6145)",
            analysis.gpu_coef, analysis.gpu_z, analysis.gpu_p
        );
        println!(
            "  conclusion: {}",
            if analysis.gpu_p > 0.05 {
                "no significant CPU/GPU difference — matches the paper"
            } else {
                "significant difference — does NOT match the paper (check scale/seeds)"
            }
        );
    }
}
