//! Ablations of the paper's §IV implementation techniques.
//!
//! ```text
//! cargo run -p pedsim-bench --release --bin ablation [-- --smoke]
//! ```

use pedsim_bench::ablation;
use pedsim_bench::scale::{invalid_corridor, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args_or_exit(&args);
    let (side, agents, reps, sweep_steps) = match scale {
        Scale::Paper => (480, 25_600, 50, 4_000),
        Scale::Default => (240, 6_400, 20, 1_000),
        Scale::Smoke => (64, 400, 3, 100),
    };
    let base = std::path::Path::new(".");

    println!("## Ablation 1 — scatter-to-gather vs atomic CAS movement\n");
    let mv = ablation::movement_variants(side, agents, reps);
    let t = ablation::movement_table(&mv);
    print!("{}", t.markdown());
    let _ = t.save_csv(base, &format!("ablation_movement_{}", scale.label()));
    println!(
        "\n(paper §IV.d: \"an atomic operation serializes an application and \
         thus increases computation time\"; the CAS variant is also \
         schedule-dependent — only the gather kernel is deterministic)"
    );

    println!("\n## Ablation 2 — branchy vs branchless selection\n");
    let (branchy, branchless) = ablation::divergence_demo(480 * 480);
    let t = ablation::divergence_table(&branchy, &branchless);
    print!("{}", t.markdown());
    let _ = t.save_csv(base, &format!("ablation_divergence_{}", scale.label()));

    println!("\n## Ablation 3 — tiled (18x18 halo) vs direct-global scoring\n");
    let tl = ablation::tiled_variants(side, agents, reps);
    let t = ablation::tiled_table(&tl);
    print!("{}", t.markdown());
    let _ = t.save_csv(base, &format!("ablation_tiled_{}", scale.label()));
    println!(
        "\n(host wall-clock can favour the direct variant — host caches already \
         do what Fermi shared memory does; the modelled-cycle column shows the \
         on-device effect the paper optimised for)"
    );

    println!("\n## Ablation 4 — unspecified-constant sweeps\n");
    let t = ablation::param_sweep(side.min(96), agents, sweep_steps)
        .unwrap_or_else(|e| invalid_corridor(e));
    print!("{}", t.markdown());
    let _ = t.save_csv(base, &format!("ablation_params_{}", scale.label()));
}
