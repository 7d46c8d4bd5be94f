//! Command-line entry point.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --oracle [--seed <n>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--oracle` prints the `scalar`
//! backend's fingerprints of every workload instead (how the pinned
//! values were made).

use std::process::ExitCode;

use perfbench::{engine_run, sweep_run, Options, Workload, DEFAULT_SEED};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --oracle [--seed <n>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut oracle = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--oracle" => oracle = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let Some(v) = it.next() else {
                    return usage(&format!("{flag} needs a value"));
                };
                let parsed = match flag.as_str() {
                    "--workload" => {
                        workload = Workload::parse(v);
                        workload.is_some()
                    }
                    "--seed" => {
                        seed = v.parse().ok();
                        seed.is_some()
                    }
                    "--seconds" => {
                        seconds = v.parse().ok().filter(|s: &f64| s.is_finite() && *s >= 0.0);
                        seconds.is_some()
                    }
                    "--trace" => {
                        trace = match v.as_str() {
                            "0" => Some(false),
                            "1" => Some(true),
                            _ => None,
                        };
                        trace.is_some()
                    }
                    _ => unreachable!("matched above"),
                };
                if !parsed {
                    return usage(&format!("bad value {v:?} for {flag}"));
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    if oracle {
        let seed = seed.unwrap_or(DEFAULT_SEED);
        let f = engine_run::oracle_fingerprint(&engine_run::spec(false), seed);
        println!("paper_jam_aco seed={seed} scalar fingerprint {f:016x}");
        let f = sweep_run::oracle_fingerprint(&sweep_run::spec(false), seed);
        println!("registry_sweep seed={seed} scalar fingerprint {f:016x}");
        return ExitCode::SUCCESS;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        smoke: false,
        expect: None,
        threads: None,
    };
    let out = perfbench::run(&opts);
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("{:<34} {:>20} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.result_json());
    ExitCode::SUCCESS
}
