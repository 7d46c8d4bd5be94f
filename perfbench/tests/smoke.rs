//! The benchmark's own checks, on smoke-sized instances of every
//! workload: every metric named in `BENCHMARK.json` is emitted with its
//! unit, a wrong expected fingerprint fails every replica while the
//! `scalar` oracle's fingerprint passes, and the deterministic work counts
//! repeat exactly across runs and `pooled` thread counts.

use perfbench::{engine_run, run, sweep_run, Options, Outcome, Workload};

fn smoke(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        smoke: true,
        expect: None,
        threads: None,
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
    let start = text
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_emits_every_listed_metric_with_its_unit() {
    for w in Workload::ALL {
        let plain = run(&smoke(w, false));
        assert_eq!(emitted(&plain), listed("end_to_end"), "{}", w.name());
        assert!(plain.failed == 0 && plain.attempted > 0, "{}", w.name());
        assert_eq!(plain.get("verified_fraction"), Some(1.0));
        for m in &plain.metrics {
            assert!(
                m.value > 0.0,
                "{} reads {} on {}",
                m.name,
                m.value,
                w.name()
            );
        }
        let traced = run(&smoke(w, true));
        assert_eq!(emitted(&traced), listed("per_layer"), "{}", w.name());
        assert_eq!(traced.failed, 0, "{}", w.name());
        let line = traced.result_json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn a_wrong_expected_fingerprint_fails_every_replica() {
    for w in Workload::ALL {
        let out = run(&Options {
            expect: Some(0xdead_beef),
            ..smoke(w, false)
        });
        assert_eq!(out.failed_fraction(), 1.0, "{}", w.name());
        assert_eq!(out.get("verified_fraction"), Some(0.0));
        assert!(out.result_json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn the_scalar_oracle_fingerprint_passes() {
    for w in Workload::ALL {
        let opts = smoke(w, false);
        let oracle = match w {
            Workload::RegistrySweep => {
                sweep_run::oracle_fingerprint(&sweep_run::spec(true), opts.seed)
            }
            Workload::PaperJamAco => {
                engine_run::oracle_fingerprint(&engine_run::spec(true), opts.seed)
            }
        };
        let out = run(&Options {
            expect: Some(oracle),
            ..opts
        });
        assert_eq!(
            out.failed,
            0,
            "{} diverged from the scalar oracle",
            w.name()
        );
    }
}

#[test]
fn work_counts_repeat_across_runs_and_thread_counts() {
    for w in Workload::ALL {
        let work = |threads: usize| {
            let out = run(&Options {
                threads: Some(threads),
                ..smoke(w, true)
            });
            out.metrics
                .into_iter()
                .filter(|m| m.name.starts_with("work.") || m.name.starts_with("runner.st"))
                .map(|m| (m.name, m.value.to_bits()))
                .collect::<Vec<_>>()
        };
        let first = work(1);
        assert!(first.len() >= 6, "{}", w.name());
        assert_eq!(first, work(1), "{} repeat", w.name());
        assert_eq!(first, work(2), "{} at two threads", w.name());
    }
}
