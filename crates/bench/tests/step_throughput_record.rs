//! The committed repo-root `BENCH_step_throughput.json` is the record
//! every performance claim cites, so it must be written by the current
//! harness: the current schema tag, one ladder array naming registry
//! backends, and none of the retired engine-pair keys.

use pedsim_bench::step_throughput::{LADDER_BACKENDS, SCHEMA};

#[test]
fn committed_record_carries_the_current_schema() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_step_throughput.json"
    );
    let record = std::fs::read_to_string(path).expect("committed step-throughput record");
    assert!(
        record.contains(&format!("\"schema\": \"{SCHEMA}\"")),
        "record is not {SCHEMA}"
    );
    assert!(record.contains("\"ladder\": ["));
    // No engine-pair matrix and no `cpu`/`gpu` engine names, ratio
    // keys included.
    for key in ["\"worlds\"", "\"engine\"", "cpu", "gpu"] {
        assert!(!record.contains(key), "record still carries {key}");
    }
    // Both ACO worlds ride the ladder on every backend name.
    for world in ["paper_corridor", "open_corridor"] {
        assert!(record.contains(&format!("\"world\": \"{world}\", \"model\": \"ACO\"")));
    }
    for (backend, _) in LADDER_BACKENDS {
        assert!(record.contains(&format!("\"backend\": \"{backend}\"")));
    }
}
