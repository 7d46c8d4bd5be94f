//! Output checks: state fingerprints and final-state invariants.

use pedsim_core::metrics::Geometry;
use pedsim_grid::cell::{CELL_EMPTY, CELL_WALL};
use pedsim_grid::Matrix;
use pedsim_obs::hash::Fnv64;
use pedsim_runner::{BatchReport, RunResult, StopReason};

/// FNV-1a fingerprint of a final engine state: the cell-label matrix
/// followed by every agent's row and column.
pub fn state_fingerprint(mat: &Matrix<u8>, rows: &[u16], cols: &[u16]) -> u64 {
    let mut h = Fnv64::new()
        .usize(mat.height())
        .usize(mat.width())
        .bytes(mat.as_slice());
    for v in [rows, cols] {
        h = h.usize(v.len());
        for x in v {
            h = h.bytes(&x.to_le_bytes());
        }
    }
    h.finish()
}

/// FNV-1a fingerprint of a batch report's deterministic JSON body, with
/// the executing backend's identity (engine, backend, thread count)
/// blanked so the scalar oracle and the timed backend fingerprint alike.
pub fn report_fingerprint(report: &BatchReport) -> u64 {
    let results = report
        .results
        .iter()
        .map(|r| RunResult {
            engine: "-",
            backend: "-",
            threads: 0,
            ..r.clone()
        })
        .collect();
    Fnv64::new()
        .str(&BatchReport::from_results(results).to_json())
        .finish()
}

/// Final-state invariants of a closed world: one agent per cell, every
/// agent's cell carries its group's label, and the agent count is
/// conserved (exactly as many labelled cells as agents).
pub fn closed_world_invariants(
    geom: &Geometry,
    mat: &Matrix<u8>,
    rows: &[u16],
    cols: &[u16],
) -> Result<(), String> {
    let agents = geom.total_agents();
    if rows.len() != agents + 1 || cols.len() != agents + 1 {
        return Err(format!(
            "positions hold {} slots for {agents} agents",
            rows.len()
        ));
    }
    let (h, w) = (mat.height(), mat.width());
    let mut seen = vec![false; h * w];
    for a in 1..=agents {
        let (r, c) = (rows[a] as usize, cols[a] as usize);
        if r >= h || c >= w {
            return Err(format!("agent {a} off the grid at ({r},{c})"));
        }
        let cell = r * w + c;
        if std::mem::replace(&mut seen[cell], true) {
            return Err(format!("two agents share cell ({r},{c})"));
        }
        let want = geom.group_of(a).label();
        if mat.get(r, c) != want {
            return Err(format!(
                "agent {a} at ({r},{c}): cell label {} != group label {want}",
                mat.get(r, c)
            ));
        }
    }
    let labelled = mat
        .as_slice()
        .iter()
        .filter(|&&v| v != CELL_EMPTY && v != CELL_WALL)
        .count();
    if labelled != agents {
        return Err(format!(
            "{labelled} labelled cells for {agents} agents (not conserved)"
        ));
    }
    Ok(())
}

/// Per-replica invariants of a runner result: the step budget holds, a
/// closed world keeps its whole population live, arrival means every
/// agent crossed, and the order parameters are in range.
pub fn run_result_invariants(r: &RunResult, budget: u64, open: bool) -> Result<(), String> {
    if r.steps == 0 || r.steps > budget {
        return Err(format!(
            "{}: {} steps outside 1..={budget}",
            r.label, r.steps
        ));
    }
    let (Some(live), Some(throughput)) = (r.live, r.throughput) else {
        return Err(format!("{}: metrics missing", r.label));
    };
    if open {
        if live > r.agents {
            return Err(format!("{}: {live} live > {} slots", r.label, r.agents));
        }
    } else {
        if live != r.agents {
            return Err(format!("{}: {live} live != {} agents", r.label, r.agents));
        }
        if throughput > r.agents {
            return Err(format!("{}: {throughput} crossed > {}", r.label, r.agents));
        }
        if r.stop == StopReason::AllArrived && throughput != r.agents {
            return Err(format!("{}: arrived with {throughput} crossed", r.label));
        }
    }
    match r.segregation {
        Some(s) if (0.0..=1.0).contains(&s) => Ok(()),
        other => Err(format!("{}: segregation {other:?} out of range", r.label)),
    }
}
