//! The atomic-operation movement variant the paper *rejects* (§IV.d: "an
//! atomic operation serializes an application and thus increases
//! computation time"), kept as the baseline for the scatter-to-gather
//! ablation bench.
//!
//! One thread per **agent**. Each thread tries to claim its agent's future
//! cell with an `atomicCAS` on the index matrix; the winner then updates
//! its own source cell and the property table. Claim order depends on
//! thread scheduling, so unlike the gather kernel this variant is **not
//! deterministic** under the parallel policy — one more reason the paper's
//! design is the right one. It exists to measure, not to simulate with:
//! the ablation bench compares its wall-clock and atomic-op counts against
//! [`super::MovementKernel`].

use pedsim_grid::cell::CELL_EMPTY;
use pedsim_grid::property::NO_FUTURE;
use simt::exec::{BlockCtx, BlockKernel};
use simt::memory::{AtomicBuffer, ScatterView};

/// Per-agent CAS-claim movement kernel (ablation baseline).
pub struct AtomicMovementKernel<'a> {
    /// Environment width.
    pub w: usize,
    /// Total agents.
    pub n: usize,
    /// Cell labels, updated in place through atomics (u32-widened).
    pub mat: &'a AtomicBuffer,
    /// Agent index per cell, updated in place through atomics.
    pub index: &'a AtomicBuffer,
    /// FUTURE ROW (read).
    pub future_row: &'a [u16],
    /// FUTURE COLUMN (read).
    pub future_col: &'a [u16],
    /// Agent labels (read).
    pub id: &'a [u8],
    /// Agent cells, linear (written by the claiming thread).
    pub pos: ScatterView<'a, u32>,
}

impl BlockKernel for AtomicMovementKernel<'_> {
    fn block(&self, ctx: &mut BlockCtx) {
        let (n, w) = (self.n, self.w);
        ctx.threads(|t| {
            let agent = t.global_linear() + 1;
            if agent > n {
                return;
            }
            let fr = self.future_row[agent];
            if fr == NO_FUTURE {
                return;
            }
            let fc = self.future_col[agent];
            let target = fr as usize * w + fc as usize;
            // Claim the empty target cell: CAS index 0 → agent.
            let prev = self.index.compare_and_swap(target, 0, agent as u32);
            t.note_atomics(1);
            if prev == 0 {
                // Won the cell. Publish the label, clear the source.
                let source = self.pos.read(agent) as usize;
                self.mat.store(target, u32::from(self.id[agent]));
                self.index.store(source, 0);
                self.mat.store(source, u32::from(CELL_EMPTY));
                self.pos.write(agent, target as u32);
                t.note_global_stores(4);
            }
        });
    }

    fn regs_per_thread(&self) -> u32 {
        16
    }

    fn name(&self) -> &'static str {
        "movement_atomic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt::exec::LaunchConfig;
    use simt::memory::ScatterBuffer;
    use simt::{Device, Dim2};

    /// Three agents race for one cell; exactly one must win, and the final
    /// state must be consistent (agent count conserved, no duplicates).
    #[test]
    fn cas_claims_are_exclusive() {
        let w = 8usize;
        let mat = AtomicBuffer::new(w * w, 0);
        let index = AtomicBuffer::new(w * w, 0);
        // Agents 1,2,3 at (3,2),(3,4),(5,3); all target (4,3).
        let cells = [0u32, 3 * 8 + 2, 3 * 8 + 4, 5 * 8 + 3];
        for (a, &lin) in cells.iter().enumerate().skip(1) {
            index.store(lin as usize, a as u32);
            mat.store(lin as usize, 1);
        }
        let pos = ScatterBuffer::from_vec(cells.to_vec(), false);
        let fr = vec![NO_FUTURE, 4, 4, 4];
        let fc = vec![NO_FUTURE, 3, 3, 3];
        let id = vec![0u8, 1, 1, 1];
        let k = AtomicMovementKernel {
            w,
            n: 3,
            mat: &mat,
            index: &index,
            future_row: &fr,
            future_col: &fc,
            id: &id,
            pos: pos.view(),
        };
        let device = Device::parallel();
        let cfg = LaunchConfig::new(Dim2::new(1, 1), Dim2::new(256, 1));
        device.launch(&cfg, &k).expect("launch");

        // Exactly one agent sits at the target.
        let winner = index.load(4 * w + 3);
        assert!((1..=3).contains(&winner), "winner = {winner}");
        // Agent count conserved: 3 non-zero index cells.
        let occupied = index.to_vec().iter().filter(|&&v| v != 0).count();
        assert_eq!(occupied, 3);
        // Winner's position matches the target.
        assert_eq!(pos.as_slice()[winner as usize] as usize, 4 * w + 3);
    }
}
