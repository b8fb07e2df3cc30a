//! Step drivers: running a compiled kernel over the planned iteration
//! space.
//!
//! Three modes, picked by [`crate::plan_mode`] from the plan and the
//! static certificates:
//!
//! * [`ExecMode::RowsCertified`] — row-DOALL execution. Each fused row
//!   runs **loop-major**: every lowered loop sweeps its active column
//!   range as a tight cursor-increment loop (statement-major within the
//!   loop). This reordering of the canonical cell-major serialization is
//!   exactly what the row-DOALL certificate licenses: no dependence binds
//!   two distinct iterations of a row, and same-iteration statement order
//!   is preserved. Long rows additionally split into column tiles executed
//!   on worker threads, writing **in place** through `SharedCells`.
//! * [`ExecMode::RowsSerial`] — the canonical cell-major serialization,
//!   sequential and in place (a single thread cannot race itself). The
//!   fallback for every uncertified plan, rows or hyperplane: it is
//!   bit-identical to `mdf_sim::run_fused`, and legal for any retiming
//!   that LLOFRA made non-negative.
//! * [`ExecMode::Wavefront`] — hyperplane execution under both the
//!   hyperplane race certificate and the **elision certificate**: the
//!   `(t, fi)` space (`t = s · (fi, fj)`) is cut into rectangular tiles
//!   and executed as anti-diagonal tile *waves* ([`TilePlan`]). Barriers
//!   survive only between waves, every in-wave front barrier is elided,
//!   and each tile sweeps its cells row-major — the order the certificate
//!   proves equivalent. Waves too small to amortize a dispatch run
//!   serially by a deterministic cost model (`SERIAL_WAVE_CELLS`). A
//!   wavefront that cannot tile (an empty space, or a hand-built schedule
//!   with `s.y < 1`) runs the serial sweep instead.
//!
//! Each drive derives one private per-barrier step plan from the mode and
//! the shape; execution, checkpointing, counters and the verifier's image
//! all read it, so they cannot disagree on what a barrier is. Before it
//! allocates, every drive proves that each lowered loop's accesses stay
//! inside the image (one check per loop, from the corners of the box the
//! loop runs and its extreme deltas), so each step kind has one body,
//! whose per-access checks are debug assertions. Every run, plain,
//! budgeted or supervised, walks that plan through one entry,
//! [`CompiledKernel::drive`], over `mdf-sim`'s barrier driver
//! (`mdf_sim::supervise_run`), the one the interpreter uses, which owns
//! the barrier-top gate and the per-barrier iteration charge; a plain or
//! budgeted run is a one-attempt drive (`RetryPolicy::once`). Counters
//! ([`ExecStats`]) count one barrier per fused row or tile wave and one
//! statement instance per executed assignment, so BENCH reports are
//! directly comparable across engines.

use std::sync::atomic::{AtomicU64, Ordering};

use mdf_analyze::bytecode::{
    self, BytecodeCert, VmImage, VmInstr, VmLoop, VmMode, VmRange, VmStmt,
};
use mdf_analyze::Diagnostic;
use mdf_graph::{Budget, BudgetMeter, IVec2, MdfError};
use mdf_ir::retgen::{FusedSpec, IRange};
use mdf_sim::{supervise_run, Checkpoint, ExecStats, RetryPolicy, Snapshot, SupervisedOutcome};
use mdf_trace::Span;
use rayon::prelude::*;

use crate::lower::{eval_compiled, lower_loop, CompiledLoop, Instr, MAX_REGS};
use crate::memory::{KernelMemory, Layout};

impl Snapshot for KernelMemory {
    fn digest(&self) -> u64 {
        self.fingerprint()
    }

    fn cells(&self) -> u64 {
        self.layout().cells() as u64
    }
}

/// Width of the column tiles a certified row splits into for threading;
/// rows shorter than two tiles run serially, because a tile of fewer
/// columns does too little work to pay for waking a pool worker and for
/// the barrier that ends the step. Fixed rather than derived from a
/// measured dispatch cost, so the serial-or-threaded choice and the
/// `kernel.tiles` counter depend only on shape and worker count.
const TILE_COLS: i64 = 256;

/// Minimum estimated cell count in a tile wave before its tiles are
/// dispatched to the worker pool; thinner waves run serially
/// (`wavefront.serial_fronts`), because waking workers and synchronizing
/// the step costs more than the wave's work. Part of the deterministic
/// cost model: the decision depends only on the tile plan, the wave
/// index, and the thread count — never on timing or a measured dispatch
/// cost, which keeps profiles reproducible (`tests/trace_determinism.rs`).
/// Changing the value moves the pinned `wavefront.serial_fronts` counts.
const SERIAL_WAVE_CELLS: i64 = 2048;

/// How a compiled kernel traverses the fused iteration space. Produced by
/// [`crate::plan_mode`]; constructing `RowsCertified` by hand asserts that
/// the caller holds the row race certificate for the spec, and
/// constructing `Wavefront` asserts the hyperplane race and elision
/// certificates for its schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Row-DOALL, certificate held: loop-major rows, tiled + threaded.
    RowsCertified,
    /// No certificate: canonical cell-major serialization, sequential.
    RowsSerial,
    /// Hyperplane wavefront with schedule vector `s`, run as tile waves.
    Wavefront {
        /// The schedule vector.
        schedule: IVec2,
    },
}

/// What one barrier of a drive executes, derived from the mode and the
/// kernel's shape by [`CompiledKernel::steps`].
enum Steps {
    /// One certified fused row per barrier, loop-major.
    Rows,
    /// One fused row per barrier, cell-major and sequential.
    Cells,
    /// One anti-diagonal tile wave per barrier.
    Waves(TilePlan),
}

/// The skewed tiling of an elision-certified wavefront: the `(t, fi)`
/// space — `t = s · (fi, fj)` the front index, `fi` the fused row — cut
/// into `n_tb × n_ib` rectangular tiles of `bt` fronts by `bi` rows.
/// Tiles execute as anti-diagonal waves `T + I = w` in ascending `w`,
/// with one barrier per wave: all `fronts() - waves()` remaining front
/// barriers are elided, which the elision certificate licenses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TilePlan {
    /// The hyperplane schedule.
    pub schedule: IVec2,
    /// First front index (minimum of `s · (fi, fj)` over the space).
    pub t0: i64,
    /// Last front index.
    pub t1: i64,
    /// Fronts per tile (band height along `t`).
    pub bt: i64,
    /// Fused rows per tile (band width along `fi`).
    pub bi: i64,
    /// Number of front bands.
    pub n_tb: i64,
    /// Number of row bands.
    pub n_ib: i64,
}

impl TilePlan {
    /// Barrier-to-barrier steps: the anti-diagonals of the tile grid.
    pub fn waves(&self) -> u64 {
        (self.n_tb + self.n_ib - 1).max(0) as u64
    }

    /// Front indices the space spans — the barriers a front-per-barrier
    /// drive would place (one per front, counting empty ones on a box
    /// space).
    pub fn fronts(&self) -> u64 {
        (self.t1 - self.t0 + 1).max(0) as u64
    }

    /// Total tiles in the grid.
    pub fn tiles(&self) -> u64 {
        (self.n_tb * self.n_ib).max(0) as u64
    }

    /// Barriers elided relative to a front-per-barrier drive.
    pub fn elided(&self) -> u64 {
        self.fronts().saturating_sub(self.waves())
    }

    /// The inclusive front-band index range of wave `w`'s tiles
    /// (`T + I == w` with both bands in grid range).
    fn wave_bands(&self, w: i64) -> (i64, i64) {
        ((w - (self.n_ib - 1)).max(0), w.min(self.n_tb - 1))
    }

    /// Whether wave `w` runs serially under `threads` workers: single
    /// worker, a single tile, or too few estimated cells
    /// (`SERIAL_WAVE_CELLS`) to amortize the dispatch.
    pub fn wave_serial(&self, w: i64, threads: usize) -> bool {
        let (lo, hi) = self.wave_bands(w);
        let tiles = hi - lo + 1;
        let est_cells = tiles * self.bt * self.bi / self.schedule.y.max(1);
        threads <= 1 || tiles < 2 || est_cells < SERIAL_WAVE_CELLS
    }

    /// Serially-executed waves under `threads` workers, recomputed from
    /// the cost model for the `wavefront.serial_fronts` counter.
    pub fn serial_waves(&self, threads: usize) -> u64 {
        (0..self.waves() as i64)
            .filter(|&w| self.wave_serial(w, threads))
            .count() as u64
    }
}

/// A shared view of the kernel buffer for compiled steps, and with the
/// `madvise` call in `memory` the only `unsafe` in the crate. Distinct
/// iterations of a certified parallel step touch disjoint cells (that is
/// what the race certificate proves), so concurrent in-place access
/// through a raw pointer is data-race-free; and every access lies inside
/// the buffer, because the drive proved each loop's box in bounds before
/// it started (`CompiledKernel::prove_bounds`). Debug builds re-check
/// every index. A view is made from the step's `&mut` borrow of the image
/// and never outlives the step.
struct SharedCells {
    ptr: *mut i64,
    len: usize,
}

// SAFETY: `ptr` and `len` describe a buffer the step that made the view
// borrows mutably for the view's whole life. Its workers may share it
// because the cells concurrent iterations touch are disjoint (the race
// and elision certificates) and every index is in bounds (the drive's
// bounds proof).
unsafe impl Send for SharedCells {}
// SAFETY: as for `Send`; the view has no interior state besides the
// buffer.
unsafe impl Sync for SharedCells {}

impl SharedCells {
    fn new(data: &mut [i64]) -> SharedCells {
        SharedCells {
            ptr: data.as_mut_ptr(),
            len: data.len(),
        }
    }

    #[inline]
    fn slot(&self, idx: isize) -> usize {
        // A negative isize wraps to a huge usize, so one compare covers
        // both underflow and overflow.
        let u = idx as usize;
        debug_assert!(u < self.len, "kernel access out of bounds: {idx}");
        u
    }

    #[inline]
    fn read(&self, idx: isize) -> i64 {
        let u = self.slot(idx);
        // SAFETY: `u < len`: every index a step computes is a cursor of
        // its loop's box plus one of the loop's deltas, and the drive
        // proved all of those inside the buffer before it started. No
        // concurrent iteration writes this cell (the race certificate).
        unsafe { *self.ptr.add(u) }
    }

    #[inline]
    fn write(&self, idx: isize, v: i64) {
        let u = self.slot(idx);
        // SAFETY: as in `read`; no concurrent iteration touches this cell.
        unsafe { *self.ptr.add(u) = v }
    }
}

/// A fused spec lowered for fixed bounds `(n, m)`: bytecode bodies, active
/// ranges, and the flat-memory layout, ready to run in any [`ExecMode`].
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    layout: Layout,
    n: i64,
    m: i64,
    outer: IRange,
    inner: IRange,
    /// Lowered loops **in fused body order** (stable topological order of
    /// the `(0,0)`-retimed dependence subgraph), not textual order.
    loops: Vec<CompiledLoop>,
}

impl CompiledKernel {
    /// Lowers `spec` for bounds `(n, m)`. Fails typed on non-executable
    /// specs (a `(0,0)`-dependence cycle) or bodies nesting deeper than
    /// the register file.
    pub fn compile(spec: &FusedSpec, n: i64, m: i64) -> Result<CompiledKernel, MdfError> {
        let body = spec.body_order().ok_or_else(|| {
            MdfError::invalid(
                "fused body has a (0,0)-dependence cycle: the program is not executable",
            )
        })?;
        let layout = Layout::for_program(&spec.program, n, m);
        let loops = body
            .iter()
            .map(|&li| {
                lower_loop(
                    &layout,
                    &spec.program.loops[li].stmts,
                    spec.offsets[li],
                    n,
                    m,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CompiledKernel {
            layout,
            n,
            m,
            outer: spec.outer_range(n),
            inner: spec.inner_range(m),
            loops,
        })
    }

    /// As [`CompiledKernel::compile`], reporting lowering shape onto
    /// `span`: `kernel.loops` (lowered loops) and `kernel.instrs` (total
    /// bytecode instructions across all statement bodies).
    pub fn compile_traced(
        spec: &FusedSpec,
        n: i64,
        m: i64,
        span: &Span,
    ) -> Result<CompiledKernel, MdfError> {
        let k = Self::compile(spec, n, m)?;
        if span.is_enabled() {
            span.add("kernel.loops", k.loops.len() as u64);
            let instrs: u64 = k
                .loops
                .iter()
                .flat_map(|cl| cl.stmts.iter())
                .map(|s| s.instrs.len() as u64)
                .sum();
            span.add("kernel.instrs", instrs);
        }
        Ok(k)
    }

    /// The memory layout the kernel runs over.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The bounds the kernel was compiled for.
    pub fn bounds(&self) -> (i64, i64) {
        (self.n, self.m)
    }

    /// Projects the lowered kernel into the static verifier's machine
    /// model for `mode` — everything that determines memory behaviour
    /// (layout extents, swept ranges, retiming offsets, access deltas,
    /// instruction shape) and nothing that does not (constant values,
    /// operator identities). The machine mode comes from the same step
    /// plan the drive executes: tile waves map to the tiled machine mode,
    /// and a wavefront that cannot tile runs the serial sweep, so it is
    /// verified as serial. A certificate can never license one path and
    /// run another.
    pub fn vm_image(&self, mode: ExecMode) -> VmImage {
        let vm_mode = match self.steps(mode) {
            Steps::Rows => VmMode::Rows,
            Steps::Cells => VmMode::Serial,
            Steps::Waves(tp) => VmMode::WavefrontTiled {
                schedule: (tp.schedule.x, tp.schedule.y),
            },
        };
        VmImage {
            arrays: self.layout.arrays,
            halo: self.layout.halo,
            rows: self.layout.rows,
            cols: self.layout.cols,
            n: self.n,
            m: self.m,
            outer: VmRange {
                lo: self.outer.lo,
                hi: self.outer.hi,
            },
            inner: VmRange {
                lo: self.inner.lo,
                hi: self.inner.hi,
            },
            mode: vm_mode,
            loops: self
                .loops
                .iter()
                .map(|cl| VmLoop {
                    offset: (cl.offset.x, cl.offset.y),
                    rows: VmRange {
                        lo: cl.rows.lo,
                        hi: cl.rows.hi,
                    },
                    cols: VmRange {
                        lo: cl.cols.lo,
                        hi: cl.cols.hi,
                    },
                    stmts: cl
                        .stmts
                        .iter()
                        .map(|s| VmStmt {
                            store_delta: s.store_delta,
                            regs: s.regs,
                            instrs: s
                                .instrs
                                .iter()
                                .map(|ins| match *ins {
                                    Instr::Const { dst, .. } => VmInstr::Const { dst },
                                    Instr::Load { dst, delta } => VmInstr::Load { dst, delta },
                                    Instr::Neg { dst } => VmInstr::Neg { dst },
                                    Instr::Bin { dst, .. } => VmInstr::Bin { dst },
                                })
                                .collect(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// The skewed tile plan `mode` drives, or `None` when the mode does
    /// not tile: it must be a wavefront, the schedule must order rows
    /// (`s.y >= 1`), and the iteration space must be non-empty. Tile
    /// sizes are derived deterministically from the space's shape alone,
    /// so the same kernel + mode always produces the same plan — the
    /// property that keeps barrier indices stable across
    /// checkpoint/resume.
    pub fn tile_plan(&self, mode: ExecMode) -> Option<TilePlan> {
        let ExecMode::Wavefront { schedule: s } = mode else {
            return None;
        };
        if s.y < 1 || self.outer.is_empty() || self.inner.is_empty() {
            return None;
        }
        // Front range via corner evaluation: t is linear in (fi, fj), so
        // its extrema over the box sit at the corners.
        let corners = [
            s.x * self.outer.lo + s.y * self.inner.lo,
            s.x * self.outer.lo + s.y * self.inner.hi,
            s.x * self.outer.hi + s.y * self.inner.lo,
            s.x * self.outer.hi + s.y * self.inner.hi,
        ];
        #[allow(clippy::expect_used)]
        let t0 = *corners.iter().min().expect("four corners");
        #[allow(clippy::expect_used)]
        let t1 = *corners.iter().max().expect("four corners");
        let fronts = t1 - t0 + 1;
        let rows = self.outer.len();
        // Coarse bands: wide enough to amortize per-wave dispatch, fine
        // enough to expose cross-tile parallelism on big spaces.
        let bi = (rows / 16).clamp(4, 64);
        let bt = (fronts / 8).clamp(16, 256);
        Some(TilePlan {
            schedule: s,
            t0,
            t1,
            bt,
            bi,
            n_tb: (fronts + bt - 1) / bt,
            n_ib: (rows + bi - 1) / bi,
        })
    }

    /// The per-barrier step plan of `mode` over this kernel's space: the
    /// one predicate behind execution, checkpointing, counters and the
    /// verifier's image. A wavefront that cannot tile falls back to the
    /// serial sweep.
    fn steps(&self, mode: ExecMode) -> Steps {
        match mode {
            ExecMode::RowsCertified => Steps::Rows,
            ExecMode::RowsSerial => Steps::Cells,
            ExecMode::Wavefront { .. } => self.tile_plan(mode).map_or(Steps::Cells, Steps::Waves),
        }
    }

    /// Runs the static bytecode verifier over this kernel's image for
    /// `mode` ([`CompiledKernel::vm_image`]) and returns its certificate,
    /// or the `MDF2xx` diagnostics on rejection. Execution does not depend
    /// on the outcome: every drive proves its own accesses in bounds.
    pub fn arm(&mut self, mode: ExecMode) -> Result<BytecodeCert, Vec<Diagnostic>> {
        bytecode::verify(&self.vm_image(mode))
    }

    /// Whether a previously issued certificate (e.g. one `arm` returned
    /// for an identical kernel) revalidates against this kernel's image for
    /// `mode`: checksum, mode and bounds must all match.
    pub fn arm_with_cert(&mut self, mode: ExecMode, cert: BytecodeCert) -> bool {
        bytecode::revalidate(&cert, &self.vm_image(mode))
    }

    /// Mutable access to the lowered loops, for the fuzzer's
    /// verifier-vs-execution oracle and the bounds proof's tests. A drive
    /// reads the loops afresh when it proves its bounds, so no mutation
    /// can outlive a proof.
    #[doc(hidden)]
    pub fn loops_mut(&mut self) -> &mut Vec<CompiledLoop> {
        &mut self.loops
    }

    /// Runs the kernel on fresh memory with the host's thread count.
    pub fn run(&self, mode: ExecMode) -> (KernelMemory, ExecStats) {
        self.run_with_threads(mode, rayon::current_num_threads())
    }

    /// [`CompiledKernel::run`] with an explicit worker count driving the
    /// step policy (whether certified steps take the tiled `SharedCells`
    /// path, and whether a large image fills in bands, see
    /// [`KernelMemory::with_threads`]); actual parallelism is still the
    /// runtime's to grant. Exposed so tests and benches can force either
    /// path deterministically. Panics only for loops mutated through
    /// `loops_mut` past the image, which the bounds proof refuses.
    pub fn run_with_threads(&self, mode: ExecMode, threads: usize) -> (KernelMemory, ExecStats) {
        // Lowering keeps every loop in bounds and an unlimited meter
        // cannot trip, so the one-attempt drive is total.
        #[allow(clippy::expect_used)]
        self.drive(
            mode,
            threads,
            &RetryPolicy::once(),
            &mut Budget::unlimited().meter(),
            None,
        )
        .and_then(SupervisedOutcome::into_complete)
        .expect("an unbudgeted drive of lowered loops cannot fail")
    }

    /// Runs under a resource budget with the host's thread count: a
    /// one-attempt [`CompiledKernel::drive`] ([`RetryPolicy::once`]).
    /// Cells are charged before allocation, and the deadline re-checked
    /// and statement instances charged at every barrier (fused row or tile
    /// wave). A deadline at a barrier top, or a panic inside a step, does
    /// not discard completed work: it returns a
    /// [`SupervisedOutcome::Partial`] with the failed barrier's clean top
    /// and a resumable [`Checkpoint`]; every other budget trip stays a
    /// typed error.
    pub fn run_budgeted(
        &self,
        mode: ExecMode,
        meter: &mut BudgetMeter,
    ) -> Result<SupervisedOutcome<KernelMemory>, MdfError> {
        let threads = rayon::current_num_threads();
        self.drive(mode, threads, &RetryPolicy::once(), meter, None)
    }

    /// Proves, before a drive allocates, that every load and store it can
    /// make stays inside the image. In every step kind a lowered loop runs
    /// only inside the box `(cl.rows ∩ outer) × (cl.cols ∩ inner)`, at the
    /// cursor of each cell, which is affine in `(fi, fj)`; so the
    /// cursor's extremes over the box sit at its corners, and every access
    /// (the cursor plus one of the loop's load or store deltas) lies
    /// between the lowest corner plus the smallest delta and the highest
    /// corner plus the largest. The deltas are read from the statements
    /// here, at drive start, so no mutation through `loops_mut` can
    /// outlive the proof. A resume image must be laid out as this
    /// kernel's own: a checkpoint's digest vouches for its image, not for
    /// the kernel it is handed to.
    fn prove_bounds(&self, resume: Option<&KernelMemory>) -> Result<(), MdfError> {
        if let Some(mem) = resume.filter(|mem| mem.layout() != self.layout) {
            return Err(MdfError::invalid(format!(
                "resume image laid out as {:?}, not as this kernel's {:?}",
                mem.layout(),
                self.layout
            )));
        }
        let Layout { halo, cols, .. } = self.layout;
        let cells = self.layout.cells() as i128;
        for (li, cl) in self.loops.iter().enumerate() {
            let (rows, span) = (meet(cl.rows, self.outer), meet(cl.cols, self.inner));
            let deltas = cl.stmts.iter().flat_map(|s| {
                s.instrs
                    .iter()
                    .filter_map(|ins| match *ins {
                        Instr::Load { delta, .. } => Some(delta),
                        _ => None,
                    })
                    .chain([s.store_delta])
            });
            let (Some(d_lo), Some(d_hi)) = (deltas.clone().min(), deltas.max()) else {
                continue; // no statements, no accesses
            };
            if rows.is_empty() || span.is_empty() {
                continue; // never runs
            }
            // In i128, so that no mutated range or delta can overflow the
            // proof; all four corners, so that it holds for any row stride.
            let cursor = |fi: i64, fj: i64| {
                (i128::from(fi) + i128::from(cl.offset.x) + i128::from(halo)) * i128::from(cols)
                    + i128::from(fj)
                    + i128::from(cl.offset.y)
                    + i128::from(halo)
            };
            let corners = [
                cursor(rows.lo, span.lo),
                cursor(rows.lo, span.hi),
                cursor(rows.hi, span.lo),
                cursor(rows.hi, span.hi),
            ];
            let lo = corners.into_iter().fold(i128::MAX, i128::min) + d_lo as i128;
            let hi = corners.into_iter().fold(i128::MIN, i128::max) + d_hi as i128;
            if lo < 0 || hi >= cells {
                return Err(MdfError::invalid(format!(
                    "lowered loop {li} reaches cells [{lo}, {hi}] over rows [{}, {}] and \
                     columns [{}, {}], outside the image's [0, {cells})",
                    rows.lo, rows.hi, span.lo, span.hi
                )));
            }
        }
        Ok(())
    }

    /// A fresh image under the budget: the `kernel.alloc` fault site,
    /// then the cell charge, then the fill (see
    /// [`KernelMemory::with_threads`]).
    fn alloc(&self, meter: &mut BudgetMeter, threads: usize) -> Result<KernelMemory, MdfError> {
        meter.chaos_site("kernel.alloc")?;
        meter.charge_cells(self.layout.cells() as u64)?;
        Ok(KernelMemory::with_threads(self.layout, threads))
    }

    /// One barrier of a drive: [`Self::step`], then the
    /// `kernel.chunk.mid` fault site. The site fires *after* the chunk's
    /// writes, so only a panic is sound there (the supervisor restores
    /// its base image and replays the barriers after it).
    fn chunk(
        &self,
        steps: &Steps,
        mem: &mut KernelMemory,
        barrier: u64,
        threads: usize,
        meter: &mut BudgetMeter,
    ) -> Result<u64, MdfError> {
        let instances = self.step(steps, mem.data_mut(), barrier, threads);
        meter.chaos_site("kernel.chunk.mid")?;
        Ok(instances)
    }

    /// The number of barriers `mode` executes over this kernel's iteration
    /// space: fused rows for the row modes and for a wavefront that
    /// cannot tile, tile waves for one that can. The unit of
    /// checkpointing and resumption, and the count [`ExecStats`] reports
    /// — post-elision syncs, never the pre-elision front count.
    pub fn barrier_count(&self, mode: ExecMode) -> u64 {
        self.barriers(&self.steps(mode))
    }

    fn barriers(&self, steps: &Steps) -> u64 {
        match steps {
            Steps::Rows | Steps::Cells => self.outer.len().max(0) as u64,
            Steps::Waves(tp) => tp.waves(),
        }
    }

    /// A supervised run from fresh memory: [`CompiledKernel::drive`]
    /// without a resume point.
    pub fn run_supervised(
        &self,
        mode: ExecMode,
        threads: usize,
        policy: &RetryPolicy,
        meter: &mut BudgetMeter,
    ) -> Result<SupervisedOutcome<KernelMemory>, MdfError> {
        self.drive(mode, threads, policy, meter, None)
    }

    /// The one drive of every run: `mode` under `threads` workers, once
    /// the bounds are proved, through the barrier driver
    /// `mdf_sim::supervise_run`, one chunk per barrier, from fresh memory
    /// or from `resume` (its digest verified, its layout required to be
    /// this kernel's own, its cells not re-charged). Recoverable failures
    /// (caught worker panics, deadline reports) are retried per `policy`
    /// with multi-thread → serial degradation; a failure inside a chunk is
    /// undone by restoring the driver's base image and replaying the
    /// barriers after it on a quiet meter, and the base is copied (into a
    /// reused buffer) only once the work since its last copy reaches the
    /// image's cell count. A completed run is bit-identical to an
    /// uninterrupted one; a [`SupervisedOutcome::Partial`] carries the
    /// failed barrier's clean top and a resumable [`Checkpoint`].
    pub fn drive(
        &self,
        mode: ExecMode,
        threads: usize,
        policy: &RetryPolicy,
        meter: &mut BudgetMeter,
        resume: Option<(KernelMemory, Checkpoint)>,
    ) -> Result<SupervisedOutcome<KernelMemory>, MdfError> {
        self.prove_bounds(resume.as_ref().map(|(mem, _)| mem))?;
        let steps = self.steps(mode);
        supervise_run(
            self.barriers(&steps),
            threads,
            "kernel.barrier",
            policy,
            meter,
            resume,
            |meter| self.alloc(meter, threads),
            |mem, barrier, threads_now, meter| self.chunk(&steps, mem, barrier, threads_now, meter),
        )
    }

    /// As [`CompiledKernel::run_with_threads`], reporting execution
    /// counters onto `span`: `kernel.barriers`, `kernel.instances`, plus
    /// `kernel.rows` (row steps) or `kernel.groups` and `wavefront.*`
    /// (tile waves), and `kernel.tiles` when certified rows take the tiled
    /// threaded path. Counters are derived after the run from
    /// [`ExecStats`] and the kernel's shape — nothing is counted inside
    /// the hot loops, so the run itself is bit-identical to the untraced
    /// one.
    pub fn run_with_threads_traced(
        &self,
        mode: ExecMode,
        threads: usize,
        span: &Span,
    ) -> (KernelMemory, ExecStats) {
        let out = self.run_with_threads(mode, threads);
        self.report_exec(mode, threads, &out.1, span);
        out
    }

    /// As [`CompiledKernel::run_budgeted`], reporting the execution
    /// counters accumulated so far (final on complete runs) onto `span`
    /// (see [`CompiledKernel::run_with_threads_traced`]).
    pub fn run_budgeted_traced(
        &self,
        mode: ExecMode,
        meter: &mut BudgetMeter,
        span: &Span,
    ) -> Result<SupervisedOutcome<KernelMemory>, MdfError> {
        let out = self.run_budgeted(mode, meter)?;
        self.report_exec(mode, rayon::current_num_threads(), &out.stats(), span);
        Ok(out)
    }

    /// Post-run counter reporting, shared by the traced entry points.
    /// `stats.barriers` equals the rows or tile waves executed, so the
    /// step-specific counters are exact without re-walking the iteration
    /// space.
    fn report_exec(&self, mode: ExecMode, threads: usize, stats: &ExecStats, span: &Span) {
        if !span.is_enabled() {
            return;
        }
        span.add("kernel.barriers", stats.barriers);
        span.add("kernel.instances", stats.stmt_instances);
        match self.steps(mode) {
            Steps::Rows => {
                span.add("kernel.rows", stats.barriers);
                if self.rows_tiled(threads) {
                    span.add(
                        "kernel.tiles",
                        stats.barriers * self.column_tile_count() as u64,
                    );
                }
            }
            Steps::Cells => span.add("kernel.rows", stats.barriers),
            Steps::Waves(tp) => {
                // Derived post-run from the deterministic plan + cost
                // model, never counted inside the hot loops.
                span.add("kernel.groups", stats.barriers);
                span.add("wavefront.tiles", tp.tiles());
                span.add("wavefront.elided_barriers", tp.elided());
                span.add("wavefront.serial_fronts", tp.serial_waves(threads));
            }
        }
    }

    /// Executes barrier `barrier` of `steps` in place and returns its
    /// statement instances.
    fn step(&self, steps: &Steps, data: &mut [i64], barrier: u64, threads: usize) -> u64 {
        let b = barrier as i64;
        match steps {
            Steps::Rows => self.row_loop_major(data, self.outer.lo + b, threads),
            Steps::Cells => self.row_cell_major(data, self.outer.lo + b),
            Steps::Waves(tp) => self.tile_wave(data, tp, b, threads),
        }
    }

    /// Whether certified rows take the tiled threaded path under `threads`
    /// workers. Shared between execution and the `kernel.tiles` counter so
    /// the accounting can never drift from what actually ran.
    fn rows_tiled(&self, threads: usize) -> bool {
        threads > 1 && self.inner.len() >= 2 * TILE_COLS
    }

    /// How many column tiles a certified threaded row splits into:
    /// [`TILE_COLS`]-wide chunks of the fused inner range, last one
    /// ragged. Shared between execution and the `kernel.tiles` counter.
    fn column_tile_count(&self) -> usize {
        (self.inner.len() as usize).div_ceil(TILE_COLS as usize)
    }

    /// One certified row, loop-major: the whole fused inner range in one
    /// sweep, or split into column tiles on the worker pool. Each tile
    /// replays the loop-major body restricted to its columns, which the
    /// row certificate makes equivalent (no dependence crosses iterations
    /// within the row). Kept out of line so the dispatch in [`Self::step`]
    /// cannot change how the row loops compile: inlined there, the row
    /// loop once ran 13–20% slower on E1, E2 and E4 at 192².
    #[inline(never)]
    fn row_loop_major(&self, data: &mut [i64], fi: i64, threads: usize) -> u64 {
        let cells = SharedCells::new(data);
        if self.rows_tiled(threads) {
            self.row_tiles_threaded(&cells, fi)
        } else {
            self.sweep_row(&cells, fi, self.inner)
        }
    }

    /// Sweeps fused row `fi` over the column window `window`, loop-major:
    /// every loop active in the row runs each statement over `cl.cols ∩
    /// window` with a cursor that advances by one cell per step, so it
    /// stays inside the box the bounds proof covered.
    fn sweep_row(&self, cells: &SharedCells, fi: i64, window: IRange) -> u64 {
        let mut regs = [0i64; MAX_REGS];
        let mut instances = 0u64;
        for cl in &self.loops {
            let span = meet(cl.cols, window);
            if !cl.rows.contains(fi) || span.is_empty() {
                continue;
            }
            let base = self.layout.cursor(fi + cl.offset.x, span.lo + cl.offset.y) as isize;
            for s in &cl.stmts {
                for cur in base..base + span.len() as isize {
                    let v = eval_compiled(&s.instrs, &mut regs, |d| cells.read(cur + d));
                    cells.write(cur + s.store_delta, v);
                }
            }
            instances += cl.stmts.len() as u64 * span.len() as u64;
        }
        instances
    }

    /// The threaded branch of [`Self::row_loop_major`]: one pool step over
    /// the row's column tiles, dispatched by tile index. Kept out of line
    /// so the serial sweep beside it compiles as it would alone.
    #[inline(never)]
    fn row_tiles_threaded(&self, cells: &SharedCells, fi: i64) -> u64 {
        let instances = AtomicU64::new(0);
        (0..self.column_tile_count()).into_par_iter().for_each(|t| {
            let lo = self.inner.lo + t as i64 * TILE_COLS;
            let tile = IRange {
                lo,
                hi: (lo + TILE_COLS - 1).min(self.inner.hi),
            };
            instances.fetch_add(self.sweep_row(cells, fi, tile), Ordering::Relaxed);
        });
        instances.into_inner()
    }

    /// One uncertified row: the canonical cell-major serialization, cell
    /// by cell with loops in body order — bit-identical to the
    /// interpreter's `run_fused` traversal, just through compiled bodies.
    fn row_cell_major(&self, data: &mut [i64], fi: i64) -> u64 {
        let cells = SharedCells::new(data);
        let mut regs = [0i64; MAX_REGS];
        (self.inner.lo..=self.inner.hi)
            .map(|fj| self.exec_cell(&cells, &mut regs, fi, fj))
            .sum()
    }

    /// Executes every active loop body at one fused cell, in place. The
    /// caller holds the only live view of the buffer, so the sequential
    /// use of the shared view is plain single-threaded mutation.
    #[inline]
    fn exec_cell(&self, cells: &SharedCells, regs: &mut [i64; MAX_REGS], fi: i64, fj: i64) -> u64 {
        let mut instances = 0u64;
        for cl in &self.loops {
            if !cl.rows.contains(fi) || !cl.cols.contains(fj) {
                continue;
            }
            let cur = self.layout.cursor(fi + cl.offset.x, fj + cl.offset.y) as isize;
            for s in &cl.stmts {
                let v = eval_compiled(&s.instrs, regs, |d| cells.read(cur + d));
                cells.write(cur + s.store_delta, v);
                instances += 1;
            }
        }
        instances
    }

    /// One tile wave: every tile on anti-diagonal `w` of the tile grid,
    /// serially or on the worker pool per the deterministic cost model
    /// ([`TilePlan::wave_serial`]).
    fn tile_wave(&self, data: &mut [i64], tp: &TilePlan, w: i64, threads: usize) -> u64 {
        let cells = SharedCells::new(data);
        if tp.wave_serial(w, threads) {
            let (lo, hi) = tp.wave_bands(w);
            let mut regs = [0i64; MAX_REGS];
            (lo..=hi)
                .map(|tb| self.exec_tile(&cells, &mut regs, tp, tb, w - tb))
                .sum()
        } else {
            self.tile_wave_threaded(&cells, tp, w)
        }
    }

    /// The threaded branch of [`Self::tile_wave`]: one pool step over
    /// wave `w`'s front bands. Same-wave tiles touch disjoint
    /// conflict-free cell sets (the elision certificate's monotonicity
    /// argument), so they run in place concurrently.
    #[inline(never)]
    fn tile_wave_threaded(&self, cells: &SharedCells, tp: &TilePlan, w: i64) -> u64 {
        let (lo, hi) = tp.wave_bands(w);
        let instances = AtomicU64::new(0);
        (lo..=hi).into_par_iter().for_each(|tb| {
            let n = self.exec_tile(cells, &mut [0i64; MAX_REGS], tp, tb, w - tb);
            instances.fetch_add(n, Ordering::Relaxed);
        });
        instances.into_inner()
    }

    /// The fused-column window of tile row `fi` within front band
    /// `[t_lo, t_hi]`: `t = s.x·fi + s.y·fj` solved for `fj`, clamped to
    /// the fused inner range. Shared by execution and instance counting.
    #[inline]
    fn tile_cols(&self, tp: &TilePlan, fi: i64, t_lo: i64, t_hi: i64) -> (i64, i64) {
        let s = tp.schedule;
        (
            div_ceil(t_lo - s.x * fi, s.y).max(self.inner.lo),
            div_floor(t_hi - s.x * fi, s.y).min(self.inner.hi),
        )
    }

    /// The inclusive `(t, fi)` extents of tile `(tb, ib)`.
    #[inline]
    fn tile_extents(&self, tp: &TilePlan, tb: i64, ib: i64) -> (i64, i64, i64, i64) {
        let t_lo = tp.t0 + tb * tp.bt;
        let t_hi = (t_lo + tp.bt - 1).min(tp.t1);
        let fi_lo = self.outer.lo + ib * tp.bi;
        let fi_hi = (fi_lo + tp.bi - 1).min(self.outer.hi);
        (t_lo, t_hi, fi_lo, fi_hi)
    }

    /// Executes one tile, cell-major: rows ascending, columns ascending
    /// within the row, loops in body order at each cell — the exact
    /// serialization the elision certificate proves equivalent to the
    /// front-by-front drive for every in-tile dependence.
    fn exec_tile(
        &self,
        cells: &SharedCells,
        regs: &mut [i64; MAX_REGS],
        tp: &TilePlan,
        tb: i64,
        ib: i64,
    ) -> u64 {
        let (t_lo, t_hi, fi_lo, fi_hi) = self.tile_extents(tp, tb, ib);
        let mut instances = 0u64;
        for fi in fi_lo..=fi_hi {
            let (lo, hi) = self.tile_cols(tp, fi, t_lo, t_hi);
            for fj in lo..=hi {
                instances += self.exec_cell(cells, regs, fi, fj);
            }
        }
        instances
    }
}

/// The intersection of two ranges (empty when they do not overlap).
fn meet(a: IRange, b: IRange) -> IRange {
    IRange {
        lo: a.lo.max(b.lo),
        hi: a.hi.min(b.hi),
    }
}

fn div_floor(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn div_ceil(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_core::plan_fusion;
    use mdf_ir::extract::extract_mldg;
    use mdf_ir::samples::{figure2_program, image_pipeline_program, relaxation_program};
    use mdf_sim::{run_fused, run_original, run_wavefront};

    fn planned_spec(p: &mdf_ir::ast::Program) -> (FusedSpec, mdf_core::FusionPlan) {
        let plan = plan_fusion(&extract_mldg(p).unwrap().graph).unwrap();
        let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
        (spec, plan)
    }

    #[test]
    fn certified_rows_match_original_fingerprint() {
        for (n, m) in [(0, 0), (1, 1), (5, 3), (12, 9)] {
            for p in [figure2_program(), image_pipeline_program()] {
                let (spec, plan) = planned_spec(&p);
                let mode = crate::plan_mode(&spec, &plan);
                assert_eq!(mode, ExecMode::RowsCertified, "{}", p.name);
                let k = CompiledKernel::compile(&spec, n, m).unwrap();
                let (kmem, kstats) = k.run(mode);
                let (imem, _) = run_original(&p, n, m);
                assert_eq!(
                    kmem.fingerprint(),
                    imem.fingerprint(),
                    "{} at ({n},{m})",
                    p.name
                );
                // Barrier accounting matches the fused interpreter.
                let (_, istats) = run_fused(&spec, n, m);
                assert_eq!(kstats.barriers, istats.barriers);
                assert_eq!(kstats.stmt_instances, istats.stmt_instances);
            }
        }
    }

    #[test]
    fn forced_tiled_path_matches_serial_path() {
        // Push the row length past the tiling threshold and force a
        // multi-worker policy: the SharedCells tiled path must produce the
        // same image as the single-threaded sweep.
        let p = figure2_program();
        let (spec, plan) = planned_spec(&p);
        let mode = crate::plan_mode(&spec, &plan);
        let k = CompiledKernel::compile(&spec, 4, 3 * TILE_COLS).unwrap();
        let (serial, _) = k.run_with_threads(mode, 1);
        let (tiled, _) = k.run_with_threads(mode, 4);
        assert_eq!(serial.fingerprint(), tiled.fingerprint());
        let (imem, _) = run_original(&p, 4, 3 * TILE_COLS);
        assert_eq!(tiled.fingerprint(), imem.fingerprint());
    }

    #[test]
    fn wavefront_mode_matches_original_and_interpreter_instances() {
        let p = relaxation_program();
        let (spec, plan) = planned_spec(&p);
        let mode = crate::plan_mode(&spec, &plan);
        let ExecMode::Wavefront { schedule } = mode else {
            panic!("relaxation must plan a wavefront");
        };
        let w = plan.wavefront().unwrap();
        assert_eq!(w.schedule, schedule);
        for (n, m) in [(0, 0), (3, 5), (10, 10)] {
            let k = CompiledKernel::compile(&spec, n, m).unwrap();
            let (kmem, kstats) = k.run(mode);
            let (imem, _) = run_original(&p, n, m);
            assert_eq!(kmem.fingerprint(), imem.fingerprint(), "({n},{m})");
            // Same work as the front-per-barrier interpreter, far fewer
            // syncs: one per tile wave.
            let (_, wstats) = run_wavefront(&spec, w, n, m);
            let tp = k.tile_plan(mode).unwrap();
            assert_eq!(kstats.barriers, tp.waves());
            assert!(kstats.barriers <= wstats.barriers);
            assert_eq!(kstats.stmt_instances, wstats.stmt_instances);
        }
        // Forced-parallel waves agree with the sequential waves.
        let k = CompiledKernel::compile(&spec, 8, 8).unwrap();
        let (a, _) = k.run_with_threads(mode, 1);
        let (b, _) = k.run_with_threads(mode, 4);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn serial_fallback_is_exact_for_legal_but_not_doall_specs() {
        // Figure 6's retiming fuses legally but rows are serial; the
        // RowsSerial fallback must still reproduce the original exactly.
        use mdf_graph::v2;
        let p = figure2_program();
        let spec = FusedSpec::new(p.clone(), vec![v2(0, 0), v2(0, 0), v2(0, -2), v2(0, -3)]);
        let k = CompiledKernel::compile(&spec, 8, 8).unwrap();
        let (kmem, _) = k.run(ExecMode::RowsSerial);
        let (imem, _) = run_original(&p, 8, 8);
        assert_eq!(kmem.fingerprint(), imem.fingerprint());
    }

    #[test]
    fn body_order_is_honored_not_textual_order() {
        // A backward edge collapsed to (0,0) forces loop B before loop A;
        // executing textually would read stale values.
        use mdf_graph::v2;
        use mdf_ir::ast::{ArrayRef, Expr, Program, Stmt};
        let mut p = Program::new("backward");
        let a = p.add_array("a");
        let b = p.add_array("b");
        p.add_loop(
            "A",
            vec![Stmt {
                lhs: ArrayRef::new(a, 0, 0),
                rhs: Expr::Ref(ArrayRef::new(b, -1, 0)),
            }],
        );
        p.add_loop(
            "B",
            vec![Stmt {
                lhs: ArrayRef::new(b, 0, 0),
                rhs: Expr::Const(7),
            }],
        );
        let spec = FusedSpec::new(p.clone(), vec![v2(1, 0), v2(0, 0)]);
        let k = CompiledKernel::compile(&spec, 6, 6).unwrap();
        let (kmem, _) = k.run(ExecMode::RowsSerial);
        let (fmem, _) = run_fused(&spec, 6, 6);
        assert_eq!(kmem.fingerprint(), fmem.fingerprint());
    }

    #[test]
    fn budgeted_run_matches_plain_and_trips_on_iteration_cap() {
        use mdf_graph::{Budget, BudgetResource};
        let p = figure2_program();
        let (spec, plan) = planned_spec(&p);
        let mode = crate::plan_mode(&spec, &plan);
        let k = CompiledKernel::compile(&spec, 9, 7).unwrap();
        let mut meter = Budget::unlimited().meter();
        let (bmem, bstats) = k
            .run_budgeted(mode, &mut meter)
            .unwrap()
            .into_complete()
            .unwrap();
        let (pmem, pstats) = k.run(mode);
        assert_eq!(bmem.fingerprint(), pmem.fingerprint());
        assert_eq!(bstats, pstats);

        let mut tight = Budget::unlimited().with_max_iterations(10).meter();
        match k.run_budgeted(mode, &mut tight) {
            Err(MdfError::BudgetExceeded {
                resource: BudgetResource::Iterations,
                ..
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }

        let mut tiny = Budget::unlimited().with_max_memory_cells(4).meter();
        match k.run_budgeted(mode, &mut tiny) {
            Err(MdfError::BudgetExceeded {
                resource: BudgetResource::MemoryCells,
                ..
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn injected_deadline_yields_partial_then_resume_is_bit_identical() {
        use mdf_chaos::{FaultKind, FaultPlan};
        use mdf_graph::Budget;
        let p = figure2_program();
        let (spec, plan) = planned_spec(&p);
        let mode = crate::plan_mode(&spec, &plan);
        let k = CompiledKernel::compile(&spec, 9, 7).unwrap();
        let (pmem, pstats) = k.run(mode);
        let total = k.barrier_count(mode);
        assert!(total >= 3);

        // Expire the deadline at every barrier index in turn; each stop
        // must be resumable to the exact uninterrupted image and counters.
        let once = RetryPolicy::once();
        let threads = rayon::current_num_threads();
        for b in 1..=total {
            let guard = FaultPlan::single("kernel.barrier", FaultKind::DeadlineExpiry, b).arm();
            let mut meter = Budget::unlimited().with_chaos().meter();
            let out = k.run_budgeted(mode, &mut meter).unwrap();
            drop(guard);
            let SupervisedOutcome::Partial {
                mem,
                checkpoint,
                cause,
                ..
            } = out
            else {
                panic!("expected a partial outcome at barrier {b}");
            };
            assert!(mdf_sim::deadline_expired(&cause));
            assert_eq!(checkpoint.completed_barriers, b - 1);
            assert_eq!(checkpoint.stats.barriers, b - 1);

            let mut meter = Budget::unlimited().meter();
            let (rmem, rstats) = k
                .drive(mode, threads, &once, &mut meter, Some((mem, checkpoint)))
                .unwrap()
                .into_complete()
                .unwrap();
            assert_eq!(rmem.fingerprint(), pmem.fingerprint(), "barrier {b}");
            assert_eq!(rstats, pstats, "barrier {b}");
        }
    }

    #[test]
    fn resume_rejects_a_tampered_image() {
        use mdf_chaos::{FaultKind, FaultPlan};
        use mdf_graph::Budget;
        let p = figure2_program();
        let (spec, plan) = planned_spec(&p);
        let mode = crate::plan_mode(&spec, &plan);
        let k = CompiledKernel::compile(&spec, 6, 6).unwrap();
        let guard = FaultPlan::single("kernel.barrier", FaultKind::DeadlineExpiry, 2).arm();
        let mut meter = Budget::unlimited().with_chaos().meter();
        let SupervisedOutcome::Partial {
            mut mem,
            checkpoint,
            ..
        } = k.run_budgeted(mode, &mut meter).unwrap()
        else {
            panic!("expected partial");
        };
        drop(guard);
        mem.data_mut()[0] ^= 1;
        let mut meter = Budget::unlimited().meter();
        let resume = Some((mem, checkpoint));
        assert!(k
            .drive(mode, 1, &RetryPolicy::once(), &mut meter, resume)
            .is_err());
    }

    #[test]
    fn supervised_run_recovers_injected_worker_panic_bit_identically() {
        use mdf_chaos::{FaultKind, FaultPlan};
        use mdf_graph::Budget;
        use mdf_sim::{RetryPolicy, SupervisedOutcome};
        let p = figure2_program();
        let (spec, plan) = planned_spec(&p);
        let mode = crate::plan_mode(&spec, &plan);
        let k = CompiledKernel::compile(&spec, 9, 7).unwrap();
        let (pmem, pstats) = k.run(mode);

        // A mid-chunk panic lands *after* the chunk's writes: recovery
        // must restore the base image, replay the barriers after it,
        // retry, and still match bit-for-bit.
        let guard = FaultPlan::single("kernel.chunk.mid", FaultKind::WorkerPanic, 3).arm();
        let mut meter = Budget::unlimited().with_chaos().meter();
        let out = k
            .run_supervised(mode, 1, &RetryPolicy::deterministic(), &mut meter)
            .unwrap();
        assert_eq!(guard.injected(), 1);
        drop(guard);
        match out {
            SupervisedOutcome::Complete {
                mem,
                stats,
                recovery,
            } => {
                assert_eq!(mem.fingerprint(), pmem.fingerprint());
                assert_eq!(stats, pstats, "retried work counted once");
                assert_eq!(recovery.retries, 1);
                assert_eq!(recovery.resumes, 1);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn supervised_alloc_refusal_is_retried_to_completion() {
        use mdf_chaos::{FaultKind, FaultPlan};
        use mdf_graph::Budget;
        use mdf_sim::RetryPolicy;
        let p = figure2_program();
        let (spec, plan) = planned_spec(&p);
        let mode = crate::plan_mode(&spec, &plan);
        let k = CompiledKernel::compile(&spec, 5, 5).unwrap();
        let (pmem, _) = k.run(mode);
        let guard = FaultPlan::single("kernel.alloc", FaultKind::AllocRefusal, 1).arm();
        let mut meter = Budget::unlimited().with_chaos().meter();
        let out = k
            .run_supervised(mode, 1, &RetryPolicy::deterministic(), &mut meter)
            .unwrap();
        assert_eq!(guard.injected(), 1);
        drop(guard);
        assert!(out.is_complete());
        assert_eq!(out.recovery().retries, 1);
        match out {
            mdf_sim::SupervisedOutcome::Complete { mem, .. } => {
                assert_eq!(mem.fingerprint(), pmem.fingerprint());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    fn single_node_program() -> mdf_ir::ast::Program {
        use mdf_ir::ast::{ArrayRef, Expr, Program, Stmt};
        let mut p = Program::new("stencil");
        let a = p.add_array("a");
        p.add_loop(
            "A",
            vec![Stmt {
                lhs: ArrayRef::new(a, 0, 0),
                rhs: Expr::Ref(ArrayRef::new(a, -1, 0)),
            }],
        );
        p
    }

    fn run_traced_profile(
        k: &CompiledKernel,
        mode: ExecMode,
        threads: usize,
    ) -> ((KernelMemory, ExecStats), mdf_trace::Profile) {
        use std::sync::Arc;
        let sink = Arc::new(mdf_trace::MemorySink::new());
        let tracer = mdf_trace::Tracer::new(sink.clone());
        let span = tracer.span("execute");
        let out = k.run_with_threads_traced(mode, threads, &span);
        span.finish();
        (out, sink.profile().unwrap())
    }

    #[test]
    fn empty_iteration_space_counts_zero_barriers_and_instances() {
        // n = -1 makes the fused outer range empty: the drivers must
        // execute nothing, touch nothing, and account exactly zero.
        let spec = FusedSpec::unretimed(single_node_program());
        let k = CompiledKernel::compile(&spec, -1, 3).unwrap();
        for mode in [ExecMode::RowsCertified, ExecMode::RowsSerial] {
            let ((mem, stats), profile) = run_traced_profile(&k, mode, 4);
            assert_eq!(stats.barriers, 0);
            assert_eq!(stats.stmt_instances, 0);
            assert_eq!(profile.counter_total("kernel.barriers"), 0);
            assert_eq!(profile.counter_total("kernel.instances"), 0);
            assert_eq!(profile.counter_total("kernel.tiles"), 0);
            assert_eq!(mem.fingerprint(), KernelMemory::new(k.layout).fingerprint());
        }
    }

    #[test]
    fn one_by_n_and_n_by_one_spaces_count_exactly() {
        let spec = FusedSpec::unretimed(single_node_program());

        // 1 x 8 space: one fused row, eight columns.
        let k = CompiledKernel::compile(&spec, 0, 7).unwrap();
        let ((_, stats), profile) = run_traced_profile(&k, ExecMode::RowsCertified, 1);
        assert_eq!(stats.barriers, 1);
        assert_eq!(stats.stmt_instances, 8);
        assert_eq!(profile.counter_total("kernel.rows"), 1);
        assert_eq!(profile.counter_total("kernel.barriers"), 1);
        assert_eq!(profile.counter_total("kernel.instances"), 8);
        assert_eq!(profile.counter_total("kernel.tiles"), 0, "below tile gate");

        // 8 x 1 space: eight fused rows, one column each.
        let k = CompiledKernel::compile(&spec, 7, 0).unwrap();
        let ((_, stats), profile) = run_traced_profile(&k, ExecMode::RowsSerial, 1);
        assert_eq!(stats.barriers, 8);
        assert_eq!(stats.stmt_instances, 8);
        assert_eq!(profile.counter_total("kernel.rows"), 8);
        assert_eq!(profile.counter_total("kernel.barriers"), 8);
    }

    #[test]
    fn single_node_mldg_compile_counters() {
        use std::sync::Arc;
        let spec = FusedSpec::unretimed(single_node_program());
        let sink = Arc::new(mdf_trace::MemorySink::new());
        let tracer = mdf_trace::Tracer::new(sink.clone());
        let span = tracer.span("lower");
        let k = CompiledKernel::compile_traced(&spec, 4, 4, &span).unwrap();
        span.finish();
        let profile = sink.profile().unwrap();
        assert_eq!(profile.counter_total("kernel.loops"), 1);
        // One statement: load a[i-1][j], store — at least one instruction,
        // and exactly what the lowered body holds.
        let instrs: u64 = k.loops[0].stmts.iter().map(|s| s.instrs.len() as u64).sum();
        assert!(instrs >= 1);
        assert_eq!(profile.counter_total("kernel.instrs"), instrs);
    }

    #[test]
    fn tiled_path_tile_counter_is_exact_and_does_not_perturb() {
        let p = figure2_program();
        let (spec, plan) = planned_spec(&p);
        let mode = crate::plan_mode(&spec, &plan);
        assert_eq!(mode, ExecMode::RowsCertified);
        let k = CompiledKernel::compile(&spec, 4, 3 * TILE_COLS).unwrap();

        let (plain_mem, plain_stats) = k.run_with_threads(mode, 4);
        let ((mem, stats), profile) = run_traced_profile(&k, mode, 4);
        assert_eq!(mem.fingerprint(), plain_mem.fingerprint());
        assert_eq!(stats, plain_stats);

        let tiles_per_row = (k.inner.len() + TILE_COLS - 1) / TILE_COLS;
        assert!(tiles_per_row >= 3);
        assert_eq!(
            profile.counter_total("kernel.tiles"),
            stats.barriers * tiles_per_row as u64
        );
        assert_eq!(profile.counter_total("kernel.rows"), stats.barriers);

        // Single-threaded run of the same kernel takes the untiled path.
        let (_, profile) = run_traced_profile(&k, mode, 1);
        assert_eq!(profile.counter_total("kernel.tiles"), 0);
    }

    #[test]
    fn wavefront_groups_counter_matches_barriers() {
        let p = relaxation_program();
        let (spec, plan) = planned_spec(&p);
        let mode = crate::plan_mode(&spec, &plan);
        let k = CompiledKernel::compile(&spec, 6, 6).unwrap();
        let ((_, stats), profile) = run_traced_profile(&k, mode, 2);
        assert_eq!(profile.counter_total("kernel.groups"), stats.barriers);
        assert_eq!(profile.counter_total("kernel.barriers"), stats.barriers);
        assert_eq!(
            profile.counter_total("kernel.instances"),
            stats.stmt_instances
        );
        assert_eq!(profile.counter_total("kernel.tiles"), 0);
    }

    #[test]
    fn tiled_wavefront_counters_match_the_plan_and_cost_model() {
        let p = relaxation_program();
        let (spec, plan) = planned_spec(&p);
        let mode = crate::plan_mode(&spec, &plan);
        let k = CompiledKernel::compile(&spec, 24, 24).unwrap();
        let tp = k.tile_plan(mode).expect("planned relaxation tiles");
        assert!(tp.waves() < tp.fronts(), "tiling must elide barriers");
        for threads in [1, 4] {
            let ((_, stats), profile) = run_traced_profile(&k, mode, threads);
            assert_eq!(stats.barriers, tp.waves());
            assert_eq!(profile.counter_total("kernel.barriers"), tp.waves());
            assert_eq!(profile.counter_total("wavefront.tiles"), tp.tiles());
            assert_eq!(
                profile.counter_total("wavefront.elided_barriers"),
                tp.fronts() - tp.waves()
            );
            assert_eq!(
                profile.counter_total("wavefront.serial_fronts"),
                tp.serial_waves(threads)
            );
        }
        // One worker serializes every wave; the counter must say so.
        assert_eq!(tp.serial_waves(1), tp.waves());
    }

    #[test]
    fn tiled_drive_reports_post_elision_barriers_everywhere() {
        // barrier_count, the budgeted driver, and the supervisor must all
        // agree on waves — the checkpoint unit — not pre-elision fronts.
        use mdf_graph::Budget;
        use mdf_sim::RetryPolicy;
        let p = relaxation_program();
        let (spec, plan) = planned_spec(&p);
        let mode = crate::plan_mode(&spec, &plan);
        let k = CompiledKernel::compile(&spec, 12, 12).unwrap();
        let tp = k.tile_plan(mode).unwrap();
        assert_eq!(k.barrier_count(mode), tp.waves());
        let mut meter = Budget::unlimited().meter();
        let (_, bstats) = k
            .run_budgeted(mode, &mut meter)
            .unwrap()
            .into_complete()
            .unwrap();
        assert_eq!(bstats.barriers, tp.waves());
        let mut meter = Budget::unlimited().meter();
        let out = k
            .run_supervised(mode, 2, &RetryPolicy::deterministic(), &mut meter)
            .unwrap();
        assert!(out.is_complete());
        assert_eq!(out.recovery().checkpoints_taken, tp.waves());
    }

    #[test]
    fn a_wavefront_that_cannot_tile_runs_and_verifies_as_the_serial_sweep() {
        let p = relaxation_program();
        let (spec, plan) = planned_spec(&p);
        let mode = crate::plan_mode(&spec, &plan);
        let k = CompiledKernel::compile(&spec, 8, 8).unwrap();
        assert!(k.tile_plan(mode).is_some());
        for rows in [ExecMode::RowsCertified, ExecMode::RowsSerial] {
            assert!(k.tile_plan(rows).is_none(), "{rows:?}");
        }
        // A hand-built schedule that cannot order rows never tiles: it
        // projects, counts and runs exactly as the serial fallback.
        let flat = ExecMode::Wavefront {
            schedule: mdf_graph::v2(1, 0),
        };
        assert!(k.tile_plan(flat).is_none());
        assert_eq!(k.vm_image(flat), k.vm_image(ExecMode::RowsSerial));
        assert_eq!(k.barrier_count(flat), k.barrier_count(ExecMode::RowsSerial));
        let (fmem, fstats) = k.run(flat);
        let (smem, sstats) = k.run(ExecMode::RowsSerial);
        assert_eq!(fmem.fingerprint(), smem.fingerprint());
        assert_eq!(fstats, sstats);
        let (imem, _) = run_original(&p, 8, 8);
        assert_eq!(fmem.fingerprint(), imem.fingerprint());
        // An empty space never tiles, projects as serial, and counts zero
        // barriers.
        let empty = CompiledKernel::compile(&spec, -1, 8).unwrap();
        assert!(empty.tile_plan(mode).is_none());
        assert_eq!(empty.vm_image(mode).mode, VmMode::Serial);
        assert_eq!(empty.barrier_count(mode), 0);
        let (_, stats) = empty.run(mode);
        assert_eq!(stats, ExecStats::default());
    }

    #[test]
    fn tiled_cert_mode_tracks_the_executed_path() {
        // The verified image's mode must equal what the drive will
        // execute, and a tiled cert must not cross-validate with the
        // serial fallback's cert for the same kernel, nor vice versa.
        let p = relaxation_program();
        let (spec, plan) = planned_spec(&p);
        let mode = crate::plan_mode(&spec, &plan);
        let ExecMode::Wavefront { schedule } = mode else {
            panic!("expected a wavefront");
        };
        let serial = ExecMode::RowsSerial;
        let mut k = CompiledKernel::compile(&spec, 10, 10).unwrap();
        let tiled_cert = k.arm(mode).unwrap();
        assert_eq!(
            tiled_cert.mode,
            VmMode::WavefrontTiled {
                schedule: (schedule.x, schedule.y)
            }
        );
        let serial_cert = k.arm(serial).unwrap();
        assert_eq!(serial_cert.mode, VmMode::Serial);
        // Cross-mode adoption is rejected both ways.
        let mut fresh = CompiledKernel::compile(&spec, 10, 10).unwrap();
        assert!(!fresh.arm_with_cert(mode, serial_cert));
        assert!(!fresh.arm_with_cert(serial, tiled_cert));
        assert!(fresh.arm_with_cert(mode, tiled_cert));
    }

    #[test]
    fn verifier_register_file_matches_the_executor() {
        assert_eq!(bytecode::VM_MAX_REGS, MAX_REGS);
    }

    #[test]
    fn honest_kernels_verify_and_certs_pin_their_image() {
        for p in [
            figure2_program(),
            image_pipeline_program(),
            relaxation_program(),
        ] {
            let (spec, plan) = planned_spec(&p);
            let mode = crate::plan_mode(&spec, &plan);
            for (n, m) in [(0, 0), (5, 3), (12, 9)] {
                let mut k = CompiledKernel::compile(&spec, n, m).unwrap();
                let cert = k
                    .arm(mode)
                    .unwrap_or_else(|d| panic!("{} at ({n},{m}) must verify: {d:?}", p.name));
                assert_eq!(cert.checksum, bytecode::image_checksum(&k.vm_image(mode)));
            }
        }
    }

    #[test]
    fn cert_is_mode_keyed_and_revalidation_guards_reuse() {
        let p = figure2_program();
        let (spec, plan) = planned_spec(&p);
        let mode = crate::plan_mode(&spec, &plan);
        let mut k = CompiledKernel::compile(&spec, 6, 6).unwrap();
        let cert = k.arm(mode).unwrap();

        // A fresh, identical kernel revalidates the cert.
        let mut k2 = CompiledKernel::compile(&spec, 6, 6).unwrap();
        assert!(k2.arm_with_cert(mode, cert));

        // Different bounds lower a different image: revalidation fails.
        let mut k3 = CompiledKernel::compile(&spec, 7, 6).unwrap();
        assert!(!k3.arm_with_cert(mode, cert));

        // A wrong mode claim must fail too.
        let mut k4 = CompiledKernel::compile(&spec, 6, 6).unwrap();
        assert!(!k4.arm_with_cert(ExecMode::RowsSerial, cert));
    }

    #[test]
    fn serial_fallback_mode_verifies_without_disjointness_obligations() {
        use mdf_graph::v2;
        let p = figure2_program();
        let spec = FusedSpec::new(p.clone(), vec![v2(0, 0), v2(0, 0), v2(0, -2), v2(0, -3)]);
        let mut k = CompiledKernel::compile(&spec, 8, 8).unwrap();
        let cert = k.arm(ExecMode::RowsSerial).unwrap();
        assert_eq!(cert.pairs_checked, 0, "serial mode has no step pairs");
        let (kmem, _) = k.run(ExecMode::RowsSerial);
        let (imem, _) = run_original(&p, 8, 8);
        assert_eq!(kmem.fingerprint(), imem.fingerprint());
    }

    #[test]
    fn nonexecutable_spec_fails_typed_at_compile() {
        // A same-loop, same-row dependence (a[i][j] reading a[i][j-1])
        // violates the DOALL program model; dependence analysis rejects
        // it, `body_order` has nothing to order, and compilation must
        // surface a typed error — mirroring the interpreter's traversals
        // in `mdf-sim` — instead of producing a kernel.
        use mdf_ir::ast::{ArrayRef, Expr, Program, Stmt};
        let mut p = Program::new("not-doall");
        let a = p.add_array("a");
        p.add_loop(
            "A",
            vec![Stmt {
                lhs: ArrayRef::new(a, 0, 0),
                rhs: Expr::Ref(ArrayRef::new(a, 0, -1)),
            }],
        );
        let spec = FusedSpec::unretimed(p);
        assert!(spec.body_order().is_none(), "analysis must reject the loop");
        assert!(CompiledKernel::compile(&spec, 4, 4).is_err());
    }
}
