//! Static verification of lowered kernel bytecode (`MDF2xx` codes).
//!
//! `mdf-kernel` lowers a fused spec into register bytecode whose array
//! accesses are precomputed *linear deltas* added to an iteration cursor
//! over one flat buffer. The executor proves each drive's accesses in
//! bounds itself, one check per loop, before it runs. This pass proves
//! that and more *statically*, by abstract interpretation over a
//! [`VmImage`] — a kernel's complete shape, independent of the
//! instruction semantics that do not affect safety (constant values and
//! operator identities are deliberately absent):
//!
//! 1. **Register discipline** (`MDF201`): every slot is written before
//!    it is read, and every slot index stays inside the executor's
//!    register file, for the postfix stack discipline the lowering emits
//!    (`Bin` reads `dst` and `dst + 1`).
//! 2. **Cursor window** (`MDF206`): every iteration coordinate the
//!    drivers pass to `Layout::cursor` stays inside the halo-extended
//!    plane, over the *entire* retimed iteration space — prologue,
//!    guard-free kernel, and epilogue rows alike.
//! 3. **Segment bounds** (`MDF202`/`MDF203`): every load and store
//!    address — cursor plus delta — stays inside the flat buffer *and*
//!    inside a single array plane, evaluated exactly at the rectangular
//!    corners of each loop's active range (the address is affine in
//!    `(fi, fj)` with positive coefficients, so corner evaluation is an
//!    exact interval analysis, not an approximation).
//! 4. **Step disjointness** (`MDF204`/`MDF205`): for a parallel mode,
//!    no write of one iteration can alias any access of a *distinct*
//!    iteration in the same parallel step (same fused row, or same
//!    hyperplane `s · (fi, fj)`). The aliasing condition over the flat
//!    addresses reduces to an integer feasibility check per
//!    (write, access) pair — a machine-level cross-check of the
//!    source-level race certificate ([`crate::race`]), trusting only the
//!    deltas that will actually execute.
//! 5. **Elision order** (`MDF208`): for the tiled wavefront mode, every
//!    collision between *different* fronts must point forward along the
//!    fused rows (and the schedule must have `s.y >= 1`), so the barriers
//!    elided inside a tile wave cannot reorder a dependence — the
//!    machine-level cross-check of `certify_elision` in [`crate::race`].
//!
//! A passing image yields a [`BytecodeCert`], the machine-checkable
//! record of what was proved, which `mdfuse verify`, `analyze --json`,
//! `mdfuse bench` and the fuzzer's oracle report or check. The cert
//! embeds an [`image_checksum`], so a cert can be [`revalidate`]d against
//! a freshly lowered kernel without re-proving.

use mdf_trace::json::{object, Json};

use crate::diag::{Diagnostic, Severity};

/// Register-file size the verifier assumes; must equal the executor's
/// `mdf_kernel::lower::MAX_REGS` (asserted by a kernel-side test).
pub const VM_MAX_REGS: usize = 64;

/// An inclusive 1-D range; empty when `lo > hi`. Mirror of
/// `mdf_ir::retgen::IRange`, kept local so the verifier's input model has
/// no dependency on the crates it certifies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VmRange {
    /// Lower bound (inclusive).
    pub lo: i64,
    /// Upper bound (inclusive).
    pub hi: i64,
}

impl VmRange {
    /// `true` when the range contains no integers.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Intersection with another range (may be empty).
    pub fn intersect(&self, other: &VmRange) -> VmRange {
        VmRange {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }
}

/// One bytecode instruction, as the verifier sees it. Constant values and
/// binary-operator identities are absent by design: the executor's
/// arithmetic is total (wrapping), so they cannot affect memory safety,
/// and omitting them lets one cert cover every program that lowers to the
/// same access shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmInstr {
    /// `regs[dst] = <constant>`.
    Const {
        /// Destination slot.
        dst: u16,
    },
    /// `regs[dst] = data[cursor + delta]`.
    Load {
        /// Destination slot.
        dst: u16,
        /// Linear offset from the iteration cursor.
        delta: isize,
    },
    /// `regs[dst] = -regs[dst]`.
    Neg {
        /// Slot negated in place.
        dst: u16,
    },
    /// `regs[dst] = regs[dst] op regs[dst + 1]`.
    Bin {
        /// Left operand and destination slot.
        dst: u16,
    },
}

/// One lowered assignment: run `instrs`, store slot 0 at
/// `cursor + store_delta`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmStmt {
    /// Linear offset of the written cell from the iteration cursor.
    pub store_delta: isize,
    /// Slots the lowering claims to use.
    pub regs: u16,
    /// The postfix instruction stream.
    pub instrs: Vec<VmInstr>,
}

/// One lowered innermost loop: retiming offset, active fused ranges, body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmLoop {
    /// The loop's retiming offset `r(u)` as `(x, y)`.
    pub offset: (i64, i64),
    /// Fused rows `fi` where the loop is active.
    pub rows: VmRange,
    /// Fused columns `fj` where the loop is active.
    pub cols: VmRange,
    /// The loop body in execution order.
    pub stmts: Vec<VmStmt>,
}

/// The parallel interpretation the certificate must license.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmMode {
    /// Sequential execution: disjointness is vacuous, only register
    /// discipline and bounds are proved.
    Serial,
    /// Row-DOALL: iterations of one fused row run concurrently.
    Rows,
    /// Tiled hyperplane wavefront with barrier elision: `(t, fi)` space
    /// (`t = s · (fi, fj)`) is cut into rectangular tiles and the
    /// anti-diagonal tile *waves* run with barriers only between waves.
    /// Tiles of one wave run concurrently; each tile sweeps its cells
    /// row-major (`fi` ascending, then `fj` ascending). Licensing this
    /// mode proves the hyperplane disjointness (`MDF205`: iterations
    /// with equal `s · (fi, fj)` never collide) and the sweep order
    /// (`MDF208`).
    WavefrontTiled {
        /// The schedule vector `s` as `(x, y)`.
        schedule: (i64, i64),
    },
}

impl VmMode {
    /// Short lower-case label used in reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            VmMode::Serial => "serial",
            VmMode::Rows => "rows",
            VmMode::WavefrontTiled { .. } => "wavefront-tiled",
        }
    }
}

/// A compiled kernel's complete verification-relevant shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmImage {
    /// Number of array planes in the flat buffer.
    pub arrays: usize,
    /// Halo width of every plane.
    pub halo: i64,
    /// Rows per plane (`n + 2*halo + 1`).
    pub rows: i64,
    /// Columns per plane (`m + 2*halo + 1`).
    pub cols: i64,
    /// Outer iteration bound the kernel was compiled for.
    pub n: i64,
    /// Inner iteration bound the kernel was compiled for.
    pub m: i64,
    /// The fused outer range the drivers sweep.
    pub outer: VmRange,
    /// The fused inner range the drivers sweep.
    pub inner: VmRange,
    /// The parallel interpretation to license.
    pub mode: VmMode,
    /// The lowered loops in body order.
    pub loops: Vec<VmLoop>,
}

impl VmImage {
    fn plane(&self) -> i64 {
        self.rows * self.cols
    }

    fn cells(&self) -> i64 {
        self.arrays as i64 * self.plane()
    }
}

/// A machine-checkable bytecode certificate: the static proof that one
/// compiled kernel, in one mode at one set of bounds, keeps register
/// discipline, stays in bounds and keeps each parallel step race-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BytecodeCert {
    /// The mode the certificate licenses.
    pub mode: VmMode,
    /// Outer bound of the certified kernel.
    pub n: i64,
    /// Inner bound of the certified kernel.
    pub m: i64,
    /// Lowered loops covered.
    pub loops: usize,
    /// Total bytecode instructions covered.
    pub instrs: u64,
    /// Load/store sites whose bounds were discharged.
    pub loads_checked: u64,
    /// (write, access) disjointness pairs discharged.
    pub pairs_checked: u64,
    /// [`image_checksum`] of the verified image; revalidation anchor.
    pub checksum: u64,
}

fn mix(h: &mut u64, v: u64) {
    let mut z = h.wrapping_add(v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    *h = z ^ (z >> 31);
}

/// A structural checksum over everything the verifier inspected: layout,
/// bounds, mode, ranges, deltas, and the full instruction shape. Two
/// images with equal checksums are verification-equivalent.
pub fn image_checksum(img: &VmImage) -> u64 {
    let mut h: u64 = 0x6d64_665f_6263_7631; // "mdf_bcv1"
    for v in [
        img.arrays as i64,
        img.halo,
        img.rows,
        img.cols,
        img.n,
        img.m,
        img.outer.lo,
        img.outer.hi,
        img.inner.lo,
        img.inner.hi,
    ] {
        mix(&mut h, v as u64);
    }
    match img.mode {
        VmMode::Serial => mix(&mut h, 1),
        VmMode::Rows => mix(&mut h, 2),
        VmMode::WavefrontTiled { schedule } => {
            mix(&mut h, 4);
            mix(&mut h, schedule.0 as u64);
            mix(&mut h, schedule.1 as u64);
        }
    }
    for l in &img.loops {
        for v in [
            l.offset.0, l.offset.1, l.rows.lo, l.rows.hi, l.cols.lo, l.cols.hi,
        ] {
            mix(&mut h, v as u64);
        }
        for s in &l.stmts {
            mix(&mut h, s.store_delta as u64);
            mix(&mut h, s.regs as u64);
            for ins in &s.instrs {
                match *ins {
                    VmInstr::Const { dst } => {
                        mix(&mut h, 11);
                        mix(&mut h, dst as u64);
                    }
                    VmInstr::Load { dst, delta } => {
                        mix(&mut h, 12);
                        mix(&mut h, dst as u64);
                        mix(&mut h, delta as u64);
                    }
                    VmInstr::Neg { dst } => {
                        mix(&mut h, 13);
                        mix(&mut h, dst as u64);
                    }
                    VmInstr::Bin { dst } => {
                        mix(&mut h, 14);
                        mix(&mut h, dst as u64);
                    }
                }
            }
        }
    }
    h
}

/// `true` when `cert` still licenses `img`: same structural checksum,
/// same mode, same bounds. The cache fast path — no re-proof needed.
pub fn revalidate(cert: &BytecodeCert, img: &VmImage) -> bool {
    cert.mode == img.mode
        && cert.n == img.n
        && cert.m == img.m
        && cert.loops == img.loops.len()
        && cert.checksum == image_checksum(img)
}

// ---------------------------------------------------------------------
// The verifier.

struct Verify<'a> {
    img: &'a VmImage,
    diags: Vec<Diagnostic>,
    loads_checked: u64,
    pairs_checked: u64,
}

/// One loop's effective footprint: a superset of the fused iterations
/// any driver path executes it at. Rows are clamped to the swept outer
/// range (the drivers iterate `outer` and gate on `rows.contains`);
/// columns are *not* clamped to `inner`, so a column range that reaches
/// past the swept one, which no drive executes, is still proved.
fn footprint(img: &VmImage, l: &VmLoop) -> (VmRange, VmRange) {
    (l.rows.intersect(&img.outer), l.cols)
}

/// Verifies a kernel image; returns the certificate, or every violation
/// found (never an empty error list).
pub fn verify(img: &VmImage) -> Result<BytecodeCert, Vec<Diagnostic>> {
    let mut v = Verify {
        img,
        diags: Vec::new(),
        loads_checked: 0,
        pairs_checked: 0,
    };
    v.check_shape();
    if v.diags.is_empty() {
        v.check_registers();
        v.check_bounds();
        v.check_disjoint();
    }
    if v.diags.is_empty() {
        Ok(BytecodeCert {
            mode: img.mode,
            n: img.n,
            m: img.m,
            loops: img.loops.len(),
            instrs: img
                .loops
                .iter()
                .flat_map(|l| l.stmts.iter())
                .map(|s| s.instrs.len() as u64)
                .sum(),
            loads_checked: v.loads_checked,
            pairs_checked: v.pairs_checked,
            checksum: image_checksum(img),
        })
    } else {
        Err(v.diags)
    }
}

impl Verify<'_> {
    fn err(&mut self, code: &'static str, message: String) {
        self.diags
            .push(Diagnostic::new(code, Severity::Error, message));
    }

    /// MDF207: the layout arithmetic every later check relies on must be
    /// internally consistent. Honest lowerings satisfy this by
    /// construction; a corrupted image is rejected before any interval
    /// math divides by its plane size.
    fn check_shape(&mut self) {
        let img = self.img;
        if img.halo < 0 {
            self.err("MDF207", format!("negative halo {}", img.halo));
        }
        if img.rows != img.n + 2 * img.halo + 1 || img.cols != img.m + 2 * img.halo + 1 {
            self.err(
                "MDF207",
                format!(
                    "layout extents {}x{} do not match bounds ({}, {}) with halo {}",
                    img.rows, img.cols, img.n, img.m, img.halo
                ),
            );
        }
    }

    /// MDF201: register discipline, per statement. The executor's
    /// register file is a fixed `[i64; MAX_REGS]` reused across
    /// statements, so a slot read before this statement writes it would
    /// observe stale data from an unrelated body — rejected even though
    /// it cannot fault.
    fn check_registers(&mut self) {
        for (li, l) in self.img.loops.iter().enumerate() {
            for (si, s) in l.stmts.iter().enumerate() {
                self.check_stmt_registers(li, si, s);
            }
        }
    }

    fn check_stmt_registers(&mut self, li: usize, si: usize, s: &VmStmt) {
        let at = |what: &str, ii: usize| format!("loop {li} stmt {si} instr {ii}: {what}");
        if s.regs as usize > VM_MAX_REGS {
            self.err(
                "MDF201",
                format!(
                    "loop {li} stmt {si}: claims {} register slots, executor file holds {}",
                    s.regs, VM_MAX_REGS
                ),
            );
            return;
        }
        let mut defined = 0u64; // bitset over the <= 64 slots
        for (ii, ins) in s.instrs.iter().enumerate() {
            let (dst, needs_dst, needs_src) = match *ins {
                VmInstr::Const { dst } | VmInstr::Load { dst, .. } => (dst, false, false),
                VmInstr::Neg { dst } => (dst, true, false),
                VmInstr::Bin { dst } => (dst, true, true),
            };
            if dst >= s.regs {
                self.err(
                    "MDF201",
                    at(&format!("slot {dst} outside the {} claimed", s.regs), ii),
                );
                return;
            }
            if needs_dst && defined & (1 << dst) == 0 {
                self.err("MDF201", at(&format!("slot {dst} read before write"), ii));
                return;
            }
            if needs_src {
                let src = dst + 1;
                if src >= s.regs {
                    self.err(
                        "MDF201",
                        at(
                            &format!("operand slot {src} outside the {} claimed", s.regs),
                            ii,
                        ),
                    );
                    return;
                }
                if defined & (1 << src) == 0 {
                    self.err("MDF201", at(&format!("slot {src} read before write"), ii));
                    return;
                }
            }
            defined |= 1 << dst;
        }
        if defined & 1 == 0 {
            self.err(
                "MDF201",
                format!("loop {li} stmt {si}: stores slot 0, which no instruction writes"),
            );
        }
    }

    /// MDF206 + MDF202/MDF203: cursor-window and segment-bounds interval
    /// analysis. The flat address of an access with delta `d` at fused
    /// iteration `(fi, fj)` of a loop with offset `r` is
    ///
    /// ```text
    /// idx(fi, fj) = (fi + r.x + halo) * cols + (fj + r.y + halo) + d
    /// ```
    ///
    /// affine in `(fi, fj)` with positive coefficients (`cols >= 1`,
    /// `1`), so its extrema over the rectangular footprint are at the two
    /// opposite corners — corner evaluation is exact.
    fn check_bounds(&mut self) {
        let img = self.img;
        let (plane, cells) = (img.plane(), img.cells());
        for (li, l) in img.loops.iter().enumerate() {
            let (rows, cols) = footprint(img, l);
            if rows.is_empty() || cols.is_empty() {
                continue; // never executed: nothing to prove
            }
            // Cursor window: the drivers call `Layout::cursor` on
            // (fi + r.x, fj + r.y); its debug window must hold at the
            // corners, hence everywhere in between.
            let (ix_lo, ix_hi) = (rows.lo + l.offset.0, rows.hi + l.offset.0);
            let (jx_lo, jx_hi) = (cols.lo + l.offset.1, cols.hi + l.offset.1);
            if ix_lo < -img.halo || ix_hi >= img.rows - img.halo {
                self.err(
                    "MDF206",
                    format!(
                        "loop {li}: cursor rows [{ix_lo}, {ix_hi}] escape the layout \
                         window [{}, {}]",
                        -img.halo,
                        img.rows - img.halo - 1
                    ),
                );
                continue;
            }
            if jx_lo < -img.halo || jx_hi >= img.cols - img.halo {
                self.err(
                    "MDF206",
                    format!(
                        "loop {li}: cursor columns [{jx_lo}, {jx_hi}] escape the layout \
                         window [{}, {}]",
                        -img.halo,
                        img.cols - img.halo - 1
                    ),
                );
                continue;
            }
            let base_lo =
                (rows.lo + l.offset.0 + img.halo) * img.cols + (cols.lo + l.offset.1 + img.halo);
            let base_hi =
                (rows.hi + l.offset.0 + img.halo) * img.cols + (cols.hi + l.offset.1 + img.halo);
            for (si, s) in l.stmts.iter().enumerate() {
                let mut site = |code: &'static str, what: String, d: isize| {
                    let (lo, hi) = (base_lo + d as i64, base_hi + d as i64);
                    if lo < 0 || hi >= cells {
                        self.err(
                            code,
                            format!(
                                "loop {li} stmt {si}: {what} spans flat addresses \
                                 [{lo}, {hi}] outside the buffer [0, {})",
                                cells
                            ),
                        );
                    } else if lo / plane != hi / plane {
                        self.err(
                            code,
                            format!(
                                "loop {li} stmt {si}: {what} spans addresses [{lo}, {hi}] \
                                 crossing from array plane {} into {}",
                                lo / plane,
                                hi / plane
                            ),
                        );
                    } else {
                        self.loads_checked += 1;
                    }
                };
                site(
                    "MDF203",
                    format!("store (delta {})", s.store_delta),
                    s.store_delta,
                );
                for (ii, ins) in s.instrs.iter().enumerate() {
                    if let VmInstr::Load { delta, .. } = *ins {
                        site(
                            "MDF202",
                            format!("load at instr {ii} (delta {delta})"),
                            delta,
                        );
                    }
                }
            }
        }
    }

    /// MDF204/MDF205: step disjointness. Two fused iterations
    /// `(fi1, fj1)` of loop `u` and `(fi2, fj2)` of loop `v` collide on
    /// one flat cell through deltas `dw` (a write of `u`) and `da` (any
    /// access of `v`) iff, with displacement `(a, b) = (fi2-fi1, fj2-fj1)`,
    ///
    /// ```text
    /// a * cols + b == K,   K = (ru.x-rv.x)*cols + (ru.y-rv.y) + dw - da
    /// ```
    ///
    /// The mode constrains which displacements share a parallel step, so
    /// the race question becomes integer feasibility of `(a, b)` over the
    /// two loops' footprint difference ranges — solved exactly, per pair.
    fn check_disjoint(&mut self) {
        let img = self.img;
        let mode = img.mode;
        if matches!(mode, VmMode::Serial) {
            return;
        }
        // `s.y >= 1` also rules out the degenerate schedule (0, 0), under
        // which every iteration would share one step.
        if let VmMode::WavefrontTiled { schedule } = mode {
            if schedule.1 < 1 {
                self.err(
                    "MDF208",
                    format!(
                        "tiled wavefront schedule ({}, {}) has s.y < 1: the row-major \
                         in-tile sweep cannot order same-row fronts",
                        schedule.0, schedule.1
                    ),
                );
                return;
            }
        }
        // Gather writes and accesses of active loops once.
        struct Site {
            li: usize,
            rows: VmRange,
            cols: VmRange,
            offset: (i64, i64),
            delta: isize,
        }
        let mut writes = Vec::new();
        let mut accesses = Vec::new();
        for (li, l) in img.loops.iter().enumerate() {
            let (rows, cols) = footprint(img, l);
            if rows.is_empty() || cols.is_empty() {
                continue;
            }
            for s in &l.stmts {
                writes.push(Site {
                    li,
                    rows,
                    cols,
                    offset: l.offset,
                    delta: s.store_delta,
                });
                accesses.push(Site {
                    li,
                    rows,
                    cols,
                    offset: l.offset,
                    delta: s.store_delta,
                });
                for ins in &s.instrs {
                    if let VmInstr::Load { delta, .. } = *ins {
                        accesses.push(Site {
                            li,
                            rows,
                            cols,
                            offset: l.offset,
                            delta,
                        });
                    }
                }
            }
        }
        for w in &writes {
            for a in &accesses {
                self.pairs_checked += 1;
                let k = (w.offset.0 - a.offset.0) * img.cols
                    + (w.offset.1 - a.offset.1)
                    + (w.delta as i64 - a.delta as i64);
                // Displacement boxes: a = fi2 - fi1 with fi1 in w.rows,
                // fi2 in a.rows (and symmetrically for b).
                let arange = VmRange {
                    lo: a.rows.lo - w.rows.hi,
                    hi: a.rows.hi - w.rows.lo,
                };
                let brange = VmRange {
                    lo: a.cols.lo - w.cols.hi,
                    hi: a.cols.hi - w.cols.lo,
                };
                let witness = match mode {
                    VmMode::Serial => None,
                    VmMode::Rows => {
                        // Same step <=> a == 0; distinct <=> b != 0.
                        (arange.lo <= 0
                            && 0 <= arange.hi
                            && k != 0
                            && brange.lo <= k
                            && k <= brange.hi)
                            .then_some((0, k))
                            .map(|d| (d, "MDF204", "fused row".to_string()))
                    }
                    VmMode::WavefrontTiled { schedule } => {
                        // The hyperplane obligation: no two iterations of
                        // one front collide...
                        wavefront_witness(schedule, img.cols, k, &arange, &brange)
                            .map(|d| {
                                (
                                    d,
                                    "MDF205",
                                    format!("hyperplane (s = ({}, {}))", schedule.0, schedule.1),
                                )
                            })
                            // ...plus the elision obligation: no collision
                            // may point backwards along the fused rows.
                            .or_else(|| {
                                order_violation_witness(schedule, img.cols, k, &arange, &brange)
                                    .map(|d| {
                                        (
                                            d,
                                            "MDF208",
                                            format!(
                                                "tile wave (s = ({}, {}))",
                                                schedule.0, schedule.1
                                            ),
                                        )
                                    })
                            })
                    }
                };
                if let Some(((da, db), code, step)) = witness {
                    self.err(
                        code,
                        format!(
                            "loop {} write (delta {}) aliases loop {} access (delta {}) \
                             across distinct iterations of one {step}: displacement \
                             ({da}, {db}) solves the collision equation (K = {k})",
                            w.li, w.delta, a.li, a.delta
                        ),
                    );
                    return; // one witness suffices; the image is rejected
                }
            }
        }
    }
}

/// Searches for a nonzero displacement `(a, b) = t * p` (the integer
/// solutions of `s · (a, b) = 0`) inside the feasibility boxes with
/// `a * cols + b == k`. Returns the witness displacement if one exists.
fn wavefront_witness(
    s: (i64, i64),
    cols: i64,
    k: i64,
    arange: &VmRange,
    brange: &VmRange,
) -> Option<(i64, i64)> {
    let g = gcd(s.0.unsigned_abs(), s.1.unsigned_abs()) as i64;
    debug_assert!(g > 0, "degenerate schedules are rejected earlier");
    let p = (-s.1 / g, s.0 / g); // primitive generator of the step lattice
    let d = p.0 * cols + p.1;
    if d != 0 {
        // a*cols + b = t*d == k: t is forced.
        if k % d != 0 {
            return None;
        }
        let t = k / d;
        (t != 0 && fits(t, p.0, arange) && fits(t, p.1, brange)).then_some((t * p.0, t * p.1))
    } else {
        // Every t solves a*cols + b == 0; collide only when k == 0, at
        // any nonzero t feasible in both boxes.
        if k != 0 {
            return None;
        }
        let ts = trange(p.0, arange)?.intersect(&trange(p.1, brange)?);
        let t = if ts.lo > 0 || ts.hi < 0 {
            // 0 not in [lo, hi]: any endpoint is a nonzero witness.
            if ts.is_empty() {
                return None;
            }
            ts.lo
        } else if ts.hi >= 1 {
            1
        } else if ts.lo <= -1 {
            -1
        } else {
            return None; // only t == 0 is feasible
        };
        Some((t * p.0, t * p.1))
    }
}

/// Searches for a collision displacement `(a, b)` (`a * cols + b == k`,
/// inside the feasibility boxes) that the tiled sweep would execute out
/// of order: writing `f = s · (a, b)` for the front separation, a
/// violation is `f > 0` with `a < 0` or `f < 0` with `a > 0` — the
/// later-front touch sits in an *earlier* fused row, so two tiles of one
/// wave (which the elided barriers no longer separate) could race on the
/// cell, or the in-tile row-major sweep would visit sink before source.
///
/// Substituting `b = k - a * cols` makes `f` affine in `a`:
/// `f(a) = a * (s.x - s.y * cols) + s.y * k`, so each sign class is an
/// endpoint check over the feasible `a` interval — exact and O(1).
fn order_violation_witness(
    s: (i64, i64),
    cols: i64,
    k: i64,
    arange: &VmRange,
    brange: &VmRange,
) -> Option<(i64, i64)> {
    debug_assert!(cols > 0, "layouts have at least one column");
    // Feasible a: a in arange and k - a*cols in brange.
    let lo = arange.lo.max(div_ceil(k - brange.hi, cols));
    let hi = arange.hi.min(div_floor(k - brange.lo, cols));
    if lo > hi {
        return None;
    }
    let q = s.0 - s.1 * cols;
    let r = s.1 * k;
    let f = |a: i64| a * q + r;
    // Class 1: a < 0 with f(a) > 0. f is affine, so its maximum over the
    // sub-interval sits at an endpoint picked by the sign of q.
    let (nlo, nhi) = (lo, hi.min(-1));
    if nlo <= nhi {
        let a = if q >= 0 { nhi } else { nlo };
        if f(a) > 0 {
            return Some((a, k - a * cols));
        }
    }
    // Class 2: a > 0 with f(a) < 0 (the same collision, oriented the
    // other way round).
    let (plo, phi) = (lo.max(1), hi);
    if plo <= phi {
        let a = if q >= 0 { plo } else { phi };
        if f(a) < 0 {
            return Some((a, k - a * cols));
        }
    }
    None
}

/// `true` when `t * q` lies in `r`.
fn fits(t: i64, q: i64, r: &VmRange) -> bool {
    let v = t * q;
    r.lo <= v && v <= r.hi
}

/// The integer `t` for which `t * q` lies in `r`; `None` when empty.
/// `q == 0` requires `0 ∈ r` and leaves `t` unconstrained.
fn trange(q: i64, r: &VmRange) -> Option<VmRange> {
    if q == 0 {
        return (r.lo <= 0 && 0 <= r.hi).then_some(VmRange {
            lo: i64::MIN / 4,
            hi: i64::MAX / 4,
        });
    }
    let (lo, hi) = if q > 0 {
        (div_ceil(r.lo, q), div_floor(r.hi, q))
    } else {
        (div_ceil(r.hi, q), div_floor(r.lo, q))
    };
    (lo <= hi).then_some(VmRange { lo, hi })
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

fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

// ---------------------------------------------------------------------
// Reporting.

/// Runs the verifier and renders the outcome as diagnostics: the MDF2xx
/// violations on rejection, or one `MDF200` info certificate on success.
pub fn certificate_diagnostics(img: &VmImage) -> (Option<BytecodeCert>, Vec<Diagnostic>) {
    match verify(img) {
        Ok(cert) => {
            let d = Diagnostic::new(
                "MDF200",
                Severity::Info,
                format!(
                    "bytecode verified for {} execution at bounds ({}, {}): {} loop(s), \
                     {} instruction(s), {} access site(s) bounded, {} disjointness \
                     pair(s) checked",
                    cert.mode.as_str(),
                    cert.n,
                    cert.m,
                    cert.loops,
                    cert.instrs,
                    cert.loads_checked,
                    cert.pairs_checked
                ),
            );
            (Some(cert), vec![d])
        }
        Err(diags) => (None, diags),
    }
}

/// A cert (or its absence) plus its diagnostics as the value of the
/// `bytecode` report section.
pub fn section_json(cert: Option<&BytecodeCert>, diags: &[Diagnostic]) -> Json {
    let mut fields = vec![("verified", Json::from(cert.is_some()))];
    if let Some(c) = cert {
        fields.extend([
            ("mode", Json::from(c.mode.as_str())),
            ("n", Json::Num(c.n as f64)),
            ("m", Json::Num(c.m as f64)),
            ("loops", c.loops.into()),
            ("instrs", c.instrs.into()),
            ("loads_checked", c.loads_checked.into()),
            ("pairs_checked", c.pairs_checked.into()),
            ("checksum", Json::Str(format!("{:#x}", c.checksum))),
        ]);
    }
    fields.push((
        "diagnostics",
        diags.iter().map(crate::diag::diag_json).collect(),
    ));
    object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small honest image: one loop, identity offset, a body computing
    /// `x[i][j] = x[i-1][j] + 1` over a 5x5 space with halo 1.
    fn stencil_image(mode: VmMode) -> VmImage {
        let (n, m, halo) = (4, 4, 1);
        VmImage {
            arrays: 1,
            halo,
            rows: n + 2 * halo + 1,
            cols: m + 2 * halo + 1,
            n,
            m,
            outer: VmRange { lo: 0, hi: n },
            inner: VmRange { lo: 0, hi: m },
            mode,
            loops: vec![VmLoop {
                offset: (0, 0),
                rows: VmRange { lo: 0, hi: n },
                cols: VmRange { lo: 0, hi: m },
                stmts: vec![VmStmt {
                    store_delta: 0,
                    regs: 2,
                    instrs: vec![
                        VmInstr::Load {
                            dst: 0,
                            delta: -(m as isize + 2 * halo as isize + 1), // x[i-1][j]
                        },
                        VmInstr::Const { dst: 1 },
                        VmInstr::Bin { dst: 0 },
                    ],
                }],
            }],
        }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn honest_stencil_verifies_in_rows_and_serial_modes() {
        for mode in [VmMode::Serial, VmMode::Rows] {
            let cert = verify(&stencil_image(mode)).unwrap();
            assert_eq!(cert.mode, mode);
            assert_eq!(cert.loops, 1);
            assert_eq!(cert.instrs, 3);
            assert!(cert.loads_checked >= 2, "store + load");
            assert!(revalidate(&cert, &stencil_image(mode)));
            // A different mode fails revalidation.
            assert!(!revalidate(&cert, &stencil_image(VmMode::Serial)) || mode == VmMode::Serial);
        }
        // Rows mode checked one (write, access) pair per combination:
        // store-vs-store and store-vs-load.
        let cert = verify(&stencil_image(VmMode::Rows)).unwrap();
        assert_eq!(cert.pairs_checked, 2);
    }

    #[test]
    fn register_use_before_def_is_rejected() {
        let mut img = stencil_image(VmMode::Serial);
        // Bin reads slot 1 before anything writes it.
        img.loops[0].stmts[0].instrs = vec![VmInstr::Const { dst: 0 }, VmInstr::Bin { dst: 0 }];
        let err = verify(&img).unwrap_err();
        assert_eq!(codes(&err), ["MDF201"]);
        assert!(err[0].message.contains("read before write"), "{err:?}");

        // Slot index past the claimed register count.
        let mut img = stencil_image(VmMode::Serial);
        img.loops[0].stmts[0].instrs[0] = VmInstr::Load { dst: 9, delta: 0 };
        assert_eq!(codes(&verify(&img).unwrap_err()), ["MDF201"]);

        // Claimed register count past the executor's file.
        let mut img = stencil_image(VmMode::Serial);
        img.loops[0].stmts[0].regs = VM_MAX_REGS as u16 + 1;
        assert_eq!(codes(&verify(&img).unwrap_err()), ["MDF201"]);

        // Empty body: slot 0 is stored but never written.
        let mut img = stencil_image(VmMode::Serial);
        img.loops[0].stmts[0].instrs.clear();
        assert_eq!(codes(&verify(&img).unwrap_err()), ["MDF201"]);
    }

    #[test]
    fn out_of_segment_load_and_store_are_rejected() {
        // A delta past the whole buffer.
        let mut img = stencil_image(VmMode::Serial);
        let cells = img.cells() as isize;
        img.loops[0].stmts[0].instrs[0] = VmInstr::Load {
            dst: 0,
            delta: cells,
        };
        assert_eq!(codes(&verify(&img).unwrap_err()), ["MDF202"]);

        // A store delta underflowing the buffer.
        let mut img = stencil_image(VmMode::Serial);
        img.loops[0].stmts[0].store_delta = -cells;
        assert_eq!(codes(&verify(&img).unwrap_err()), ["MDF203"]);
    }

    #[test]
    fn plane_crossing_access_is_rejected_even_inside_the_buffer() {
        // Two arrays; a load whose interval stays in [0, cells) but leaks
        // from plane 0 into plane 1 across the iteration space.
        let mut img = stencil_image(VmMode::Serial);
        img.arrays = 2;
        // The access interval's high corner sits at flat address
        // (n+halo)*cols + (m+halo) + delta; park it 5 cells past the
        // plane boundary while the low corner stays in plane 0.
        let high_corner = (img.n + img.halo) * img.cols + (img.m + img.halo);
        img.loops[0].stmts[0].instrs[0] = VmInstr::Load {
            dst: 0,
            delta: (img.plane() + 5 - high_corner) as isize,
        };
        let err = verify(&img).unwrap_err();
        assert_eq!(codes(&err), ["MDF202"]);
        assert!(err[0].message.contains("crossing"), "{err:?}");
    }

    #[test]
    fn cursor_window_escape_is_rejected() {
        let mut img = stencil_image(VmMode::Serial);
        img.loops[0].rows.hi += 10; // clamped by outer...
        assert!(verify(&img).is_ok(), "rows are clamped to the swept outer");
        img.outer.hi += 10; // ...until the sweep itself extends
        assert_eq!(codes(&verify(&img).unwrap_err()), ["MDF206"]);
    }

    #[test]
    fn malformed_layout_is_rejected_first() {
        let mut img = stencil_image(VmMode::Rows);
        img.rows -= 1;
        assert_eq!(codes(&verify(&img).unwrap_err()), ["MDF207"]);
        let mut img = stencil_image(VmMode::Rows);
        img.halo = -1;
        assert!(codes(&verify(&img).unwrap_err()).contains(&"MDF207"));
    }

    #[test]
    fn row_step_overlap_is_rejected_in_rows_mode_only() {
        // x[i][j] = x[i][j-1]: distinct iterations of one row collide.
        let mut img = stencil_image(VmMode::Rows);
        img.loops[0].stmts[0].instrs[0] = VmInstr::Load { dst: 0, delta: -1 };
        let err = verify(&img).unwrap_err();
        assert_eq!(codes(&err), ["MDF204"]);
        assert!(err[0].message.contains("displacement"), "{err:?}");

        // The same image is fine serially.
        let mut img = stencil_image(VmMode::Serial);
        img.loops[0].stmts[0].instrs[0] = VmInstr::Load { dst: 0, delta: -1 };
        assert!(verify(&img).is_ok());
    }

    #[test]
    fn row_step_accepts_cross_row_dependences() {
        // The honest stencil reads x[i-1][j]: a cross-row flow is no race
        // within a row.
        assert!(verify(&stencil_image(VmMode::Rows)).is_ok());
    }

    #[test]
    fn wavefront_step_overlap_matches_the_schedule_geometry() {
        // Read x[i-1][j+1]: displacement (1, -1) is orthogonal to
        // s = (1, 1), so the hyperplane step races; s = (2, 1) separates
        // the two iterations and orders them forward along the rows.
        let delta_up_right = |img: &VmImage| -(img.cols as isize) + 1;
        let mut img = stencil_image(VmMode::WavefrontTiled { schedule: (1, 1) });
        img.loops[0].stmts[0].instrs[0] = VmInstr::Load {
            dst: 0,
            delta: delta_up_right(&img),
        };
        assert_eq!(codes(&verify(&img).unwrap_err()), ["MDF205"]);

        let mut img = stencil_image(VmMode::WavefrontTiled { schedule: (2, 1) });
        img.loops[0].stmts[0].instrs[0] = VmInstr::Load {
            dst: 0,
            delta: delta_up_right(&img),
        };
        assert!(verify(&img).is_ok());
    }

    #[test]
    fn tiled_wavefront_accepts_forward_dependences() {
        // The honest stencil's one flow is x[i-1][j]: oriented forward
        // (s·c > 0) it is c = (1, 0), which never points up a row.
        for s in [(1, 1), (3, 1), (2, 3)] {
            let img = stencil_image(VmMode::WavefrontTiled { schedule: s });
            let cert = verify(&img).unwrap();
            assert_eq!(cert.mode, VmMode::WavefrontTiled { schedule: s });
            assert!(revalidate(&cert, &img));
        }
    }

    #[test]
    fn tiled_wavefront_rejects_backward_row_dependences() {
        // Read x[i+1][j-2] under s = (1, 3): the conflict oriented
        // forward is c = (-1, 2) with s·c = 5 > 0 but c.x < 0 — the
        // fronts are disjoint, but the tiled sweep would run the sink
        // before its source.
        let mut img = stencil_image(VmMode::WavefrontTiled { schedule: (1, 3) });
        img.loops[0].stmts[0].instrs[0] = VmInstr::Load {
            dst: 0,
            delta: img.cols as isize - 2,
        };
        let err = verify(&img).unwrap_err();
        assert_eq!(codes(&err), ["MDF208"]);
        assert!(err[0].message.contains("(-1, 2)"), "{err:?}");
    }

    #[test]
    fn tiled_wavefront_requires_a_row_ordering_schedule() {
        // s.y < 1 leaves same-row fronts unordered by the fj-ascending
        // in-tile sweep; rejected up front, including the degenerate
        // schedule.
        for s in [(1, 0), (2, -1), (0, 0)] {
            let img = stencil_image(VmMode::WavefrontTiled { schedule: s });
            assert_eq!(codes(&verify(&img).unwrap_err()), ["MDF208"]);
        }
    }

    #[test]
    fn wavefront_certs_do_not_cross_validate_across_modes_or_schedules() {
        // Barrier elision and the schedule are part of the license: a
        // tiled cert must not arm the serial or row image of the same
        // kernel, nor a tiled image under another schedule.
        let tiled = stencil_image(VmMode::WavefrontTiled { schedule: (1, 1) });
        let tiled_cert = verify(&tiled).unwrap();
        assert!(revalidate(&tiled_cert, &tiled));
        for other in [
            VmMode::Serial,
            VmMode::Rows,
            VmMode::WavefrontTiled { schedule: (2, 1) },
        ] {
            let img = stencil_image(other);
            let cert = verify(&img).unwrap();
            assert!(!revalidate(&tiled_cert, &img), "{other:?}");
            assert!(!revalidate(&cert, &tiled), "{other:?}");
            assert_ne!(tiled_cert.checksum, cert.checksum, "{other:?}");
        }
    }

    #[test]
    fn checksum_tracks_structure_and_revalidation_rejects_drift() {
        let img = stencil_image(VmMode::Rows);
        let cert = verify(&img).unwrap();
        let mut other = img.clone();
        other.loops[0].stmts[0].store_delta += 1;
        assert_ne!(image_checksum(&img), image_checksum(&other));
        assert!(!revalidate(&cert, &other));
        let mut other = img.clone();
        other.n += 1;
        assert!(!revalidate(&cert, &other));
    }

    #[test]
    fn division_helpers_agree_with_euclidean_reasoning() {
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(div_floor(7, -2), -4);
        assert_eq!(div_ceil(7, 2), 4);
        assert_eq!(div_ceil(-7, 2), -3);
        assert_eq!(div_ceil(-7, -2), 4);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
    }

    #[test]
    fn certificate_diagnostics_reports_success_as_mdf200() {
        let (cert, diags) = certificate_diagnostics(&stencil_image(VmMode::Rows));
        assert!(cert.is_some());
        assert_eq!(codes(&diags), ["MDF200"]);
        assert_eq!(diags[0].severity, Severity::Info);
        let json = section_json(cert.as_ref(), &diags).pretty();
        assert!(json.contains("\"verified\": true"), "{json}");
        assert!(json.contains("\"mode\": \"rows\""), "{json}");
        assert!(json.contains("MDF200"), "{json}");
    }
}
