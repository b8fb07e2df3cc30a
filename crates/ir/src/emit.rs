//! Rust code generation: emits a standalone, compilable Rust function for
//! the fused, retimed loop nest.
//!
//! The emitted function operates on flat `i64` buffers (one per array)
//! laid out exactly like the simulator's halo-extended arrays, so its
//! results are directly comparable with the interpreter's — the
//! `emitted_code` integration test compiles a checked-in emission and
//! asserts bit-identical results. Guards are emitted per loop body
//! (the exact semantics of [`crate::retgen::FusedSpec`]); boundary rows
//! simply fail their guards, so the function is correct for every `n, m`.

use std::fmt::Write as _;

use crate::ast::{ArrayRef, BinOp, Expr};
use crate::retgen::FusedSpec;

fn emit_index(r: &ArrayRef, rx: i64, ry: i64) -> String {
    let di = r.di + rx;
    let dj = r.dj + ry;
    let term = |base: &str, off: i64| match off.cmp(&0) {
        std::cmp::Ordering::Equal => base.to_string(),
        std::cmp::Ordering::Greater => format!("{base} + {off}"),
        std::cmp::Ordering::Less => format!("{base} - {}", -off),
    };
    format!("idx({}, {})", term("fi", di), term("fj", dj))
}

fn emit_expr(e: &Expr, rx: i64, ry: i64, out: &mut String) {
    match e {
        Expr::Const(v) => {
            let _ = write!(out, "{v}i64");
        }
        Expr::Ref(r) => {
            let _ = write!(out, "arrays[{}][{}]", r.array, emit_index(r, rx, ry));
        }
        Expr::Neg(inner) => {
            out.push('(');
            emit_expr(inner, rx, ry, out);
            out.push_str(").wrapping_neg()");
        }
        Expr::Bin(op, a, b) => {
            let method = match op {
                BinOp::Add => "wrapping_add",
                BinOp::Sub => "wrapping_sub",
                BinOp::Mul => "wrapping_mul",
            };
            out.push('(');
            emit_expr(a, rx, ry, out);
            let _ = write!(out, ").{method}(");
            emit_expr(b, rx, ry, out);
            out.push(')');
        }
    }
}

/// Emits a Rust function `fn <name>(arrays: &mut [Vec<i64>], n: i64, m: i64, halo: i64)`
/// executing the fused loop nest. `arrays[k]` must be a flat buffer of
/// `(n + 2*halo + 1) * (m + 2*halo + 1)` elements covering
/// `[-halo, n+halo] x [-halo, m+halo]` row-major; `halo` must be at least
/// the program's [`Program::max_offset`](crate::ast::Program::max_offset).
pub fn emit_rust_fn(spec: &FusedSpec, name: &str) -> String {
    let p = &spec.program;
    // Executability of `spec` is a documented precondition of this API.
    #[allow(clippy::expect_used)]
    let order = spec
        .body_order()
        .expect("fused spec has a (0,0)-dependence cycle");
    let mut out = String::new();
    let _ = writeln!(out, "/// Fused `{}` under retiming:", p.name);
    for (l, r) in p.loops.iter().zip(&spec.offsets) {
        let _ = writeln!(out, "///   r({}) = {}", l.label, r);
    }
    let _ = writeln!(out, "/// (generated by mdf-ir::emit — do not edit)");
    let _ = writeln!(
        out,
        "pub fn {name}(arrays: &mut [Vec<i64>], n: i64, m: i64, halo: i64) {{"
    );
    let _ = writeln!(out, "    let cols = m + 2 * halo + 1;");
    let _ = writeln!(
        out,
        "    let idx = |i: i64, j: i64| -> usize {{ ((i + halo) * cols + (j + halo)) as usize }};"
    );
    let (mut min_rx, mut max_rx, mut min_ry, mut max_ry) = (0i64, 0i64, 0i64, 0i64);
    for r in &spec.offsets {
        min_rx = min_rx.min(r.x);
        max_rx = max_rx.max(r.x);
        min_ry = min_ry.min(r.y);
        max_ry = max_ry.max(r.y);
    }
    let _ = writeln!(out, "    for fi in {}..=(n + {}) {{", -max_rx, -min_rx);
    let _ = writeln!(
        out,
        "        // each row is DOALL under the plan that produced this code"
    );
    let _ = writeln!(out, "        for fj in {}..=(m + {}) {{", -max_ry, -min_ry);
    for &li in &order {
        let l = &p.loops[li];
        let r = spec.offsets[li];
        let _ = writeln!(
            out,
            "            // loop {} at original iteration (fi + {}, fj + {})",
            l.label, r.x, r.y
        );
        let _ = writeln!(
            out,
            "            if fi + {rx} >= 0 && fi + {rx} <= n && fj + {ry} >= 0 && fj + {ry} <= m {{",
            rx = r.x,
            ry = r.y
        );
        for s in &l.stmts {
            let mut rhs = String::new();
            emit_expr(&s.rhs, r.x, r.y, &mut rhs);
            let _ = writeln!(
                out,
                "                let v = {rhs};\n                arrays[{}][{}] = v;",
                s.lhs.array,
                emit_index(&s.lhs, r.x, r.y)
            );
        }
        let _ = writeln!(out, "            }}");
    }
    let _ = writeln!(out, "        }}");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::figure2_program;
    use mdf_graph::v2;

    fn fig2_spec() -> FusedSpec {
        FusedSpec::new(
            figure2_program(),
            vec![v2(0, 0), v2(0, 0), v2(-1, 0), v2(-1, -1)],
        )
    }

    #[test]
    fn emission_mentions_every_loop_and_guard() {
        let code = emit_rust_fn(&fig2_spec(), "fused_figure2");
        assert!(code.contains("pub fn fused_figure2"));
        for lbl in ["loop A", "loop B", "loop C", "loop D"] {
            assert!(code.contains(lbl), "{code}");
        }
        // C is retimed by (-1, 0): its guard tests fi - 1.
        assert!(code.contains("fi + -1 >= 0"), "{code}");
        // Arithmetic is wrapping, matching the interpreter.
        assert!(code.contains("wrapping_add"));
    }

    #[test]
    fn emission_is_deterministic() {
        let a = emit_rust_fn(&fig2_spec(), "f");
        let b = emit_rust_fn(&fig2_spec(), "f");
        assert_eq!(a, b);
    }

    #[test]
    fn emitted_ranges_cover_the_retimed_space() {
        let code = emit_rust_fn(&fig2_spec(), "f");
        // r.x in {-1,0} -> fi in 0..=(n+1); r.y in {-1,0} -> fj in 0..=(m+1).
        assert!(code.contains("for fi in 0..=(n + 1)"), "{code}");
        assert!(code.contains("for fj in 0..=(m + 1)"), "{code}");
    }
}

/// Emits a Rust function executing the fused nest in **wavefront** order
/// for an Algorithm 5 plan: iterations are swept by hyperplane value
/// `t = s.x * fi + fj` (every schedule this library constructs has
/// `s.y == 1`, which the function asserts). Same buffer contract as
/// [`emit_rust_fn`]; iterations on one hyperplane are independent, so the
/// inner `fi` loop of each `t` step is parallelizable.
pub fn emit_rust_wavefront_fn(spec: &FusedSpec, schedule: (i64, i64), name: &str) -> String {
    assert_eq!(
        schedule.1, 1,
        "wavefront emission assumes s.y == 1 (Lemma 4.3 schedules)"
    );
    let s1 = schedule.0;
    let p = &spec.program;
    // Executability of `spec` is a documented precondition of this API.
    #[allow(clippy::expect_used)]
    let order = spec
        .body_order()
        .expect("fused spec has a (0,0)-dependence cycle");
    let (mut min_rx, mut max_rx, mut min_ry, mut max_ry) = (0i64, 0i64, 0i64, 0i64);
    for r in &spec.offsets {
        min_rx = min_rx.min(r.x);
        max_rx = max_rx.max(r.x);
        min_ry = min_ry.min(r.y);
        max_ry = max_ry.max(r.y);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/// Fused `{}` in wavefront order, schedule s = ({s1},1):",
        p.name
    );
    for (l, r) in p.loops.iter().zip(&spec.offsets) {
        let _ = writeln!(out, "///   r({}) = {}", l.label, r);
    }
    let _ = writeln!(out, "/// (generated by mdf-ir::emit — do not edit)");
    let _ = writeln!(
        out,
        "pub fn {name}(arrays: &mut [Vec<i64>], n: i64, m: i64, halo: i64) {{"
    );
    let _ = writeln!(out, "    let cols = m + 2 * halo + 1;");
    let _ = writeln!(
        out,
        "    let idx = |i: i64, j: i64| -> usize {{ ((i + halo) * cols + (j + halo)) as usize }};"
    );
    let _ = writeln!(out, "    let fi_lo = {};", -max_rx);
    let _ = writeln!(out, "    let fi_hi = n + {};", -min_rx);
    let _ = writeln!(out, "    let fj_lo = {};", -max_ry);
    let _ = writeln!(out, "    let fj_hi = m + {};", -min_ry);
    // With s >= (0,1) componentwise, t is monotone in both indices.
    let _ = writeln!(
        out,
        "    let (t_lo, t_hi) = ({s1} * fi_lo + fj_lo, {s1} * fi_hi + fj_hi);"
    );
    let _ = writeln!(out, "    for t in t_lo..=t_hi {{");
    let _ = writeln!(
        out,
        "        // all iterations of this hyperplane are mutually independent"
    );
    let _ = writeln!(out, "        for fi in fi_lo..=fi_hi {{");
    let _ = writeln!(out, "            let fj = t - {s1} * fi;");
    let _ = writeln!(
        out,
        "            if fj < fj_lo || fj > fj_hi {{ continue; }}"
    );
    for &li in &order {
        let l = &p.loops[li];
        let r = spec.offsets[li];
        let _ = writeln!(
            out,
            "            // loop {} at original iteration (fi + {}, fj + {})",
            l.label, r.x, r.y
        );
        let _ = writeln!(
            out,
            "            if fi + {rx} >= 0 && fi + {rx} <= n && fj + {ry} >= 0 && fj + {ry} <= m {{",
            rx = r.x,
            ry = r.y
        );
        for s in &l.stmts {
            let mut rhs = String::new();
            emit_expr(&s.rhs, r.x, r.y, &mut rhs);
            let _ = writeln!(
                out,
                "                let v = {rhs};\n                arrays[{}][{}] = v;",
                s.lhs.array,
                emit_index(&s.lhs, r.x, r.y)
            );
        }
        let _ = writeln!(out, "            }}");
    }
    let _ = writeln!(out, "        }}");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod wavefront_tests {
    use super::*;
    use crate::samples::relaxation_program;
    use mdf_graph::v2;

    #[test]
    fn wavefront_emission_structure() {
        let spec = FusedSpec::new(relaxation_program(), vec![v2(0, 0), v2(0, -1)]);
        let code = emit_rust_wavefront_fn(&spec, (3, 1), "wf_relax");
        assert!(code.contains("pub fn wf_relax"));
        assert!(code.contains("let fj = t - 3 * fi;"), "{code}");
        assert!(code.contains("for t in t_lo..=t_hi"), "{code}");
    }

    #[test]
    #[should_panic(expected = "s.y == 1")]
    fn non_unit_inner_schedule_rejected() {
        let spec = FusedSpec::new(relaxation_program(), vec![v2(0, 0), v2(0, -1)]);
        emit_rust_wavefront_fn(&spec, (3, 2), "bad");
    }
}
