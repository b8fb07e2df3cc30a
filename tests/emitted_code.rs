//! The code-generation backend, verified for real: the checked-in emission
//! in `tests/generated/fused_kernels.rs` is (a) byte-identical to what the
//! emitter produces today and (b) **compiled into this test binary and
//! executed**, with results compared against the reference interpreter
//! cell by cell. Any change to the emitter or the planner that would alter
//! the generated kernels shows up here.

use mdfusion::prelude::*;
use mdfusion::sim::array2::init_row;

mod generated {
    #![allow(clippy::all)]
    include!("generated/fused_kernels.rs");
}

/// Builds the flat buffers the emitted kernels operate on, initialized
/// exactly like the interpreter's halo-extended arrays.
fn flat_memory(p: &Program, n: i64, m: i64) -> (Vec<Vec<i64>>, i64) {
    let halo = p.max_offset();
    let rows = n + 2 * halo + 1;
    let cols = m + 2 * halo + 1;
    let arrays = (0..p.arrays.len())
        .map(|k| {
            let mut buf = Vec::with_capacity((rows * cols) as usize);
            for i in -halo..=n + halo {
                buf.extend(init_row(k, i, -halo..m + halo + 1));
            }
            buf
        })
        .collect();
    (arrays, halo)
}

fn compare_against_interpreter(
    p: &Program,
    kernel: impl Fn(&mut [Vec<i64>], i64, i64, i64),
    n: i64,
    m: i64,
) {
    let (mut arrays, halo) = flat_memory(p, n, m);
    kernel(&mut arrays, n, m, halo);
    let (reference, _) = run_original(p, n, m);
    let cols = m + 2 * halo + 1;
    for (k, buf) in arrays.iter().enumerate() {
        for i in -halo..=n + halo {
            for j in -halo..=m + halo {
                let flat = buf[((i + halo) * cols + (j + halo)) as usize];
                let interp = reference.array(k).get(i, j);
                assert_eq!(
                    flat, interp,
                    "array {k} cell ({i},{j}) differs: emitted {flat} vs interpreter {interp}"
                );
            }
        }
    }
}

/// Rebuilds the full generated file contents from the current emitters.
/// (Also used manually to regenerate `tests/generated/fused_kernels.rs`.)
fn current_emission() -> String {
    let mut fresh = String::new();
    for (name, prog) in [
        ("fused_figure2", mdfusion::ir::samples::figure2_program()),
        (
            "fused_image_pipeline",
            mdfusion::ir::samples::image_pipeline_program(),
        ),
    ] {
        let x = extract_mldg(&prog).unwrap();
        let plan = plan_fusion(&x.graph).unwrap();
        let spec = FusedSpec::new(prog, plan.retiming().offsets().to_vec());
        fresh.push_str(&mdfusion::ir::emit::emit_rust_fn(&spec, name));
        fresh.push('\n');
    }
    // The wavefront backend, on the hyperplane-class relaxation kernel.
    let prog = mdfusion::ir::samples::relaxation_program();
    let x = extract_mldg(&prog).unwrap();
    let plan = plan_fusion(&x.graph).unwrap();
    let w = plan.wavefront().expect("relaxation needs Algorithm 5");
    let spec = FusedSpec::new(prog, plan.retiming().offsets().to_vec());
    fresh.push_str(&mdfusion::ir::emit::emit_rust_wavefront_fn(
        &spec,
        (w.schedule.x, w.schedule.y),
        "wavefront_relaxation",
    ));
    fresh
}

#[test]
fn golden_emission_is_current() {
    let golden = include_str!("generated/fused_kernels.rs");
    assert_eq!(
        golden,
        current_emission(),
        "emitter output changed; regenerate tests/generated/fused_kernels.rs"
    );
}

#[test]
fn emitted_wavefront_relaxation_matches_interpreter() {
    let p = mdfusion::ir::samples::relaxation_program();
    for (n, m) in [(0, 3), (9, 9), (17, 5)] {
        compare_against_interpreter(&p, generated::wavefront_relaxation, n, m);
    }
}

#[test]
fn emitted_figure2_computes_exactly_what_the_interpreter_does() {
    let p = mdfusion::ir::samples::figure2_program();
    for (n, m) in [(0, 0), (1, 5), (7, 3), (16, 16), (33, 9)] {
        compare_against_interpreter(&p, generated::fused_figure2, n, m);
    }
}

#[test]
fn emitted_image_pipeline_computes_exactly_what_the_interpreter_does() {
    let p = mdfusion::ir::samples::image_pipeline_program();
    for (n, m) in [(0, 4), (12, 12), (25, 7)] {
        compare_against_interpreter(&p, generated::fused_image_pipeline, n, m);
    }
}
