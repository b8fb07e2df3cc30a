//! FX2 (criterion): simulated execution time of original vs fused vs
//! wavefront interpretation on the suite kernels — the interpreter-level
//! analogue of the machine-model comparison (fusion also wins wall-clock
//! here thanks to better locality of the single sweep).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mdf_core::plan_fusion;
use mdf_gen::suite;
use mdf_ir::retgen::FusedSpec;
use mdf_sim::{run_fused, run_original, run_wavefront};

// The checked-in generated kernels (see tests/generated/): lets us compare
// the interpreter against real compiled Rust for the same fused schedule.
mod native {
    #![allow(clippy::all, dead_code)]
    include!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/generated/fused_kernels.rs"
    ));
}

/// Flat halo-extended buffers matching the emitted kernels' contract.
fn flat_arrays(p: &mdf_ir::ast::Program, n: i64, m: i64) -> (Vec<Vec<i64>>, i64) {
    let halo = p.max_offset();
    let arrays = (0..p.arrays.len())
        .map(|k| {
            let mut buf = Vec::new();
            for i in -halo..=n + halo {
                buf.extend(mdf_sim::array2::init_row(k, i, -halo..m + halo + 1));
            }
            buf
        })
        .collect();
    (arrays, halo)
}

fn bench_native_vs_interpreter(c: &mut Criterion) {
    let (n, m) = (96i64, 96i64);
    let program = mdf_ir::samples::figure2_program();
    let plan = plan_fusion(&mdf_ir::extract::extract_mldg(&program).unwrap().graph).unwrap();
    let spec = FusedSpec::new(program.clone(), plan.retiming().offsets().to_vec());
    let mut group = c.benchmark_group("native_vs_interp_fig2");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("interpreter", |b| {
        b.iter(|| run_fused(black_box(&spec), n, m))
    });
    group.bench_function("emitted_rust", |b| {
        b.iter(|| {
            let (mut arrays, halo) = flat_arrays(&program, n, m);
            native::fused_figure2(black_box(&mut arrays), n, m, halo);
            arrays
        })
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let (n, m) = (96i64, 96i64);
    for entry in suite() {
        let Some(program) = entry.program else {
            continue;
        };
        let plan = plan_fusion(&entry.graph).unwrap();
        let spec = FusedSpec::new(program.clone(), plan.retiming().offsets().to_vec());

        let mut group = c.benchmark_group(format!("exec_{}", entry.id));
        group.sample_size(20);
        group.measurement_time(std::time::Duration::from_secs(3));
        group.bench_with_input(BenchmarkId::new("original", n), &program, |b, p| {
            b.iter(|| run_original(black_box(p), n, m))
        });
        group.bench_with_input(BenchmarkId::new("fused_rows", n), &spec, |b, s| {
            b.iter(|| run_fused(black_box(s), n, m))
        });
        if let Some(w) = plan.wavefront() {
            group.bench_with_input(BenchmarkId::new("wavefront", n), &spec, |b, s| {
                b.iter(|| run_wavefront(black_box(s), w, n, m))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_kernels, bench_native_vs_interpreter);
criterion_main!(benches);
