//! Ablation benchmark for a design choice DESIGN.md calls out:
//! Definition 2.2's minimal-vector reduction (`δ_L = min D_L`) vs keeping
//! one constraint per dependence vector (same solutions, more edges —
//! quantifies what the reduction buys).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mdf_constraint::DifferenceSystem;
use mdf_core::llofra;
use mdf_gen::{random_legal_mldg, GenConfig};
use mdf_graph::mldg::Mldg;
use mdf_graph::vec2::IVec2;

fn cfg(nodes: usize) -> GenConfig {
    GenConfig {
        nodes,
        extra_edges: nodes * 2,
        hard_probability: 0.6, // plenty of multi-vector edges
        ..GenConfig::default()
    }
}

/// LLOFRA with one constraint per *dependence vector* instead of one per
/// edge (skipping Definition 2.2's minimal-vector reduction). The solution
/// is identical — the minimum dominates — but the system is larger.
fn llofra_all_vectors(g: &Mldg) -> Vec<IVec2> {
    let mut sys: DifferenceSystem<IVec2> = DifferenceSystem::new(g.node_count());
    for e in g.edge_ids() {
        let ed = g.edge(e);
        for d in g.deps(e).iter() {
            sys.add_le(ed.dst.index(), ed.src.index(), d);
        }
    }
    sys.solve().expect("legal by construction")
}

fn bench_min_vector_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("min_vector_reduction");
    group.sample_size(30);
    for &n in &[32usize, 256] {
        let g = random_legal_mldg(5, &cfg(n));
        // Sanity: both formulations agree.
        let reduced = llofra(&g).unwrap();
        let full = llofra_all_vectors(&g);
        assert_eq!(reduced.offsets(), &full[..]);

        group.bench_with_input(BenchmarkId::new("min_vector", n), &g, |b, g| {
            b.iter(|| llofra(black_box(g)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("all_vectors", n), &g, |b, g| {
            b.iter(|| llofra_all_vectors(black_box(g)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_min_vector_reduction);
criterion_main!(benches);
