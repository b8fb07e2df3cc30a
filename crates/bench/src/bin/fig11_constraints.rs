//! Experiment F11–F13: Algorithm 4's two constraint graphs for Figure 2
//! (Figure 11 (a) and (b)) and the DOALL iteration space that results
//! (Figure 13).

use mdf_core::cyclic::{build_x_system, build_y_system, fuse_cyclic};
use mdf_graph::paper::figure2;
use mdf_ir::retgen::FusedSpec;
use mdf_ir::samples::figure2_program;
use mdf_sim::check_rows_doall;

fn main() {
    let g = figure2();
    let label = |v: usize| g.label(mdf_graph::NodeId(v as u32)).to_string();

    println!("== Figure 11(a): constraint graph in x (hard edges discounted by 1) ==");
    let xs = build_x_system(&g);
    for e in xs.graph().edges() {
        println!(
            "  rx({}) - rx({}) <= {}",
            label(e.dst),
            label(e.src),
            e.weight
        );
    }
    let rx = xs.solve().unwrap();
    println!("  solution: {:?}\n", rx);

    println!("== Figure 11(b): constraint graph in y (equalities for zero-x edges) ==");
    let ys = build_y_system(&g, &rx);
    for e in ys.graph().edges() {
        println!(
            "  ry({}) - ry({}) <= {}",
            label(e.dst),
            label(e.src),
            e.weight
        );
    }
    let ry = ys.solve().unwrap();
    println!("  solution: {:?}\n", ry);

    let r = fuse_cyclic(&g).unwrap();
    println!("combined retiming: {}\n", r.display(&g));

    println!("== Figure 13: the fused iteration space is row-DOALL ==");
    let spec = FusedSpec::new(figure2_program(), r.offsets().to_vec());
    match check_rows_doall(&spec, 16, 16) {
        Ok(()) => println!("dynamic check over a 17x17 space: no intra-row conflicts"),
        Err(v) => unreachable!("Figure 13 promises independence: {v:?}"),
    }
}
