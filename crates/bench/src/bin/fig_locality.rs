//! Experiment FX4 — the data-locality motivation (Section 2: "because of
//! array reuse, \[fusion\] reduces the references to main memory"): cache
//! miss counts of the original vs fused executions on the suite kernels,
//! swept over row width and cache associativity.

use mdf_core::plan_fusion;
use mdf_gen::suite;
use mdf_ir::retgen::FusedSpec;
use mdf_sim::{cache_fused, cache_original, CacheConfig};

fn main() {
    let n = 16i64;
    println!("cache: 8 elems/line x 64 sets x W ways (LRU); misses per run\n");
    println!(
        "{:<6} {:>6} {:>4} {:>12} {:>12} {:>9} {:>9} {:>9}",
        "kernel", "m", "ways", "orig-miss", "fused-miss", "orig-mr", "fused-mr", "reduction"
    );
    for entry in suite() {
        let Some(p) = &entry.program else { continue };
        let plan = plan_fusion(&entry.graph).unwrap();
        let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
        for m in [512i64, 2048, 8192] {
            for ways in [4usize, 8] {
                let cfg = CacheConfig {
                    line_elems: 8,
                    sets: 64,
                    ways,
                };
                let orig = cache_original(p, n, m, cfg);
                let fused = cache_fused(&spec, n, m, cfg);
                println!(
                    "{:<6} {:>6} {:>4} {:>12} {:>12} {:>8.1}% {:>8.1}% {:>8.2}x",
                    entry.id,
                    m,
                    ways,
                    orig.misses,
                    fused.misses,
                    orig.miss_ratio() * 100.0,
                    fused.miss_ratio() * 100.0,
                    orig.misses as f64 / fused.misses as f64
                );
            }
        }
    }
    println!("\n(reduction > 1 means fusion removed main-memory references;");
    println!(" the effect grows with row width once rows exceed the cache)");
}
