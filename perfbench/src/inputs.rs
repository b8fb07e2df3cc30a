//! Workload inputs and their oracle. Every input depends only on the seed
//! and its index, and carries the `run_original` fingerprint of its final
//! memory: the unfused reference interpreter, which is not the code under
//! test, is what every kernel run and every executed service answer must
//! reproduce.

use mdf_core::{plan_fusion_budgeted, DegradedPlan, FullParallelMethod, FusionPlan};
use mdf_graph::{Budget, Mldg};
use mdf_ir::ast::Program;
use mdf_ir::retgen::FusedSpec;
use mdf_kernel::{CompiledKernel, ExecMode};
use mdf_service::Engine;

/// The five `examples/dsl` programs: the service's existing traffic.
const EXAMPLES: [(&str, &str); 5] = [
    ("adi_pass", include_str!("../../examples/dsl/adi_pass.mdf")),
    (
        "conv_chain",
        include_str!("../../examples/dsl/conv_chain.mdf"),
    ),
    ("figure2", include_str!("../../examples/dsl/figure2.mdf")),
    (
        "image_pipeline",
        include_str!("../../examples/dsl/image_pipeline.mdf"),
    ),
    (
        "relaxation",
        include_str!("../../examples/dsl/relaxation.mdf"),
    ),
];

/// Request bounds of the service workloads (loadgen's 24×24).
pub const REQUEST_BOUND: i64 = 24;

/// Loop counts of service-cold's random programs, inclusive.
pub const COLD_LOOPS: (usize, usize) = (8, 24);

/// splitmix64, the workspace's deterministic mix.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Loadgen's seeded request mix: request `idx` picks input
/// `splitmix % len` and the kernel engine when the next draw is even,
/// the interpreter otherwise.
pub fn mix(seed: u64, idx: u64, len: usize) -> (usize, Engine) {
    let mut state = seed ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let pick = (splitmix64(&mut state) % len as u64) as usize;
    let engine = if splitmix64(&mut state).is_multiple_of(2) {
        Engine::Kernel
    } else {
        Engine::Interp
    };
    (pick, engine)
}

/// One program at fixed bounds, with its wire text and oracle.
pub struct Input {
    pub name: String,
    /// The DSL text a client submits.
    pub source: String,
    pub program: Program,
    pub graph: Mldg,
    pub n: i64,
    pub m: i64,
    /// `run_original` fingerprint at `(n, m)`.
    pub expected: u64,
}

impl Input {
    fn new(
        name: String,
        source: String,
        program: Program,
        n: i64,
        m: i64,
    ) -> Result<Input, String> {
        let graph = mdf_ir::extract_mldg(&program)
            .map_err(|e| format!("{name}: {e}"))?
            .graph;
        let (mem, _) = mdf_sim::run_original(&program, n, m);
        Ok(Input {
            name,
            source,
            program,
            graph,
            n,
            m,
            expected: mem.fingerprint(),
        })
    }

    /// Loop count of the program.
    pub fn loops(&self) -> usize {
        self.program.loops.len()
    }
}

/// exec-large's inputs: the executable suite (E1, E2, E4, E5) at `n×n`.
pub fn suite_inputs(n: i64) -> Result<Vec<Input>, String> {
    mdf_gen::executable_suite()
        .into_iter()
        .filter_map(|e| Some((e.id, e.program?)))
        .map(|(id, p)| {
            let source = mdf_ir::pretty::program_to_dsl(&p);
            Input::new(id.to_string(), source, p, n, n)
        })
        .collect()
}

/// service-hot's inputs: the `examples/dsl` programs at request size.
pub fn example_inputs() -> Result<Vec<Input>, String> {
    EXAMPLES
        .iter()
        .map(|(name, source)| {
            let parsed =
                mdf_ir::parse_program_spanned(source).map_err(|e| format!("{name}: {e}"))?;
            Input::new(
                name.to_string(),
                source.to_string(),
                parsed.program,
                REQUEST_BOUND,
                REQUEST_BOUND,
            )
        })
        .collect()
}

/// service-cold's inputs: `count` distinct random programs at request
/// size, program `idx` drawn from `(seed, idx)` with a loop count spread
/// over [`COLD_LOOPS`].
pub fn cold_inputs(seed: u64, count: usize) -> Result<Vec<Input>, String> {
    (0..count as u64)
        .map(|idx| {
            let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ idx;
            let program_seed = splitmix64(&mut state);
            let span = (COLD_LOOPS.1 - COLD_LOOPS.0 + 1) as u64;
            let loops = COLD_LOOPS.0 + (splitmix64(&mut state) % span) as usize;
            let cfg = mdf_gen::ProgramGenConfig {
                loops,
                ..Default::default()
            };
            let p = mdf_gen::random_program(program_seed, &cfg);
            let source = mdf_ir::pretty::program_to_dsl(&p);
            Input::new(
                format!("cold-{idx}"),
                source,
                p,
                REQUEST_BOUND,
                REQUEST_BOUND,
            )
        })
        .collect()
}

/// An input planned, certified, lowered and armed: what a kernel run
/// needs, built once before timing.
pub struct Prepared {
    pub plan: FusionPlan,
    pub spec: FusedSpec,
    pub mode: ExecMode,
    /// Lowered and armed with a bytecode certificate.
    pub armed: CompiledKernel,
    /// The same lowering, unarmed (bounds-checked path).
    pub checked: CompiledKernel,
}

impl Prepared {
    pub fn new(input: &Input) -> Result<Prepared, String> {
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", input.name);
        let report =
            plan_fusion_budgeted(&input.graph, &Budget::unlimited()).map_err(|e| err(&e))?;
        let DegradedPlan::Fused(plan) = &report.plan else {
            return Err(err(&"planner fell back to partial fusion"));
        };
        let plan = mdf_sim::align_plan_to_program(&input.graph, &input.program, plan)
            .ok_or_else(|| err(&"plan does not align with the program"))?;
        let spec = FusedSpec::new(input.program.clone(), plan.retiming().offsets().to_vec());
        let mode = mdf_kernel::plan_mode(&spec, &plan);
        let checked = CompiledKernel::compile(&spec, input.n, input.m).map_err(|e| err(&e))?;
        let mut armed = checked.clone();
        armed
            .arm(mode)
            .map_err(|d| err(&format!("bytecode verifier rejected the kernel: {d:?}")))?;
        Ok(Prepared {
            plan,
            spec,
            mode,
            armed,
            checked,
        })
    }
}

/// The paper's algorithm a plan came from: `alg3` (acyclic), `alg4`
/// (cyclic, full parallel) or `alg5` (hyperplane wavefront).
pub fn plan_kind(plan: &FusionPlan) -> &'static str {
    match plan {
        FusionPlan::FullParallel {
            method: FullParallelMethod::Acyclic,
            ..
        } => "alg3",
        FusionPlan::FullParallel {
            method: FullParallelMethod::Cyclic,
            ..
        } => "alg4",
        FusionPlan::Hyperplane { .. } => "alg5",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_only_on_seed_and_index() {
        let a = cold_inputs(3, 4).unwrap();
        let b = cold_inputs(3, 4).unwrap();
        let c = cold_inputs(4, 4).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source, y.source);
            assert_eq!(x.expected, y.expected);
        }
        assert!(a.iter().zip(&c).any(|(x, y)| x.source != y.source));
        for i in &a {
            assert!((COLD_LOOPS.0..=COLD_LOOPS.1).contains(&i.loops()));
        }
        assert_eq!(mix(9, 17, 5), mix(9, 17, 5));
    }

    #[test]
    fn every_example_prepares_and_matches_its_oracle() {
        for input in example_inputs().unwrap() {
            let p = Prepared::new(&input).unwrap();
            let (mem, _) = p.armed.run(p.mode);
            assert_eq!(mem.fingerprint(), input.expected, "{}", input.name);
        }
    }
}
