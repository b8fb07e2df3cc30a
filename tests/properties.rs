//! Property-based integration tests: the paper's theorems checked on
//! thousands of generated instances, plus full pipeline equivalence on
//! random programs.

use mdfusion::core::{fuse_acyclic, fuse_cyclic, llofra};
use mdfusion::gen::{
    random_acyclic_mldg, random_infeasible_mldg, random_legal_mldg, random_program, GenConfig,
    ProgramGenConfig,
};
use mdfusion::graph::legality::{fused_inner_loop_is_doall, fusion_preventing_edges};
use mdfusion::prelude::*;
use proptest::prelude::*;

fn gen_config() -> impl Strategy<Value = GenConfig> {
    (2usize..14, 0usize..20, 0.0f64..1.0, 0.0f64..0.6, 1i64..6).prop_map(
        |(nodes, extra_edges, hard, selfp, magnitude)| GenConfig {
            nodes,
            extra_edges,
            hard_probability: hard,
            self_loop_probability: selfp,
            magnitude,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 3.2: LLOFRA succeeds on every graph whose cycles are
    /// lexicographically non-negative, and afterwards fusion is legal.
    #[test]
    fn llofra_legalizes_every_feasible_graph(seed in 0u64..10_000, cfg in gen_config()) {
        let g = random_legal_mldg(seed, &cfg);
        let r = llofra(&g).expect("feasible by construction");
        let gr = apply_retiming(&g, &r);
        prop_assert!(fusion_preventing_edges(&gr).is_empty());
    }

    /// Theorem 4.1: on acyclic graphs, Algorithm 3 always yields a DOALL
    /// fused loop.
    #[test]
    fn acyclic_fusion_always_doall(seed in 0u64..10_000, cfg in gen_config()) {
        let g = random_acyclic_mldg(seed, &cfg);
        let r = fuse_acyclic(&g).expect("Theorem 4.1");
        let gr = apply_retiming(&g, &r);
        prop_assert!(fused_inner_loop_is_doall(&gr));
        prop_assert!(fusion_preventing_edges(&gr).is_empty());
    }

    /// Algorithm 3 returns the canonical solution of Theorem 4.1's system
    /// `r(v) - r(u) <= δ_L(e) - (1,-1)`: its x offsets equal those of the
    /// system built here from the raw dependence vectors and solved by the
    /// Floyd–Warshall oracle.
    #[test]
    fn acyclic_fusion_matches_floyd_oracle(seed in 0u64..10_000, cfg in gen_config()) {
        use mdfusion::constraint::{floyd::solve_difference_constraints_floyd, DifferenceSystem};
        let g = random_acyclic_mldg(seed, &cfg);
        let mut sys: DifferenceSystem<IVec2> = DifferenceSystem::new(g.node_count());
        for e in g.edge_ids() {
            let ed = g.edge(e);
            let delta_l = g.deps(e).iter().min().expect("every edge carries a vector");
            sys.add_le(ed.dst.index(), ed.src.index(), delta_l - v2(1, -1));
        }
        let oracle = solve_difference_constraints_floyd(sys.graph())
            .expect("Theorem 4.1: the system of an acyclic graph is feasible");
        let r = fuse_acyclic(&g).expect("Theorem 4.1");
        let xs: Vec<i64> = r.offsets().iter().map(|o| o.x).collect();
        let oracle_xs: Vec<i64> = oracle.iter().map(|o| o.x).collect();
        prop_assert_eq!(xs, oracle_xs);
    }

    /// Theorem 4.2 (one direction): whenever Algorithm 4 succeeds, the
    /// retimed graph is fusion-legal and row-DOALL.
    #[test]
    fn cyclic_fusion_success_implies_doall(seed in 0u64..10_000, cfg in gen_config()) {
        let g = random_legal_mldg(seed, &cfg);
        if let Ok(r) = fuse_cyclic(&g) {
            let gr = apply_retiming(&g, &r);
            prop_assert!(fusion_preventing_edges(&gr).is_empty());
            prop_assert!(fused_inner_loop_is_doall(&gr));
        }
    }

    /// The planner covers the whole feasible space: every generated legal
    /// graph gets a plan that passes independent verification.
    #[test]
    fn planner_total_on_feasible_graphs(seed in 0u64..10_000, cfg in gen_config()) {
        let g = random_legal_mldg(seed, &cfg);
        let plan = plan_fusion(&g).expect("feasible by construction");
        prop_assert!(verify_plan(&g, &plan).is_ok());
    }

    /// Infeasible graphs are rejected, and the reported witness really is
    /// a lexicographically negative cycle of the input, with node labels
    /// matching the cycle's edges.
    #[test]
    fn infeasible_graphs_rejected_with_real_witness(seed in 0u64..10_000, cfg in gen_config()) {
        use mdfusion::graph::{InfeasiblePhase, MdfError, WitnessWeight};
        let g = random_infeasible_mldg(seed, &cfg);
        match plan_fusion(&g) {
            Err(MdfError::Infeasible {
                phase: InfeasiblePhase::Lex,
                cycle,
                nodes,
                weight: WitnessWeight::Lex(weight),
            }) => {
                prop_assert!(weight < v2(0, 0));
                prop_assert_eq!(g.delta_sum(&cycle), weight);
                // Edges must chain into a closed walk.
                for w in cycle.windows(2) {
                    prop_assert_eq!(g.edge(w[0]).dst, g.edge(w[1]).src);
                }
                let first = g.edge(cycle[0]).src;
                let last = g.edge(*cycle.last().unwrap()).dst;
                prop_assert_eq!(first, last);
                // The witness's node labels follow the edge sources.
                prop_assert_eq!(nodes.len(), cycle.len());
                for (label, &e) in nodes.iter().zip(cycle.iter()) {
                    prop_assert_eq!(label.as_str(), g.label(g.edge(e).src));
                }
            }
            other => prop_assert!(false, "expected infeasible, got {:?}", other.is_ok()),
        }
    }

    /// The budgeted planner is total on feasible graphs: under an
    /// unlimited budget it never panics and its surviving plan passes
    /// independent verification; under an arbitrarily tight solver cap it
    /// either still produces a verified (possibly degraded) plan or
    /// reports a typed budget error — never anything else.
    #[test]
    fn budgeted_planner_verifies_or_reports_budget(
        seed in 0u64..10_000,
        cfg in gen_config(),
        rounds in 1u64..40,
    ) {
        let g = random_legal_mldg(seed, &cfg);
        let report = plan_fusion_budgeted(&g, &Budget::unlimited())
            .expect("feasible by construction");
        prop_assert!(report.verify(&g).is_ok());
        prop_assert!(report.ladder_trace().contains("succeeded"));
        match plan_fusion_budgeted(&g, &Budget::unlimited().with_max_solver_rounds(rounds)) {
            Ok(r) => prop_assert!(r.verify(&g).is_ok()),
            Err(MdfError::BudgetExceeded { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    /// Retiming preserves cycle weights (Section 2.3) for arbitrary
    /// retimings, not just computed ones.
    #[test]
    fn arbitrary_retimings_preserve_cycle_weights(
        seed in 0u64..10_000,
        offsets in proptest::collection::vec((-5i64..5, -5i64..5), 8)
    ) {
        let cfg = GenConfig { nodes: 8, extra_edges: 10, ..GenConfig::default() };
        let g = random_legal_mldg(seed, &cfg);
        let r = Retiming::from_offsets(offsets.into_iter().map(|(x, y)| v2(x, y)).collect());
        let gr = apply_retiming(&g, &r);
        let (cycles, _) = mdfusion::graph::cycles::elementary_cycles(&g, 200);
        for c in cycles {
            prop_assert_eq!(g.delta_sum(&c.edges), gr.delta_sum(&c.edges));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full pipeline equivalence: random executable programs, planned and
    /// fused, produce bit-identical results under every certified order.
    #[test]
    fn random_programs_fuse_correctly(
        seed in 0u64..5_000,
        loops in 2usize..7,
        reads in 1usize..4,
        n in 3i64..12,
        m in 3i64..12,
    ) {
        let cfg = ProgramGenConfig {
            loops,
            reads_per_loop: reads,
            ..ProgramGenConfig::default()
        };
        let p = random_program(seed, &cfg);
        let x = extract_mldg(&p).unwrap();
        let plan = plan_fusion(&x.graph).expect("programs are always legal");
        prop_assert!(verify_plan(&x.graph, &plan).is_ok());
        prop_assert!(check_plan(&p, &plan, n, m).is_ok());
    }

    /// The MLDG -> program realization and extraction are mutually inverse
    /// on executable graphs, and the realized program simulates correctly.
    #[test]
    fn realized_programs_roundtrip_and_simulate(seed in 0u64..5_000) {
        let cfg = GenConfig { nodes: 6, extra_edges: 6, ..GenConfig::default() };
        let g = random_legal_mldg(seed, &cfg);
        if let Some(p) = mdfusion::gen::program_from_mldg(&g, "roundtrip") {
            let x = extract_mldg(&p).unwrap();
            prop_assert_eq!(x.graph.edge_count(), g.edge_count());
            prop_assert_eq!(x.graph.total_dep_vectors(), g.total_dep_vectors());
            let plan = plan_fusion(&x.graph).unwrap();
            prop_assert!(check_plan(&p, &plan, 8, 8).is_ok());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The n-dimensional extension (Theorem 3.2 lifted to Z^N): LLOFRA
    /// legalizes every feasible 3-D graph, and the generalized Lemma 4.3
    /// schedule is strict on the retimed graph.
    #[test]
    fn ndim_llofra_and_schedule(seed in 0u64..10_000, nodes in 2usize..10, extra in 0usize..16) {
        use mdfusion::core::ndim::{
            fuse_hyperplane_ndim, fusion_legal_after, is_strict_schedule_ndim,
        };
        let cfg = GenConfig { nodes, extra_edges: extra, ..GenConfig::default() };
        let g = mdfusion::gen::random_legal_mldg_n::<3>(seed, &cfg);
        let (r, s) = fuse_hyperplane_ndim(&g).expect("feasible by construction");
        prop_assert!(fusion_legal_after(&g, &r));
        prop_assert!(is_strict_schedule_ndim(&g.retimed(&r), &s));
    }

    /// Partial fusion: whenever it succeeds, the plan verifies and covers
    /// every node exactly once. (Strict per-instance dominance over direct
    /// fusion does NOT hold — both are greedy, and partial fusion also
    /// enforces inter-cluster ordering constraints that direct fusion
    /// ignores on non-executable graphs — so dominance is reported as a
    /// statistical result by `table3_partial` instead.)
    #[test]
    fn partial_fusion_plans_verify(seed in 0u64..10_000, cfg in gen_config()) {
        use mdfusion::core::{fuse_partial, verify_partial};
        let g = random_legal_mldg(seed, &cfg);
        if let Some(plan) = fuse_partial(&g) {
            prop_assert!(verify_partial(&g, &plan));
            let covered: usize = plan.clusters.iter().map(|c| c.len()).sum();
            prop_assert_eq!(covered, g.node_count());
            prop_assert!(!plan.clusters.is_empty());
        }
    }

    /// Cache simulation invariants: fusion preserves access counts and the
    /// simulated caches behave monotonically in capacity.
    #[test]
    fn cache_simulation_invariants(seed in 0u64..3_000) {
        use mdfusion::sim::{cache_fused, cache_original, CacheConfig};
        let cfg = ProgramGenConfig { loops: 4, reads_per_loop: 2, ..ProgramGenConfig::default() };
        let p = random_program(seed, &cfg);
        let x = extract_mldg(&p).unwrap();
        let plan = plan_fusion(&x.graph).unwrap();
        let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
        let small = CacheConfig { line_elems: 4, sets: 16, ways: 2 };
        let big = CacheConfig { line_elems: 4, sets: 256, ways: 8 };
        let (n, m) = (6, 24);
        let orig_small = cache_original(&p, n, m, small);
        let fused_small = cache_fused(&spec, n, m, small);
        prop_assert_eq!(orig_small.accesses(), fused_small.accesses());
        let orig_big = cache_original(&p, n, m, big);
        prop_assert!(orig_big.misses <= orig_small.misses,
            "bigger cache can't miss more (LRU inclusion): {} vs {}",
            orig_big.misses, orig_small.misses);
    }
}
