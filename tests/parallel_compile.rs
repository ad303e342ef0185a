//! `Korch::optimize_prims` orchestrates every distinct (partition,
//! variant) as an independent job on every core, each later variant cut
//! off at the cheapest warm start before it, and folds the results in
//! order. It must compile exactly what orchestrating the distinct variants
//! one after the other, uncut, compiles. `sequential_optimize` below is
//! that definition: per partition in order, the fingerprint cache, the
//! variants in their canonical numbering, in order, with those equal to
//! an earlier one dropped, one uncut `orchestrate` each, the strict `<`,
//! the stats summed in order and one model-wide tuning database. The
//! chosen variants, every plan kernel and every `PipelineStats` field must
//! match it, with latencies and clocks equal to the bit.
//! `Orchestrator::orchestrate_all` over one-graph groups must return what
//! one `orchestrate` per graph returns, in input order; over larger groups
//! its first strictly cheapest plan per group must be the uncut one, and
//! repeated calls must return the same results.

use korch::core::{partition, Korch, KorchConfig, Optimized};
use korch::cost::{Calibration, Device, KernelClass, Profiler};
use korch::fission::fission;
use korch::ir::{EwFn, LinearFn, OpGraph, OpKind, PrimGraph, PrimKind, PrimStats};
use korch::models::{candy, subgraphs, CandyConfig};
use korch::orch::{OrchError, Orchestration, Orchestrator, Plan};
use korch::tensor::{MatMulSpec, UnaryOp};
use korch::transform::optimize_graph;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

mod common;

/// One partition of the sequential reference: the chosen variant's
/// fingerprint and its plan.
struct Chosen {
    fingerprint: u64,
    plan: Plan,
}

/// The `PipelineStats` fields, f64s by bits.
#[derive(Debug, PartialEq)]
struct Stats {
    prim_nodes: usize,
    candidate_kernels: usize,
    tuning_time_s: u64,
    partitions: usize,
    cache_hits: usize,
    states: usize,
    prim_stats: PrimStats,
}

/// `Korch::optimize_prims` by definition: one uncut orchestration after
/// the other.
fn sequential_optimize(config: &KorchConfig, pg: &PrimGraph) -> (Vec<Chosen>, Stats) {
    let parts = partition(pg, config.partition_max_prims).unwrap();
    let orchestrator = Orchestrator::new(Device::v100()).with_config(config.orchestrator.clone());
    let mut stats = Stats {
        prim_nodes: pg.nodes().iter().filter(|n| !n.kind.is_source()).count(),
        candidate_kernels: 0,
        tuning_time_s: 0,
        partitions: parts.len(),
        cache_hits: 0,
        states: 0,
        prim_stats: PrimStats::of(pg),
    };
    let mut tuning_time_s = 0.0f64;
    let mut database = HashSet::new();
    // fingerprint → (chosen variant, plan, candidates, states)
    let mut cache: HashMap<u64, (u64, Plan, usize, usize)> = HashMap::new();
    let mut chosen = Vec::new();
    for part in &parts {
        let fp = part.graph.fingerprint();
        let rec = if let Some(hit) = cache.get(&fp).filter(|_| config.cache) {
            stats.cache_hits += 1;
            hit.clone()
        } else {
            let mut variants = optimize_graph(&part.graph, &config.transform);
            variants.truncate(config.variants_to_orchestrate.max(1));
            let variants: Vec<PrimGraph> = variants.iter().map(PrimGraph::canonical).collect();
            let keys: Vec<u64> = variants.iter().map(PrimGraph::fingerprint).collect();
            let mut best: Option<(u64, Orchestration)> = None;
            for (i, v) in variants.iter().enumerate() {
                if keys[..i].contains(&keys[i]) {
                    continue;
                }
                let orch = match orchestrator.orchestrate(v) {
                    Ok(o) => o,
                    Err(OrchError::Infeasible(_)) => continue,
                    Err(e) => panic!("sequential reference: {e}"),
                };
                for t in &orch.report.tuned {
                    if database.insert((t.spec.clone(), t.backend)) {
                        tuning_time_s += t.tuning_s;
                    }
                }
                if best
                    .as_ref()
                    .is_none_or(|(_, b)| orch.plan.total_latency.0 < b.plan.total_latency.0)
                {
                    best = Some((v.fingerprint(), orch));
                }
            }
            let (variant, orch) = best.expect("some variant orchestrates");
            let rec = (
                variant,
                orch.plan,
                orch.report.num_candidates,
                orch.num_states,
            );
            if config.cache {
                cache.insert(fp, rec.clone());
            }
            rec
        };
        stats.candidate_kernels += rec.2;
        stats.states += rec.3;
        chosen.push(Chosen {
            fingerprint: rec.0,
            plan: rec.1,
        });
    }
    stats.tuning_time_s = tuning_time_s.to_bits();
    (chosen, stats)
}

/// A plan, field for field with latencies by bits.
fn plan_bits(plan: &Plan) -> String {
    let kernels: Vec<_> = plan
        .kernels
        .iter()
        .map(|k| (&k.members, &k.outputs, k.backend, k.latency.0.to_bits()))
        .collect();
    format!("{kernels:?} total {}", plan.total_latency.0.to_bits())
}

fn stats_of(opt: &Optimized) -> Stats {
    let s = opt.stats();
    Stats {
        prim_nodes: s.prim_nodes,
        candidate_kernels: s.candidate_kernels,
        tuning_time_s: s.tuning_time_s.to_bits(),
        partitions: s.partitions,
        cache_hits: s.cache_hits,
        states: s.states,
        prim_stats: s.prim_stats,
    }
}

fn assert_compiles_as_sequential(name: &str, model: &OpGraph, config: KorchConfig) -> Stats {
    let pg = fission(model).unwrap().prim_graph;
    let (chosen, stats) = sequential_optimize(&config, &pg);
    let opt = Korch::new(Device::v100(), config)
        .optimize_prims(&pg)
        .unwrap();
    assert_eq!(opt.partitions().len(), chosen.len(), "{name}: partitions");
    for (i, (got, want)) in opt.partitions().iter().zip(&chosen).enumerate() {
        assert_eq!(
            got.part.graph.fingerprint(),
            want.fingerprint,
            "{name} partition {i}: chosen variant"
        );
        assert_eq!(
            plan_bits(&got.plan),
            plan_bits(&want.plan),
            "{name} partition {i}: plan"
        );
    }
    assert_eq!(stats_of(&opt), stats, "{name}: stats");
    stats
}

#[test]
fn candy_compiles_as_sequential() {
    let model = candy(CandyConfig {
        resolution: 32,
        width: 8,
        residual_blocks: 0,
    });
    assert_compiles_as_sequential("candy32", &model, KorchConfig::default());
}

#[test]
fn efficientvit_attention_compiles_as_sequential() {
    let model = subgraphs::efficientvit_attention(64, 16);
    assert_compiles_as_sequential("effvit64", &model, KorchConfig::default());
}

/// Three identical blocks of softmax → relu: the partitions repeat, so
/// the fingerprint cache must hit and charge the hits no tuning time.
#[test]
fn repeated_blocks_compile_as_sequential() {
    let mut g = OpGraph::new();
    let mut x = g
        .add(
            OpKind::Input {
                shape: vec![32, 64],
            },
            vec![],
        )
        .unwrap();
    for _ in 0..3 {
        let s = g.add(OpKind::Softmax { axis: 1 }, vec![x.into()]).unwrap();
        x = g.add(OpKind::Unary(UnaryOp::Relu), vec![s.into()]).unwrap();
    }
    g.mark_output(x).unwrap();
    let config = KorchConfig {
        partition_max_prims: 5,
        ..Default::default()
    };
    let stats = assert_compiles_as_sequential("repeated", &g, config.clone());
    assert!(stats.cache_hits >= 1, "{stats:?}");
    let uncached = KorchConfig {
        cache: false,
        ..config
    };
    let stats = assert_compiles_as_sequential("repeated, no cache", &g, uncached);
    assert_eq!(stats.cache_hits, 0);
}

/// `x @ w → relu`: under a profiler that prices every GEMM at infinity
/// no candidate materializes the matmul, so it is infeasible.
fn gemm_graph() -> PrimGraph {
    let mut g = PrimGraph::new();
    let x = g
        .add(PrimKind::Input { shape: vec![8, 8] }, vec![])
        .unwrap();
    let w = g
        .add(PrimKind::Input { shape: vec![8, 8] }, vec![])
        .unwrap();
    let spec = MatMulSpec::new();
    let m = g
        .add(
            PrimKind::Linear(LinearFn::MatMul { spec }),
            vec![x.into(), w.into()],
        )
        .unwrap();
    let r = g
        .add(
            PrimKind::Elementwise(EwFn::Unary(UnaryOp::Relu)),
            vec![m.into()],
        )
        .unwrap();
    g.mark_output(r).unwrap();
    g
}

/// An orchestration result, field for field (Debug prints every f64
/// round-trip exactly).
fn result_bits(r: &Result<Orchestration, OrchError>) -> String {
    match r {
        Ok(o) => format!(
            "{} states {} report {:?}",
            plan_bits(&o.plan),
            o.num_states,
            o.report
        ),
        Err(e) => format!("{e:?}"),
    }
}

/// The profiler under which `gemm_graph` is infeasible.
fn no_gemm_orchestrator() -> Orchestrator {
    let no_gemm = Calibration {
        class_scales: vec![
            (KernelClass::GemmBlocked, f64::INFINITY),
            (KernelClass::GemmSkinny, f64::INFINITY),
        ],
        ..Calibration::default()
    };
    Orchestrator::new(Device::v100())
        .with_profiler(Profiler::new(Device::v100()).with_calibration(no_gemm))
}

/// The fold of `Korch::optimize_prims` over one group's results: the
/// position of the first strictly cheapest plan, skipping the graphs
/// without one.
fn first_cheapest(results: &[Result<Orchestration, OrchError>]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, r) in results.iter().enumerate() {
        if let Ok(o) = r {
            let us = o.plan.total_latency.0;
            if best.is_none_or(|(_, b)| us < b) {
                best = Some((i, us));
            }
        }
    }
    best.map(|(i, _)| i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1's random DAGs, with infeasible graphs at random
    /// positions, each a group of its own (what a recalibration passes):
    /// `orchestrate_all` returns one result per graph, in input order,
    /// each what `orchestrate` returns for it.
    #[test]
    fn orchestrate_all_is_orchestrate_in_input_order(
        dags in prop::collection::vec(common::arb_dag(), 1..6),
        infeasible_at in prop::collection::vec(0usize..6, 0..3),
    ) {
        let mut graphs: Vec<(PrimGraph, bool)> = dags.into_iter().map(|g| (g, false)).collect();
        for &i in &infeasible_at {
            graphs.insert(i.min(graphs.len()), (gemm_graph(), true));
        }
        let orchestrator = no_gemm_orchestrator();
        let groups: Vec<Vec<&PrimGraph>> = graphs.iter().map(|(g, _)| vec![g]).collect();
        let all = orchestrator.orchestrate_all(&groups);
        prop_assert_eq!(all.len(), graphs.len());
        for (i, ((g, gemm), got)) in graphs.iter().zip(&all).enumerate() {
            prop_assert_eq!(got.len(), 1);
            let want = orchestrator.orchestrate(g);
            prop_assert_eq!(result_bits(&got[0]), result_bits(&want), "graph {}", i);
            let infeasible = matches!(got[0], Err(OrchError::Infeasible(_)));
            prop_assert_eq!(infeasible, *gemm, "graph {}", i);
        }
        prop_assert!(orchestrator.orchestrate_all(&[]).is_empty());
    }

    /// Groups of random DAGs and infeasible graphs, solved with cutoffs:
    /// each group's first strictly cheapest plan is the one uncut solves
    /// choose, to the bit; the first graph of a group is never cut; a cut
    /// graph's plan is never cheaper than the uncut choice; and a repeated
    /// call returns the same results, reports included.
    #[test]
    fn grouped_orchestrate_all_chooses_the_uncut_plan(
        groups in prop::collection::vec(
            prop::collection::vec((common::arb_dag(), 0usize..5), 1..4),
            1..4,
        ),
    ) {
        // One graph in five is the infeasible GEMM.
        let groups: Vec<Vec<PrimGraph>> = groups
            .into_iter()
            .map(|g| g.into_iter().map(|(dag, pick)| if pick == 0 { gemm_graph() } else { dag }).collect())
            .collect();
        let orchestrator = no_gemm_orchestrator();
        let refs: Vec<Vec<&PrimGraph>> = groups.iter().map(|g| g.iter().collect()).collect();
        let all = orchestrator.orchestrate_all(&refs);
        prop_assert_eq!(all.len(), groups.len());
        for (p, (graphs, got)) in groups.iter().zip(&all).enumerate() {
            prop_assert_eq!(got.len(), graphs.len());
            let uncut: Vec<_> = graphs.iter().map(|g| orchestrator.orchestrate(g)).collect();
            prop_assert_eq!(result_bits(&got[0]), result_bits(&uncut[0]), "group {}", p);
            let chosen = first_cheapest(&uncut);
            prop_assert_eq!(first_cheapest(got), chosen, "group {}", p);
            if let Some(i) = chosen {
                let (Ok(want), Ok(have)) = (&uncut[i], &got[i]) else {
                    unreachable!("the chosen graphs have plans");
                };
                prop_assert_eq!(plan_bits(&have.plan), plan_bits(&want.plan), "group {}", p);
                for r in got.iter().flatten() {
                    prop_assert!(r.plan.total_latency.0 >= want.plan.total_latency.0);
                }
            }
        }
        let again = orchestrator.orchestrate_all(&refs);
        for (a, b) in all.iter().flatten().zip(again.iter().flatten()) {
            prop_assert_eq!(result_bits(a), result_bits(b));
        }
    }
}
