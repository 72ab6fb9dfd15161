//! One function per table/figure of the paper's evaluation (§6).
//!
//! Every function is deterministic and self-contained; the `figures`
//! binary renders their rows, and `EXPERIMENTS.md` records the measured
//! values next to the paper's.

use crate::setup::{default_testbed, prepare, prepare_with_sf, testbed, PreparedQuery};
use ditto_cluster::{ResourceManager, SlotDistribution};
use ditto_core::baselines::{
    EvenSplitScheduler, FixedDopScheduler, NimbleDopScheduler, NimbleGroupScheduler,
    NimbleScheduler,
};
use ditto_core::{DittoScheduler, Objective, Scheduler};
use ditto_dag::StageId;
use ditto_exec::profile::probe_schedule;
use ditto_exec::{simulate, ExecConfig, GroundTruth};
use ditto_sql::queries::Query;
use ditto_storage::Medium;
use serde::Serialize;
use std::time::Instant;

/// A JCT measurement.
#[derive(Debug, Clone, Serialize)]
pub struct JctRow {
    /// Experiment setting (query name, slot usage, distribution, …).
    pub(crate) setting: String,
    /// Scheduler name.
    pub(crate) scheduler: String,
    /// Simulated job completion time, seconds.
    pub(crate) jct_seconds: f64,
}

/// A cost measurement.
#[derive(Debug, Clone, Serialize)]
pub struct CostRow {
    /// Experiment setting.
    pub(crate) setting: String,
    /// Scheduler name.
    pub(crate) scheduler: String,
    /// Absolute cost, GB·s.
    pub(crate) cost_gb_s: f64,
    /// Cost normalized to Ditto's (Ditto = 1.0), as the paper plots.
    pub(crate) normalized_cost: f64,
}

fn jct_pair(p: &PreparedQuery, rm: &ResourceManager, setting: &str) -> Vec<JctRow> {
    let schedulers: [&dyn Scheduler; 2] = [&DittoScheduler::new(), &NimbleScheduler::default()];
    schedulers
        .iter()
        .map(|s| JctRow {
            setting: setting.to_string(),
            scheduler: s.name().to_string(),
            jct_seconds: p.run(*s, rm, Objective::Jct).jct,
        })
        .collect()
}

fn cost_pair(p: &PreparedQuery, rm: &ResourceManager, setting: &str) -> Vec<CostRow> {
    let ditto = p.run(&DittoScheduler::new(), rm, Objective::Cost).total_cost();
    let nimble = p
        .run(&NimbleScheduler::default(), rm, Objective::Cost)
        .total_cost();
    vec![
        CostRow {
            setting: setting.to_string(),
            scheduler: "ditto".into(),
            cost_gb_s: ditto,
            normalized_cost: 1.0,
        },
        CostRow {
            setting: setting.to_string(),
            scheduler: "nimble".into(),
            cost_gb_s: nimble,
            normalized_cost: nimble / ditto,
        },
    ]
}

// ---------------------------------------------------------------------
// Motivation figures
// ---------------------------------------------------------------------

/// Fig. 1: JCT of the three-stage join DAG under even-split, data-size
/// -proportional (NIMBLE) and Ditto's DoP-ratio parallelism, 20 slots.
pub fn fig1() -> Vec<JctRow> {
    let dag = ditto_dag::generators::fig1_join();
    let gt = GroundTruth::new(ExecConfig {
        skew: 0.0,
        straggler_prob: 0.0,
        jitter: 0.0,
        ..Default::default()
    });
    let profile = ditto_exec::profile_job(&dag, &gt, &[2, 4, 8, 16, 20]);
    let (model, _) = profile.build_model(&dag);
    let rm = ResourceManager::from_free_slots(vec![20]);
    let schedulers: [&dyn Scheduler; 3] = [
        &EvenSplitScheduler,
        &NimbleScheduler::default(),
        &NimbleDopScheduler, // Ditto's DoP ratios without grouping
    ];
    let labels = ["even-split", "data-size (nimble)", "dop-ratio (ditto)"];
    schedulers
        .iter()
        .zip(labels)
        .map(|(s, label)| {
            let schedule = s.schedule(&ditto_core::SchedulingContext {
                dag: &dag,
                model: &model,
                resources: &rm,
                objective: Objective::Jct,
            });
            let (_, m) = simulate(&dag, &schedule, &gt);
            JctRow {
                setting: "fig1-join".into(),
                scheduler: label.into(),
                jct_seconds: m.jct,
            }
        })
        .collect()
}

/// One Fig. 2 configuration.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2Row {
    /// Map-stage DoP.
    pub(crate) map_dop: u32,
    /// Whether map and reduce share a server (zero-copy shuffle).
    pub(crate) colocated: bool,
    /// Simulated JCT, seconds.
    pub(crate) jct_seconds: f64,
}

/// Fig. 2: a high-DoP map spread across servers (external shuffle) vs a
/// low-DoP map co-located with the reduce (shared memory). The low-DoP
/// co-located plan wins despite using fewer slots.
pub fn fig2() -> Vec<Fig2Row> {
    use ditto_core::{Schedule, TaskPlacement};
    let mut dag = ditto_dag::JobDag::new("fig2");
    let map = dag.add_stage("map", ditto_dag::StageKind::Map);
    let red = dag.add_stage("reduce", ditto_dag::StageKind::Reduce);
    {
        let s = dag.stage_mut(map);
        s.input_bytes = 6 << 30;
        s.output_bytes = 3 << 30;
    }
    dag.add_edge(map, red, ditto_dag::EdgeKind::Shuffle, 3 << 30).unwrap();
    let gt = GroundTruth::new(ExecConfig {
        skew: 0.0,
        straggler_prob: 0.0,
        jitter: 0.0,
        ..Default::default()
    });
    let make = |map_dop: u32, colocated: bool| -> Fig2Row {
        let placement = if colocated {
            vec![
                TaskPlacement::Single(ditto_cluster::ServerId(0)),
                TaskPlacement::Single(ditto_cluster::ServerId(0)),
            ]
        } else {
            vec![
                TaskPlacement::Spread(vec![
                    (ditto_cluster::ServerId(0), map_dop / 2),
                    (ditto_cluster::ServerId(1), map_dop - map_dop / 2),
                ]),
                TaskPlacement::Single(ditto_cluster::ServerId(0)),
            ]
        };
        let schedule = Schedule {
            scheduler: "manual".into(),
            dop: vec![map_dop, 1],
            groups: if colocated {
                vec![vec![map, red]]
            } else {
                vec![vec![map], vec![red]]
            },
            group_of: if colocated { vec![0, 0] } else { vec![0, 1] },
            colocated: vec![colocated],
            placement,
        };
        let (_, m) = simulate(&dag, &schedule, &gt);
        Fig2Row {
            map_dop,
            colocated,
            jct_seconds: m.jct,
        }
    };
    // (a) 6 maps across two servers, remote shuffle; (b) 3 maps co-located.
    vec![make(6, false), make(3, true)]
}

/// A worked DoP-ratio example (Figs. 4 and 5).
#[derive(Debug, Clone, Serialize)]
pub struct RatioRow {
    /// Which configuration.
    pub(crate) config: String,
    /// First stage's DoP.
    pub(crate) d1: f64,
    /// Second stage's DoP.
    pub(crate) d2: f64,
    /// Completion time in the paper's abstract time units.
    pub(crate) completion_time: f64,
}

/// Fig. 4: intra-path ratio, α = (60, 15), C = 15 — data-size split gives
/// 10 units; the √-ratio split gives 9.
pub fn fig4() -> Vec<RatioRow> {
    let t = |d1: f64, d2: f64| 60.0 / d1 + 15.0 / d2;
    vec![
        RatioRow {
            config: "data-size (4:1)".into(),
            d1: 12.0,
            d2: 3.0,
            completion_time: t(12.0, 3.0),
        },
        RatioRow {
            config: "sqrt-ratio (2:1)".into(),
            d1: 10.0,
            d2: 5.0,
            completion_time: t(10.0, 5.0),
        },
    ]
}

/// Fig. 5: inter-path ratio, α = (24, 12), 6 slots — balanced 4/2 beats
/// even 3/3.
pub fn fig5() -> Vec<RatioRow> {
    let t = |d1: f64, d2: f64| (24.0 / d1).max(12.0 / d2);
    vec![
        RatioRow {
            config: "even (3:3)".into(),
            d1: 3.0,
            d2: 3.0,
            completion_time: t(3.0, 3.0),
        },
        RatioRow {
            config: "balanced (2:1)".into(),
            d1: 4.0,
            d2: 2.0,
            completion_time: t(4.0, 2.0),
        },
    ]
}

// ---------------------------------------------------------------------
// §6.1 / §6.2 — overall performance
// ---------------------------------------------------------------------

/// Fig. 8a: JCT across the four queries, Zipf-0.9, S3 external storage.
pub fn fig8a() -> Vec<JctRow> {
    let rm = default_testbed();
    Query::all()
        .iter()
        .flat_map(|&q| {
            let p = prepare(q, Medium::S3);
            jct_pair(&p, &rm, q.name())
        })
        .collect()
}

/// Fig. 8b: JCT of Q95 at 100/75/50/25 % slot usage.
pub fn fig8b() -> Vec<JctRow> {
    let p = prepare(Query::Q95, Medium::S3);
    [1.0, 0.75, 0.5, 0.25]
        .iter()
        .flat_map(|&usage| {
            let rm = testbed(&SlotDistribution::Uniform { usage });
            jct_pair(&p, &rm, &format!("{}%", (usage * 100.0) as u32))
        })
        .collect()
}

/// Fig. 8c: JCT of Q95 under Norm-1.0 / Norm-0.8 / Zipf-0.9 / Zipf-0.99.
pub fn fig8c() -> Vec<JctRow> {
    let p = prepare(Query::Q95, Medium::S3);
    slot_distributions()
        .into_iter()
        .flat_map(|(name, dist)| {
            let rm = testbed(&dist);
            jct_pair(&p, &rm, name)
        })
        .collect()
}

/// Fig. 9a: normalized cost across the four queries (cost objective).
pub fn fig9a() -> Vec<CostRow> {
    let rm = default_testbed();
    Query::all()
        .iter()
        .flat_map(|&q| {
            let p = prepare(q, Medium::S3);
            cost_pair(&p, &rm, q.name())
        })
        .collect()
}

/// Fig. 9b: normalized cost of Q95 at 100–25 % slot usage.
pub fn fig9b() -> Vec<CostRow> {
    let p = prepare(Query::Q95, Medium::S3);
    [1.0, 0.75, 0.5, 0.25]
        .iter()
        .flat_map(|&usage| {
            let rm = testbed(&SlotDistribution::Uniform { usage });
            cost_pair(&p, &rm, &format!("{}%", (usage * 100.0) as u32))
        })
        .collect()
}

/// Fig. 9c: normalized cost of Q95 under the four slot distributions.
pub fn fig9c() -> Vec<CostRow> {
    let p = prepare(Query::Q95, Medium::S3);
    slot_distributions()
        .into_iter()
        .flat_map(|(name, dist)| {
            let rm = testbed(&dist);
            cost_pair(&p, &rm, name)
        })
        .collect()
}

fn slot_distributions() -> Vec<(&'static str, SlotDistribution)> {
    vec![
        ("Norm-1.0", SlotDistribution::Normal { sigma: 1.0 }),
        ("Norm-0.8", SlotDistribution::Normal { sigma: 0.8 }),
        ("Zipf-0.9", SlotDistribution::Zipf { theta: 0.9 }),
        ("Zipf-0.99", SlotDistribution::Zipf { theta: 0.99 }),
    ]
}

// ---------------------------------------------------------------------
// §6.3 — Redis
// ---------------------------------------------------------------------

/// Fig. 10: JCT and cost under Redis external storage (benchmark scaled
/// down to cache capacity, as in the paper: SF 100 instead of 1000).
pub fn fig10() -> (Vec<JctRow>, Vec<CostRow>) {
    let rm = default_testbed();
    let mut jct = Vec::new();
    let mut cost = Vec::new();
    for q in Query::all() {
        // A quarter of the default volume scale ≈ the paper's SF-100 run
        // (intermediates fit the 228 GB Redis capacity, and data volumes
        // stay large enough that transfer — not per-task setup — is the
        // dominant term, as in the paper).
        let p = prepare_with_sf(q, Medium::Redis, crate::setup::EXPERIMENT_SF, 10_000.0);
        jct.extend(jct_pair(&p, &rm, q.name()));
        cost.extend(cost_pair(&p, &rm, q.name()));
    }
    (jct, cost)
}

// ---------------------------------------------------------------------
// §6.4 — deep dive
// ---------------------------------------------------------------------

/// One Fig. 11 point: predicted vs actual stage time at a DoP.
#[derive(Debug, Clone, Serialize)]
pub struct ModelAccuracyRow {
    /// Query name.
    pub(crate) query: String,
    /// Stage name.
    pub(crate) stage: String,
    /// `io` or `compute` intensive.
    pub(crate) kind: String,
    /// Degree of parallelism.
    pub(crate) dop: u32,
    /// Ground-truth mean task time, seconds.
    pub(crate) actual_seconds: f64,
    /// Model-predicted time, seconds.
    pub(crate) predicted_seconds: f64,
    /// |predicted − actual| / actual.
    pub(crate) rel_error: f64,
}

/// Fig. 11: execution-time model accuracy. For each query, one
/// IO-intensive stage (largest I/O α) and one compute-intensive stage
/// (largest compute *fraction* among non-trivial stages, so it differs
/// from the IO pick) are replayed at DoPs 20–120; the measured mean task
/// time is compared against the fitted model's prediction — exactly the
/// paper's methodology ("we plot the average execution time of all tasks
/// in a stage as points, while the lines represent the predicted
/// execution time").
pub fn fig11() -> Vec<ModelAccuracyRow> {
    let mut rows = Vec::new();
    for q in Query::all() {
        let p = prepare(q, Medium::S3);
        let dag = &p.plan.dag;
        let none = p.model.no_colocation();
        let total_alpha = |s: StageId| p.model.stage_alpha(dag, s, &none);
        let io_alpha = |s: StageId| {
            total_alpha(s) - p.model.stage_steps(s).compute.alpha * p.model.scaling(s)
        };
        let max_total = dag
            .stages()
            .iter()
            .map(|s| total_alpha(s.id))
            .fold(0.0, f64::max);
        let io_stage = dag
            .stages()
            .iter()
            .max_by(|a, b| io_alpha(a.id).total_cmp(&io_alpha(b.id)))
            .unwrap()
            .id;
        // Compute-intensive: highest compute share among stages doing at
        // least 5% of the heaviest stage's work, excluding the IO pick.
        let comp_stage = dag
            .stages()
            .iter()
            .filter(|s| s.id != io_stage && total_alpha(s.id) > 0.05 * max_total)
            .max_by(|a, b| {
                let frac = |s: StageId| {
                    p.model.stage_steps(s).compute.alpha * p.model.scaling(s)
                        / total_alpha(s).max(1e-12)
                };
                frac(a.id).total_cmp(&frac(b.id))
            })
            .unwrap()
            .id;
        for (kind, s) in [("io", io_stage), ("compute", comp_stage)] {
            for dop in [20u32, 40, 60, 80, 100, 120] {
                let sched = probe_schedule(dag, dop);
                let tasks = p.gt.stage_tasks(dag, &sched, s);
                let actual = tasks
                    .iter()
                    .map(|t| t.read + t.compute + t.write)
                    .sum::<f64>()
                    / tasks.len() as f64;
                let predicted = p.model.mean_exec_time(dag, s, dop as f64, &none);
                rows.push(ModelAccuracyRow {
                    query: q.name().into(),
                    stage: dag.stage(s).name.clone(),
                    kind: kind.into(),
                    dop,
                    actual_seconds: actual,
                    predicted_seconds: predicted,
                    rel_error: (predicted - actual).abs() / actual.max(1e-9),
                });
            }
        }
    }
    rows
}

/// Fig. 12: the ablation — NIMBLE / NIMBLE+Group / NIMBLE+DoP / Ditto on
/// all four queries (JCT rows and cost rows).
pub fn fig12() -> (Vec<JctRow>, Vec<CostRow>) {
    let rm = default_testbed();
    let mut jct = Vec::new();
    let mut cost = Vec::new();
    for q in Query::all() {
        let p = prepare(q, Medium::S3);
        let schedulers: [&dyn Scheduler; 4] = [
            &NimbleScheduler::default(),
            &NimbleGroupScheduler,
            &NimbleDopScheduler,
            &DittoScheduler::new(),
        ];
        let ditto_cost = p.run(&DittoScheduler::new(), &rm, Objective::Cost).total_cost();
        for s in schedulers {
            jct.push(JctRow {
                setting: q.name().into(),
                scheduler: s.name().into(),
                jct_seconds: p.run(s, &rm, Objective::Jct).jct,
            });
            let c = p.run(s, &rm, Objective::Cost).total_cost();
            cost.push(CostRow {
                setting: q.name().into(),
                scheduler: s.name().into(),
                cost_gb_s: c,
                normalized_cost: c / ditto_cost,
            });
        }
    }
    (jct, cost)
}

/// One Fig. 14 bar: a stage's mean step durations under fixed DoP.
#[derive(Debug, Clone, Serialize)]
pub struct BreakdownRow {
    /// Stage index (1-based, as in Fig. 13/14).
    pub(crate) stage: u32,
    /// Stage name.
    pub(crate) name: String,
    /// Tasks in the stage.
    pub(crate) tasks: u32,
    /// Stage start, seconds.
    pub(crate) start: f64,
    /// Stage end, seconds.
    pub(crate) end: f64,
    /// Mean setup seconds.
    pub(crate) setup: f64,
    /// Mean read seconds.
    pub(crate) read: f64,
    /// Mean compute seconds.
    pub(crate) compute: f64,
    /// Mean write seconds.
    pub(crate) write: f64,
}

/// Fig. 14: per-stage time breakdown of Q95 with every stage at DoP 40.
pub fn fig14() -> Vec<BreakdownRow> {
    let p = prepare(Query::Q95, Medium::S3);
    let rm = testbed(&SlotDistribution::Uniform { usage: 1.0 });
    let schedule = p.schedule(&FixedDopScheduler { dop: 40 }, &rm, Objective::Jct);
    let (trace, _) = simulate(&p.plan.dag, &schedule, &p.gt);
    trace
        .stage_breakdowns()
        .into_iter()
        .map(|b| BreakdownRow {
            stage: b.stage + 1,
            name: p.plan.dag.stage(StageId(b.stage)).name.clone(),
            tasks: b.tasks,
            start: b.start,
            end: b.end,
            setup: b.setup,
            read: b.read,
            compute: b.compute,
            write: b.write,
        })
        .collect()
}

/// Fig. 15 output: fixed vs elastic execution of Q95 under Zipf-0.9.
#[derive(Debug, Clone, Serialize)]
pub struct Fig15Output {
    /// JCT with fixed parallelism, seconds.
    pub fixed_jct: f64,
    /// JCT with Ditto's elastic parallelism, seconds.
    pub elastic_jct: f64,
    /// Per-stage DoP under the fixed schedule.
    pub fixed_dop: Vec<u32>,
    /// Per-stage DoP under Ditto.
    pub elastic_dop: Vec<u32>,
    /// ASCII Gantt of the fixed run.
    pub fixed_gantt: String,
    /// ASCII Gantt of the elastic run.
    pub elastic_gantt: String,
}

/// Fig. 15: execution breakdown, fixed parallelism vs Ditto's elastic
/// parallelism (Q95, Zipf-0.9).
pub fn fig15() -> Fig15Output {
    let p = prepare(Query::Q95, Medium::S3);
    let rm = default_testbed();
    // The paper fixes DoP at 24 per stage under Zipf-0.9 (≈ C/#stages).
    let per_stage = (rm.total_free() / p.plan.dag.num_stages() as u32).max(1);
    let fixed = p.schedule(&FixedDopScheduler { dop: per_stage }, &rm, Objective::Jct);
    let elastic = p.schedule(&DittoScheduler::new(), &rm, Objective::Jct);
    let (ft, fm) = simulate(&p.plan.dag, &fixed, &p.gt);
    let (et, em) = simulate(&p.plan.dag, &elastic, &p.gt);
    Fig15Output {
        fixed_jct: fm.jct,
        elastic_jct: em.jct,
        fixed_dop: fixed.dop.clone(),
        elastic_dop: elastic.dop.clone(),
        fixed_gantt: ft.ascii_gantt(60),
        elastic_gantt: et.ascii_gantt(60),
    }
}

// ---------------------------------------------------------------------
// §6.5 — overhead tables
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Extensions beyond the paper
// ---------------------------------------------------------------------

/// One deadline-sweep measurement (extension beyond the paper).
#[derive(Debug, Clone, Serialize)]
pub struct DeadlineRow {
    /// The requested deadline, seconds.
    pub(crate) deadline: f64,
    /// `met`, `unreachable` (per the conservative prediction).
    pub(crate) outcome: String,
    /// Simulated JCT, seconds (0 when unreachable).
    pub(crate) simulated_jct: f64,
    /// Simulated total cost, GB·s (0 when unreachable).
    pub(crate) cost: f64,
}

/// Deadline-constrained sweep on Q95: cost sheds as deadlines loosen.
pub fn deadline_sweep() -> Vec<DeadlineRow> {
    use ditto_core::deadline::schedule_with_deadline;
    use ditto_core::JointOptions;
    let p = prepare(Query::Q95, Medium::S3);
    let rm = default_testbed();
    let fast = p.schedule(&DittoScheduler::new(), &rm, Objective::Jct);
    let frac: Vec<f64> = fast.dop.iter().map(|&d| d as f64).collect();
    let floor = ditto_core::predicted_jct(&p.plan.dag, &p.model, &frac, &fast.colocated);
    (0..6)
        .map(|i| {
            let deadline = floor * (0.95 + 0.15 * i as f64);
            match schedule_with_deadline(&p.plan.dag, &p.model, &rm, deadline, &JointOptions::default())
            {
                Some(schedule) => {
                    let (_, m) = simulate(&p.plan.dag, &schedule, &p.gt);
                    DeadlineRow {
                        deadline,
                        outcome: "met".into(),
                        simulated_jct: m.jct,
                        cost: m.total_cost(),
                    }
                }
                None => DeadlineRow {
                    deadline,
                    outcome: "unreachable".into(),
                    simulated_jct: 0.0,
                    cost: 0.0,
                },
            }
        })
        .collect()
}

/// One Table 1 cell: scheduling time for a query at a slot usage.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadRow {
    /// Query name.
    pub(crate) query: String,
    /// Slot usage percentage.
    pub(crate) slot_usage_pct: u32,
    /// Median scheduling time, microseconds.
    pub(crate) scheduling_micros: f64,
}

/// Table 1: Ditto's scheduling time per query and slot usage (median of
/// `iters` runs).
pub fn table1(iters: usize) -> Vec<OverheadRow> {
    let mut rows = Vec::new();
    for q in Query::all() {
        let p = prepare(q, Medium::S3);
        for usage in [0.25, 0.5, 0.75, 1.0] {
            let rm = testbed(&SlotDistribution::Uniform { usage });
            let mut samples: Vec<f64> = (0..iters.max(1))
                .map(|_| {
                    let t0 = Instant::now();
                    let s = p.schedule(&DittoScheduler::new(), &rm, Objective::Jct);
                    let dt = t0.elapsed().as_secs_f64() * 1e6;
                    std::hint::black_box(s);
                    dt
                })
                .collect();
            samples.sort_by(f64::total_cmp);
            rows.push(OverheadRow {
                query: q.name().into(),
                slot_usage_pct: (usage * 100.0) as u32,
                scheduling_micros: samples[samples.len() / 2],
            });
        }
    }
    rows
}

/// One Table 2 row: model building time for a query.
#[derive(Debug, Clone, Serialize)]
pub struct BuildTimeRow {
    /// Query name.
    pub(crate) query: String,
    /// Least-squares model building time, milliseconds.
    pub(crate) build_millis: f64,
}

/// Table 2: execution-time-model building time per query (profiles at
/// five DoPs, least-squares fit per step).
pub fn table2() -> Vec<BuildTimeRow> {
    Query::all()
        .iter()
        .map(|&q| {
            let p = prepare(q, Medium::S3);
            BuildTimeRow {
                query: q.name().into(),
                build_millis: p.model_build_time.as_secs_f64() * 1e3,
            }
        })
        .collect()
}

/// One fault-sweep measurement: a schedule simulated under injected
/// faults, relative to its own fault-free run.
#[derive(Debug, Clone, Serialize)]
pub struct FaultSweepRow {
    /// Scheduler ("ditto" / "nimble").
    pub(crate) scheduler: String,
    /// Recovery policy ("retry" / "retry+spec").
    pub(crate) policy: String,
    /// Per-attempt crash probability == per-task straggler probability.
    pub(crate) fault_rate: f64,
    /// Simulated JCT under faults, seconds.
    pub(crate) jct_seconds: f64,
    /// JCT relative to the fault-free run of the same schedule (≥ 1).
    pub(crate) jct_degradation: f64,
    /// Total cost relative to the fault-free run.
    pub(crate) cost_overhead: f64,
    /// Failed / superseded attempts across the job.
    pub(crate) extra_attempts: u32,
    /// Billed-but-discarded work, GB·s.
    pub(crate) wasted_gb_s: f64,
}

/// Per-task crash/straggler probabilities swept by [`fault_sweep`].
pub(crate) const FAULT_SWEEP_RATES: [f64; 4] = [0.02, 0.05, 0.1, 0.2];

/// Robustness sweep (extension beyond the paper): Q95 on the §6 testbed
/// under seeded random crashes and 4× stragglers at increasing fault
/// rates, Ditto vs NIMBLE schedules, bounded-retry vs retry+speculation
/// recovery. Deterministic: one seed names one fault history per rate.
pub fn fault_sweep() -> Vec<FaultSweepRow> {
    use ditto_exec::{Engine, FaultPlan, FaultRates, RecoveryPolicy};
    let p = prepare(Query::Q95, Medium::S3);
    let rm = default_testbed();
    let ditto = DittoScheduler::new();
    let nimble = NimbleScheduler::default();
    let schedulers: [(&dyn Scheduler, &str); 2] = [(&ditto, "ditto"), (&nimble, "nimble")];
    let policies = [
        (
            "retry",
            RecoveryPolicy {
                max_retries: 16,
                ..RecoveryPolicy::retry_only()
            },
        ),
        (
            "retry+spec",
            RecoveryPolicy {
                max_retries: 16,
                ..RecoveryPolicy::default()
            },
        ),
    ];
    let mut rows = Vec::new();
    for (s, name) in schedulers {
        let schedule = p.schedule(s, &rm, Objective::Jct);
        let (_, base) = simulate(&p.plan.dag, &schedule, &p.gt);
        for rate in FAULT_SWEEP_RATES {
            for (policy_name, policy) in &policies {
                let plan = FaultPlan::from_rates(FaultRates {
                    crash_prob: rate,
                    straggler_prob: rate,
                    straggler_slowdown: 4.0,
                    ..FaultRates::none(17)
                });
                let (_, m) =
                    Engine::new(&p.plan.dag, &schedule, &p.gt).faults(&plan, policy).run()
                        .expect("bounded fault rates recover within 16 retries");
                rows.push(FaultSweepRow {
                    scheduler: name.into(),
                    policy: (*policy_name).into(),
                    fault_rate: rate,
                    jct_seconds: m.jct,
                    jct_degradation: m.jct / base.jct,
                    cost_overhead: m.total_cost() / base.total_cost(),
                    extra_attempts: m.faults.extra_attempts,
                    wasted_gb_s: m.faults.wasted_gb_s,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_elastic_beats_even_split() {
        let rows = fig1();
        assert_eq!(rows.len(), 3);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.scheduler == name)
                .unwrap()
                .jct_seconds
        };
        // Ditto's DoP ratios beat the naive even split (Fig. 1b vs 1d);
        // data-size-proportional sits in between or equal.
        assert!(get("dop-ratio (ditto)") < get("even-split"));
        assert!(get("dop-ratio (ditto)") <= get("data-size (nimble)") + 1e-9);
    }

    #[test]
    fn fig2_colocation_beats_high_dop() {
        let rows = fig2();
        assert_eq!(rows.len(), 2);
        let spread = rows.iter().find(|r| !r.colocated).unwrap();
        let colo = rows.iter().find(|r| r.colocated).unwrap();
        assert!(
            colo.jct_seconds < spread.jct_seconds,
            "low-DoP co-located ({}) must beat high-DoP remote ({})",
            colo.jct_seconds,
            spread.jct_seconds
        );
        assert!(colo.map_dop < spread.map_dop);
    }

    #[test]
    fn fig4_fig5_match_paper_numbers() {
        let f4 = fig4();
        assert!((f4[0].completion_time - 10.0).abs() < 1e-9);
        assert!((f4[1].completion_time - 9.0).abs() < 1e-9);
        let f5 = fig5();
        assert!((f5[0].completion_time - 8.0).abs() < 1e-9);
        assert!((f5[1].completion_time - 6.0).abs() < 1e-9);
    }

    #[test]
    fn fig8a_ditto_wins_every_query() {
        let rows = fig8a();
        assert_eq!(rows.len(), 8);
        for q in Query::all() {
            let d = rows
                .iter()
                .find(|r| r.setting == q.name() && r.scheduler == "ditto")
                .unwrap();
            let n = rows
                .iter()
                .find(|r| r.setting == q.name() && r.scheduler == "nimble")
                .unwrap();
            let speedup = n.jct_seconds / d.jct_seconds;
            assert!(
                speedup > 1.0,
                "{}: ditto {} vs nimble {}",
                q.name(),
                d.jct_seconds,
                n.jct_seconds
            );
            assert!(speedup < 5.0, "{}: speedup {speedup} implausibly large", q.name());
        }
    }

    #[test]
    fn table2_build_times_small() {
        for row in table2() {
            assert!(
                row.build_millis < 300.0,
                "{}: {} ms exceeds the paper's 0.3 s bound",
                row.query,
                row.build_millis
            );
        }
    }

    #[test]
    fn fault_sweep_covers_rates_and_degrades_gracefully() {
        let rows = fault_sweep();
        let rates: std::collections::HashSet<u64> =
            rows.iter().map(|r| r.fault_rate.to_bits()).collect();
        assert!(rates.len() >= 3, "sweep must cover at least 3 failure rates");
        for sys in ["ditto", "nimble"] {
            assert!(rows.iter().any(|r| r.scheduler == sys), "missing {sys}");
        }
        for r in &rows {
            assert!(
                r.jct_degradation >= 1.0 - 1e-9,
                "faults cannot speed a job up: {r:?}"
            );
            // Storage residency windows can wiggle slightly; compute-side
            // overhead dominates.
            assert!(r.cost_overhead >= 0.99, "cost dropped under faults: {r:?}");
        }
        // The highest rate must actually bite…
        assert!(rows
            .iter()
            .filter(|r| r.fault_rate >= 0.2)
            .all(|r| r.extra_attempts > 0 && r.wasted_gb_s > 0.0));
        // …and speculation can only help (per-task end never increases).
        for sys in ["ditto", "nimble"] {
            let jct = |policy: &str| {
                rows.iter()
                    .find(|r| r.scheduler == sys && r.policy == policy && r.fault_rate >= 0.2)
                    .unwrap()
                    .jct_seconds
            };
            assert!(
                jct("retry+spec") <= jct("retry") + 1e-9,
                "{sys}: speculation must not hurt"
            );
        }
    }

    #[test]
    fn table1_sub_millisecond() {
        for row in table1(3) {
            assert!(
                row.scheduling_micros < 50_000.0,
                "{} @ {}%: {} µs is far from the paper's sub-ms claim",
                row.query,
                row.slot_usage_pct,
                row.scheduling_micros
            );
        }
    }
}
