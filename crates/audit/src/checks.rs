//! The schedule auditor: independent re-derivation of the paper's
//! invariants as machine-checkable certificates.
//!
//! Nothing here calls into the joint optimizer. The DoP-ratio certificate
//! re-derives the fractional Algorithm-1 optimum from the time model alone
//! (the documented merge rules, Eq. 3/4), the placement certificate
//! re-counts tasks per server against the cluster's free slots, and the
//! grouping certificates re-check partition/connectivity/co-location
//! claims from the DAG — so a bug in `ditto-core` cannot silently vouch
//! for itself.

use crate::report::{AuditFinding, AuditReport, CheckId};
use ditto_cluster::{ResourceManager, ServerId};
use ditto_core::{Objective, Schedule, TaskPlacement};
use ditto_dag::{JobDag, StageId};
use ditto_timemodel::JobTimeModel;
use std::collections::BTreeMap;

/// Knobs for [`audit_with`]. The default audits everything that can be
/// audited for the given schedule. The DoP-ratio certificate runs only
/// for schedules named `ditto-jct` / `ditto-cost` — the joint optimizer's
/// outputs, which claim Algorithm-1 optimality. Baselines (NIMBLE's DoP ∝
/// input size, fixed DoP, …) are *deliberately* non-optimal and are not
/// held to the ratio invariant.
#[derive(Debug, Clone, Default)]
pub struct AuditOptions {
    /// If set, predicted JCT above this many seconds is an error.
    pub deadline: Option<f64>,
    /// If set, predicted cost above this many GB·s is an error.
    pub cost_budget: Option<f64>,
}

/// Audit a schedule against the DAG, time model and cluster it was
/// produced for, with default options. `cluster` must be the free-slot
/// state the scheduler saw (schedules do not record reservations they
/// caused, so auditing against a post-reservation manager would
/// double-count).
pub fn audit(
    dag: &JobDag,
    model: &JobTimeModel,
    cluster: &ResourceManager,
    schedule: &Schedule,
) -> AuditReport {
    audit_with(dag, model, cluster, schedule, &AuditOptions::default())
}

/// [`audit`] with explicit [`AuditOptions`].
pub fn audit_with(
    dag: &JobDag,
    model: &JobTimeModel,
    cluster: &ResourceManager,
    schedule: &Schedule,
    opts: &AuditOptions,
) -> AuditReport {
    let mut report = audit_structure(dag, schedule);
    report.merge(audit_model(dag, model));
    if report.is_clean() {
        // Placement/ratio certificates index by the vectors the structural
        // pass just length-checked; skip them on malformed input.
        report.merge(audit_placement(dag, cluster, schedule));
        if matches!(schedule.scheduler.as_str(), "ditto-jct" | "ditto-cost") {
            report.merge(audit_ratios(dag, model, cluster, schedule));
        }
        report.merge(audit_objective(dag, model, schedule, opts));
    }
    report
}

// ---------------------------------------------------------------------
// Structural certificates (no model or cluster needed)
// ---------------------------------------------------------------------

/// DAG sanity plus everything checkable from `(dag, schedule)` alone:
/// vector alignment, DoP ≥ 1, spread coverage, group partition and
/// connectivity, and the co-location claims (same group *and* same server
/// set per co-located edge). This is the subset `ditto-exec` gates on
/// before simulating.
pub fn audit_structure(dag: &JobDag, schedule: &Schedule) -> AuditReport {
    let mut r = AuditReport::default();
    let n = dag.num_stages();

    // DAG itself: non-empty, unique names, acyclic.
    r.checks_run += 1;
    if let Err(e) = dag.validate() {
        r.findings
            .push(AuditFinding::error(CheckId::Structure, format!("invalid DAG: {e}")));
        return r; // nothing downstream is meaningful
    }

    // The paper's DAGs have a single result stage; more than one is legal
    // here (random DAGs can have several sinks) but worth surfacing.
    r.checks_run += 1;
    let sinks = dag.final_stages();
    if sinks.len() > 1 {
        r.findings.push(AuditFinding::warning(
            CheckId::Structure,
            format!("{} sink stages (paper DAGs have one)", sinks.len()),
        ));
    }

    // Vector alignment.
    r.checks_run += 1;
    let aligned = schedule.dop.len() == n
        && schedule.placement.len() == n
        && schedule.group_of.len() == n
        && schedule.colocated.len() == dag.num_edges();
    if !aligned {
        r.findings.push(AuditFinding::error(
            CheckId::Structure,
            format!(
                "schedule vectors misaligned: dop {}, placement {}, group_of {} (stages {}); \
                 colocated {} (edges {})",
                schedule.dop.len(),
                schedule.placement.len(),
                schedule.group_of.len(),
                n,
                schedule.colocated.len(),
                dag.num_edges()
            ),
        ));
        return r;
    }

    // Per-stage: DoP ≥ 1, spread placements cover exactly the DoP.
    for s in dag.stages() {
        let i = s.id.index();
        r.checks_run += 2;
        if schedule.dop[i] == 0 {
            r.findings.push(
                AuditFinding::error(CheckId::Structure, format!("stage {:?} has DoP 0", s.name))
                    .at_stage(s.id.0),
            );
        }
        if let TaskPlacement::Spread(parts) = &schedule.placement[i] {
            let covered: u32 = parts.iter().map(|&(_, c)| c).sum();
            if covered != schedule.dop[i] {
                r.findings.push(
                    AuditFinding::error(
                        CheckId::PlacementCoverage,
                        format!(
                            "stage {:?} places {covered} tasks but DoP is {}",
                            s.name, schedule.dop[i]
                        ),
                    )
                    .at_stage(s.id.0),
                );
            }
            if parts.iter().any(|&(_, c)| c == 0) {
                r.findings.push(
                    AuditFinding::warning(
                        CheckId::PlacementCoverage,
                        format!("stage {:?} placement has an empty chunk", s.name),
                    )
                    .at_stage(s.id.0),
                );
            }
        }
    }

    // Group partition: every stage in exactly one group, group_of aligned.
    r.checks_run += 1;
    let mut seen = vec![false; n];
    let mut partition_ok = true;
    for (g, members) in schedule.groups.iter().enumerate() {
        for &m in members {
            if m.index() >= n {
                r.findings.push(AuditFinding::error(
                    CheckId::GroupPartition,
                    format!("group {g} names nonexistent stage {}", m.0),
                ));
                partition_ok = false;
                continue;
            }
            if seen[m.index()] {
                r.findings.push(
                    AuditFinding::error(
                        CheckId::GroupPartition,
                        format!("stage {} appears in more than one group", m.0),
                    )
                    .at_stage(m.0),
                );
                partition_ok = false;
            }
            seen[m.index()] = true;
            if schedule.group_of[m.index()] != g {
                r.findings.push(
                    AuditFinding::error(
                        CheckId::GroupPartition,
                        format!(
                            "group_of[{}] = {} but stage is listed in group {g}",
                            m.0,
                            schedule.group_of[m.index()]
                        ),
                    )
                    .at_stage(m.0),
                );
                partition_ok = false;
            }
        }
    }
    for (i, s) in seen.iter().enumerate() {
        if !s {
            r.findings.push(
                AuditFinding::error(
                    CheckId::GroupPartition,
                    format!("stage {i} belongs to no group"),
                )
                .at_stage(i as u32),
            );
            partition_ok = false;
        }
    }

    // Group connectivity: Algorithm 2 merges only along DAG edges, so a
    // multi-stage group must be connected in the undirected edge graph.
    if partition_ok {
        for (g, members) in schedule.groups.iter().enumerate() {
            if members.len() < 2 {
                continue;
            }
            r.checks_run += 1;
            let in_group = |s: StageId| schedule.group_of[s.index()] == g;
            let mut reached = vec![false; members.len()];
            let pos =
                |s: StageId| members.iter().position(|&m| m == s).expect("member of group");
            reached[0] = true;
            let mut stack = vec![members[0]];
            while let Some(s) = stack.pop() {
                for e in dag.incident_edges(s) {
                    let other = if e.src == s { e.dst } else { e.src };
                    if in_group(other) && !reached[pos(other)] {
                        reached[pos(other)] = true;
                        stack.push(other);
                    }
                }
            }
            for (k, ok) in reached.iter().enumerate() {
                if !ok {
                    r.findings.push(
                        AuditFinding::error(
                            CheckId::GroupConnectivity,
                            format!(
                                "group {g} is disconnected: stage {} shares no edge path \
                                 with stage {} inside the group",
                                members[k].0, members[0].0
                            ),
                        )
                        .at_stage(members[k].0),
                    );
                }
            }
        }
    }

    // Co-location claims: a colocated edge's endpoints must share a group
    // (the mask is exactly the same-group relation in this codebase) and a
    // server set (otherwise "shared memory" would cross machines).
    for e in dag.edges() {
        r.checks_run += 1;
        if !schedule.colocated[e.id.index()] {
            continue;
        }
        if schedule.group_of[e.src.index()] != schedule.group_of[e.dst.index()] {
            r.findings.push(
                AuditFinding::error(
                    CheckId::ColocationClaim,
                    format!(
                        "edge {} ({} -> {}) claims shared-memory co-location but its \
                         endpoints are in groups {} and {}",
                        e.id.0,
                        e.src.0,
                        e.dst.0,
                        schedule.group_of[e.src.index()],
                        schedule.group_of[e.dst.index()]
                    ),
                )
                .at_edge(e.id.0),
            );
            continue;
        }
        let src_servers = schedule.placement[e.src.index()].servers();
        let dst_servers = schedule.placement[e.dst.index()].servers();
        if src_servers != dst_servers {
            r.findings.push(
                AuditFinding::error(
                    CheckId::ColocationClaim,
                    format!(
                        "edge {} ({} -> {}) claims co-location but the stages run on \
                         different servers ({src_servers:?} vs {dst_servers:?})",
                        e.id.0, e.src.0, e.dst.0
                    ),
                )
                .at_edge(e.id.0),
            );
        }
    }

    r
}

// ---------------------------------------------------------------------
// Time-model sanity
// ---------------------------------------------------------------------

/// Positive/finite α and β per stage, scaling ≥ 1 — the preconditions of
/// every Algorithm-1 derivation (a negative α flips the merge ratios).
pub(crate) fn audit_model(dag: &JobDag, model: &JobTimeModel) -> AuditReport {
    let mut r = AuditReport::default();
    if dag.validate().is_err() {
        return r; // structure pass already reported
    }
    let none = model.no_colocation();
    for s in dag.stages() {
        r.checks_run += 3;
        let alpha = model.stage_alpha(dag, s.id, &none);
        let beta = model.stage_beta(dag, s.id, &none);
        if !alpha.is_finite() || alpha < 0.0 {
            r.findings.push(
                AuditFinding::error(
                    CheckId::ModelSanity,
                    format!("stage {:?} has α = {alpha}", s.name),
                )
                .at_stage(s.id.0),
            );
        } else if alpha == 0.0 {
            r.findings.push(
                AuditFinding::warning(
                    CheckId::ModelSanity,
                    format!("stage {:?} has zero parallelizable work (α = 0)", s.name),
                )
                .at_stage(s.id.0),
            );
        }
        if !beta.is_finite() || beta < 0.0 {
            r.findings.push(
                AuditFinding::error(
                    CheckId::ModelSanity,
                    format!("stage {:?} has β = {beta}", s.name),
                )
                .at_stage(s.id.0),
            );
        }
        let scale = model.scaling(s.id);
        if scale < 1.0 || !scale.is_finite() {
            r.findings.push(
                AuditFinding::error(
                    CheckId::ModelSanity,
                    format!("stage {:?} has straggler scaling {scale} (must be ≥ 1)", s.name),
                )
                .at_stage(s.id.0),
            );
        }
    }
    r
}

// ---------------------------------------------------------------------
// Placement certificates (Algorithm 3 feasibility)
// ---------------------------------------------------------------------

/// Re-count tasks per server and compare against the cluster's free
/// slots, plus the global Σ DoP ≤ max(C, #stages) budget.
pub(crate) fn audit_placement(
    dag: &JobDag,
    cluster: &ResourceManager,
    schedule: &Schedule,
) -> AuditReport {
    audit_placement_masked(dag, cluster, schedule, None)
}

/// Feasibility certificate for a *spliced* (replanned) schedule.
///
/// A mid-job replan cannot be audited with the static `audit_placement`
/// count: stages of the completed prefix have already released their
/// slots, so counting them against the replan-time free-slot snapshot
/// would double-charge the cluster. The caller supplies the `active`
/// mask — stages still holding or about to claim slots at splice time
/// (the in-flight prefix plus the replanned suffix) — and only those are
/// counted against `cluster`. Structure, grouping and co-location claims
/// are still checked for the whole schedule ([`audit_structure`]).
///
/// `cluster` must be the free-slot snapshot the replan optimized against
/// (failed servers removed, completed stages' slots returned).
pub fn audit_splice(
    dag: &JobDag,
    cluster: &ResourceManager,
    schedule: &Schedule,
    active: &[bool],
) -> AuditReport {
    let mut r = audit_structure(dag, schedule);
    if r.is_clean() {
        r.merge(audit_placement_masked(dag, cluster, schedule, Some(active)));
    }
    r
}

/// [`audit_placement`] restricted to the stages selected by `active`
/// (`None` = all stages).
fn audit_placement_masked(
    dag: &JobDag,
    cluster: &ResourceManager,
    schedule: &Schedule,
    active: Option<&[bool]>,
) -> AuditReport {
    let mut r = AuditReport::default();
    let counted = |i: usize| active.is_none_or(|m| m.get(i).copied().unwrap_or(false));
    let n = dag
        .stages()
        .iter()
        .filter(|s| counted(s.id.index()))
        .count() as u32;

    // Tasks per server, with the heaviest stage kept for provenance.
    let mut load: BTreeMap<u32, (u32, u32)> = BTreeMap::new(); // server -> (tasks, worst stage)
    let mut add = |server: ServerId, count: u32, stage: StageId| {
        let entry = load.entry(server.0).or_insert((0, stage.0));
        entry.0 += count;
        if count > 0 {
            entry.1 = stage.0;
        }
    };
    for s in dag.stages() {
        if !counted(s.id.index()) {
            continue;
        }
        let d = schedule.dop[s.id.index()];
        match &schedule.placement[s.id.index()] {
            TaskPlacement::Single(srv) => add(*srv, d, s.id),
            TaskPlacement::Spread(parts) => {
                for &(srv, c) in parts {
                    add(srv, c, s.id);
                }
            }
        }
    }

    for (&server, &(tasks, stage)) in &load {
        r.checks_run += 1;
        if server as usize >= cluster.num_servers() {
            r.findings.push(
                AuditFinding::error(
                    CheckId::SlotCapacity,
                    format!(
                        "placement names server {server} but the cluster has {}",
                        cluster.num_servers()
                    ),
                )
                .at_server(server)
                .at_stage(stage),
            );
            continue;
        }
        let free = cluster.free_on(ServerId(server));
        if tasks > free {
            r.findings.push(
                AuditFinding::error(
                    CheckId::SlotCapacity,
                    format!("server {server} hosts {tasks} tasks but had {free} free slots"),
                )
                .at_server(server)
                .at_stage(stage),
            );
        }
    }

    // §4.5 rounding keeps Σ DoP within max(C, #stages): every stage needs
    // at least one task even when C < #stages. Under a mask, both sides
    // count the selected stages only.
    r.checks_run += 1;
    let budget = cluster.total_free().max(n);
    let used: u32 = dag
        .stages()
        .iter()
        .filter(|s| counted(s.id.index()))
        .map(|s| schedule.dop[s.id.index()])
        .sum();
    if used > budget {
        r.findings.push(AuditFinding::error(
            CheckId::SlotBudget,
            format!("schedule uses {used} slots, budget is {budget} (C = {})", cluster.total_free()),
        ));
    }

    r
}

// ---------------------------------------------------------------------
// DoP-ratio certificates (Algorithm 1)
// ---------------------------------------------------------------------

/// The fractional Algorithm-1 optimum, re-derived from scratch.
///
/// JCT: collapse the DAG bottom-up with the paper's two merge rules —
/// sibling subtrees merge with `α = Σαᵢ` and split slots `dᵢ ∝ αᵢ`
/// (Eq. 4, Appendix A.2); an upstream subtree merges with its consumer
/// stage with `α = (√α_up + √α_down)²` and splits `d ∝ √α` (Eq. 3,
/// Appendix A.1). Multi-consumer stages follow the documented spanning
/// in-forest reduction: each attaches to the consumer on its heaviest
/// α-path to a sink (ties to the smaller id).
///
/// Cost: the single-path reduction `dᵢ ∝ √(ρᵢ αᵢ)` (§4.2).
pub(crate) fn derive_fractional_dops(
    dag: &JobDag,
    model: &JobTimeModel,
    colocated: &[bool],
    objective: Objective,
    c: u32,
) -> Vec<f64> {
    let n = dag.num_stages();
    let alpha: Vec<f64> = dag
        .stages()
        .iter()
        .map(|s| model.stage_alpha(dag, s.id, colocated))
        .collect();

    if objective == Objective::Cost {
        let shares: Vec<f64> = (0..n)
            .map(|i| (model.resource(StageId(i as u32)).rho * alpha[i]).sqrt())
            .collect();
        let total: f64 = shares.iter().sum();
        return if total > 0.0 {
            shares.iter().map(|s| s / total * c as f64).collect()
        } else {
            vec![c as f64 / n as f64; n]
        };
    }

    // Spanning in-forest: primary consumer = heaviest α-path to a sink.
    let order = dag.topo_order().expect("audited DAG was validated");
    let mut longest = vec![0.0_f64; n];
    for &s in order.iter().rev() {
        let best = dag
            .children_of(s)
            .map(|ch| longest[ch.index()])
            .fold(0.0_f64, f64::max);
        longest[s.index()] = alpha[s.index()] + best;
    }
    let mut feeders: Vec<Vec<StageId>> = vec![Vec::new(); n];
    for s in dag.stages() {
        let primary = dag.children_of(s.id).max_by(|&a, &b| {
            longest[a.index()]
                .total_cmp(&longest[b.index()])
                .then(b.cmp(&a)) // tie → smaller id
        });
        if let Some(p) = primary {
            feeders[p.index()].push(s.id);
        }
    }

    // Merged subtree α per stage: A[s] = (√(Σ A[feeders]) + √α_s)².
    let mut merged = vec![0.0_f64; n];
    for &s in &order {
        let up: f64 = feeders[s.index()].iter().map(|f| merged[f.index()]).sum();
        merged[s.index()] = if feeders[s.index()].is_empty() {
            alpha[s.index()]
        } else {
            (up.sqrt() + alpha[s.index()].sqrt()).powi(2)
        };
    }

    // Walk back down: sinks split C ∝ A (inter-path); inside a subtree the
    // stage takes √α_s : √(Σ A[feeders]) (intra-path) and the feeders split
    // their share ∝ A (inter-path again).
    let mut fractional = vec![0.0_f64; n];
    let sinks = dag.final_stages();
    let sink_total: f64 = sinks.iter().map(|s| merged[s.index()]).sum();
    let mut subtree_budget = vec![0.0_f64; n];
    for &s in &sinks {
        subtree_budget[s.index()] = if sink_total > 0.0 {
            c as f64 * merged[s.index()] / sink_total
        } else {
            c as f64 / sinks.len() as f64
        };
    }
    for &s in order.iter().rev() {
        let d = subtree_budget[s.index()];
        let fs = &feeders[s.index()];
        if fs.is_empty() {
            fractional[s.index()] = d;
            continue;
        }
        let up: f64 = fs.iter().map(|f| merged[f.index()]).sum();
        let (su, sd) = (up.sqrt(), alpha[s.index()].sqrt());
        let own_share = if su + sd > 0.0 { sd / (su + sd) } else { 0.5 };
        fractional[s.index()] = d * own_share;
        let up_budget = d - fractional[s.index()];
        for f in fs {
            subtree_budget[f.index()] = if up > 0.0 {
                up_budget * merged[f.index()] / up
            } else {
                up_budget / fs.len() as f64
            };
        }
    }
    fractional
}

/// Certify that `schedule.dop` is a faithful §4.5 rounding of the
/// independently re-derived fractional optimum, per stage.
///
/// The §4.5 rule is floor-then-clamp-to-1, with slots taken back from the
/// largest DoPs only when `Σ max(⌊dᵢ⌋, 1) > max(C, #stages)` (possible
/// only when C is small relative to the stage count). The certificate
/// therefore accepts `dopᵢ ∈ [max(⌊dᵢ⌋,1) − shrink, max(⌊dᵢ⌋,1)]` where
/// `shrink` is the total overshoot, widening the floor by a relative ε so
/// a last-ulp difference between this derivation and the scheduler's
/// cannot flip a certificate.
pub(crate) fn audit_ratios(
    dag: &JobDag,
    model: &JobTimeModel,
    cluster: &ResourceManager,
    schedule: &Schedule,
) -> AuditReport {
    let mut r = AuditReport::default();
    let objective = if schedule.scheduler.contains("cost") {
        Objective::Cost
    } else {
        Objective::Jct
    };
    let c = cluster.total_free().max(1);
    let n = dag.num_stages() as u32;
    let fractional = derive_fractional_dops(dag, model, &schedule.colocated, objective, c);

    let eps = |f: f64| 1e-9 * f.abs().max(1.0);
    let floor_hi = |f: f64| (((f + eps(f)).floor()) as i64).max(1);
    let floor_lo = |f: f64| (((f - eps(f)).floor()) as i64).max(1);

    let nominal: i64 = fractional.iter().map(|&f| floor_hi(f)).sum();
    let shrink = (nominal - i64::from(c.max(n))).max(0);

    for s in dag.stages() {
        r.checks_run += 1;
        let f = fractional[s.id.index()];
        let d = i64::from(schedule.dop[s.id.index()]);
        let hi = floor_hi(f);
        let lo = (floor_lo(f) - shrink).max(1);
        if d < lo || d > hi {
            let rule = match objective {
                Objective::Jct => "Eq. 3/4 merge ratios",
                Objective::Cost => "dᵢ ∝ √(ρᵢαᵢ)",
            };
            r.findings.push(
                AuditFinding::error(
                    CheckId::DopRatio,
                    format!(
                        "stage {:?} has DoP {d}, but the re-derived {rule} optimum is \
                         {f:.3} of {c} slots — certified range [{lo}, {hi}]",
                        s.name
                    ),
                )
                .at_stage(s.id.0),
            );
        }
    }

    // Subtree-level ratio certificates on the *fractional* derivation:
    // every intra-path split must satisfy d_down/d_up = √α_down/√(Σ A_up)
    // and sibling subtrees d_i/d_j = A_i/A_j. These hold by construction
    // of `derive_fractional_dops`; re-checking them here guards the
    // auditor itself against a derivation bug (a broken derivation would
    // otherwise silently certify broken schedules).
    if objective == Objective::Jct {
        r.merge(ratio_self_check(dag, model, &schedule.colocated, &fractional));
    }

    r
}

/// Verify the Eq. 3/4 ratio laws directly on a fractional DoP vector.
fn ratio_self_check(
    dag: &JobDag,
    model: &JobTimeModel,
    colocated: &[bool],
    fractional: &[f64],
) -> AuditReport {
    let mut r = AuditReport::default();
    let alpha: Vec<f64> = dag
        .stages()
        .iter()
        .map(|s| model.stage_alpha(dag, s.id, colocated))
        .collect();
    for s in dag.stages() {
        let (d, a) = (fractional[s.id.index()], alpha[s.id.index()]);
        for child in dag.children_of(s.id) {
            let (dc, ac) = (fractional[child.index()], alpha[child.index()]);
            if d <= 0.0 || dc <= 0.0 || a <= 0.0 || ac <= 0.0 {
                continue;
            }
            r.checks_run += 1;
            // Along the spanning forest the exact law is d_s/d_child =
            // √(A_s/α_child) with A the merged subtree α — which is ≥ the
            // plain √(α_s/α_child) whenever s has feeders of its own, and
            // the child may also host siblings of s. The certificate
            // therefore brackets the ratio between the two extremes
            // instead of pinning one closed form.
            let ratio = d / dc;
            let lo = (a / alpha_upper_bound(dag, &alpha, child)).sqrt() * 1e-3;
            let hi = (alpha_upper_bound(dag, &alpha, s.id) / ac).sqrt() * 1e3;
            if !(ratio >= lo && ratio <= hi && ratio.is_finite()) {
                r.findings.push(
                    AuditFinding::warning(
                        CheckId::DopRatio,
                        format!(
                            "fractional ratio d[{}]/d[{}] = {ratio:.4} escapes the \
                             Eq. 3 bracket [{lo:.4}, {hi:.4}]",
                            s.id.0, child.0
                        ),
                    )
                    .at_stage(s.id.0),
                );
            }
        }
    }
    r
}

/// Upper bound on the merged subtree α rooted at `s`: (Σ√α over all
/// stages)² caps every Eq. 3 cascade.
fn alpha_upper_bound(_dag: &JobDag, alpha: &[f64], _s: StageId) -> f64 {
    let total: f64 = alpha.iter().map(|a| a.max(0.0).sqrt()).sum();
    total * total
}

// ---------------------------------------------------------------------
// Objective-level certificates
// ---------------------------------------------------------------------

/// Deadline / cost-budget adherence on the model-predicted outcome.
fn audit_objective(
    dag: &JobDag,
    model: &JobTimeModel,
    schedule: &Schedule,
    opts: &AuditOptions,
) -> AuditReport {
    let mut r = AuditReport::default();
    if opts.deadline.is_none() && opts.cost_budget.is_none() {
        return r;
    }
    let frac: Vec<f64> = schedule.dop.iter().map(|&d| d as f64).collect();
    if let Some(deadline) = opts.deadline {
        r.checks_run += 1;
        let jct = ditto_core::predicted_jct(dag, model, &frac, &schedule.colocated);
        if jct > deadline {
            r.findings.push(AuditFinding::error(
                CheckId::Deadline,
                format!("predicted JCT {jct:.2}s exceeds the {deadline:.2}s deadline"),
            ));
        }
    }
    if let Some(budget) = opts.cost_budget {
        r.checks_run += 1;
        let cost = ditto_core::predicted_cost(dag, model, &frac, &schedule.colocated);
        if cost > budget {
            r.findings.push(AuditFinding::error(
                CheckId::CostBudget,
                format!("predicted cost {cost:.2} GB·s exceeds the {budget:.2} GB·s budget"),
            ));
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_core::{joint_optimize, JointOptions, Scheduler as _};
    use ditto_timemodel::model::RateConfig;

    fn setup() -> (JobDag, JobTimeModel, ResourceManager) {
        let dag = ditto_dag::generators::q95_shape();
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(vec![96; 8]);
        (dag, model, rm)
    }

    #[test]
    fn joint_optimize_output_is_certified() {
        let (dag, model, rm) = setup();
        for objective in [Objective::Jct, Objective::Cost] {
            let s = joint_optimize(&dag, &model, &rm, objective, &JointOptions::default());
            let report = audit(&dag, &model, &rm, &s);
            assert!(report.is_clean(), "{objective:?}:\n{}", report.render());
            assert!(report.checks_run > dag.num_stages(), "checks actually ran");
        }
    }

    #[test]
    fn fractional_derivation_matches_algorithm_one() {
        let (dag, model, rm) = setup();
        let none = model.no_colocation();
        for objective in [Objective::Jct, Objective::Cost] {
            let ours =
                derive_fractional_dops(&dag, &model, &none, objective, rm.total_free());
            let theirs =
                ditto_core::compute_dop(&dag, &model, &none, objective, rm.total_free());
            for (i, (a, b)) in ours.iter().zip(&theirs.fractional).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-6 * b.abs().max(1.0),
                    "stage {i}: audit {a} vs core {b} ({objective:?})"
                );
            }
        }
    }

    #[test]
    fn splice_audit_counts_only_active_stages() {
        let (dag, model, rm) = setup();
        let s = joint_optimize(&dag, &model, &rm, Objective::Jct, &JointOptions::default());
        let n = dag.num_stages();

        // Treat the last two stages as the replanned suffix against a
        // nearly-full cluster: the full static count would overflow, the
        // masked count must not.
        let mut active = vec![false; n];
        active[n - 1] = true;
        active[n - 2] = true;
        let masked_need: u32 = (n - 2..n).map(|i| s.dop[i]).sum();
        let tight = ResourceManager::from_free_slots(vec![masked_need; 1]);
        // Re-place the suffix onto the one-server snapshot so the masked
        // capacity check exercises the real placement path.
        let mut spliced = s.clone();
        spliced.scheduler = format!("{}+replan", s.scheduler);
        for i in n - 2..n {
            spliced.placement[i] = TaskPlacement::Single(ServerId(0));
        }
        for (e, c) in dag.edges().iter().zip(spliced.colocated.iter_mut()) {
            if *c && (active[e.src.index()] || active[e.dst.index()]) {
                *c = false;
            }
        }
        let report = audit_splice(&dag, &tight, &spliced, &active);
        assert!(report.is_clean(), "{}", report.render());

        // One fewer free slot and the masked certificate must flag it.
        let over = ResourceManager::from_free_slots(vec![masked_need - 1; 1]);
        let report = audit_splice(&dag, &over, &spliced, &active);
        assert!(!report.is_clean());
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == CheckId::SlotCapacity || f.check == CheckId::SlotBudget));
    }

    #[test]
    fn deadline_option_flags_misses() {
        let (dag, model, rm) = setup();
        let s = joint_optimize(&dag, &model, &rm, Objective::Jct, &JointOptions::default());
        let opts = AuditOptions {
            deadline: Some(1e-6), // impossible
            ..Default::default()
        };
        let report = audit_with(&dag, &model, &rm, &s, &opts);
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == CheckId::Deadline));
    }

    #[test]
    fn baseline_is_not_held_to_ratio_invariant() {
        let (dag, model, rm) = setup();
        let s = ditto_core::baselines::NimbleScheduler { seed: 7 }.schedule(
            &ditto_core::SchedulingContext {
                dag: &dag,
                model: &model,
                resources: &rm,
                objective: Objective::Jct,
            },
        );
        let report = audit(&dag, &model, &rm, &s);
        assert!(report.is_clean(), "{}", report.render());
        // But the same DoP-∝-input schedule under the joint optimizer's
        // name is held to the ratio invariant, and fails it.
        let named = Schedule {
            scheduler: "ditto-jct".into(),
            ..s
        };
        let forced = audit(&dag, &model, &rm, &named);
        assert!(forced.findings.iter().any(|f| f.check == CheckId::DopRatio));
    }
}
