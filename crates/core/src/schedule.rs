//! The scheduler's output: DoPs, stage groups, and task placement.

use ditto_cluster::ServerId;
use ditto_dag::{JobDag, StageId};

/// Where the tasks of one stage run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskPlacement {
    /// All tasks on a single server (the stage belongs to a co-located
    /// stage group, or a singleton that happened to fit one server).
    Single(ServerId),
    /// Tasks spread over servers: `(server, task_count)` in task order —
    /// tasks `0..c₀` on the first server, the next `c₁` on the second, …
    Spread(Vec<(ServerId, u32)>),
}

impl TaskPlacement {
    /// The server the `task`-th task (0-based) runs on.
    ///
    /// # Panics
    /// Panics if `task` is beyond the placed task count.
    pub fn server_of_task(&self, task: u32) -> ServerId {
        match self {
            TaskPlacement::Single(s) => *s,
            TaskPlacement::Spread(parts) => {
                let mut t = task;
                for &(server, count) in parts {
                    if t < count {
                        return server;
                    }
                    t -= count;
                }
                panic!("task index {task} beyond placement {parts:?}");
            }
        }
    }

    /// Distinct servers used.
    pub fn servers(&self) -> Vec<ServerId> {
        match self {
            TaskPlacement::Single(s) => vec![*s],
            TaskPlacement::Spread(parts) => {
                let mut v: Vec<ServerId> = parts.iter().map(|&(s, _)| s).collect();
                v.sort_unstable();
                v.dedup();
                v
            }
        }
    }
}

/// A complete scheduling decision for one job.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Name of the scheduler that produced this (for traces and figures).
    pub scheduler: String,
    /// Degree of parallelism per stage, ≥ 1.
    pub dop: Vec<u32>,
    /// Stage groups (singletons included), sorted by representative.
    pub groups: Vec<Vec<StageId>>,
    /// Group index per stage, aligned with `groups`.
    pub group_of: Vec<usize>,
    /// Per-edge co-location: `true` iff the edge's endpoints share a group
    /// *and* the placement realizes the co-location (same server per task
    /// pair), so the edge's I/O uses zero-copy shared memory.
    pub colocated: Vec<bool>,
    /// Placement of every stage's tasks.
    pub placement: Vec<TaskPlacement>,
}

impl Schedule {
    /// Total function slots the schedule occupies (Σ DoP).
    pub fn total_slots(&self) -> u32 {
        self.dop.iter().sum()
    }

    /// Sanity-check the schedule against its DAG: every stage has a DoP
    /// ≥ 1 and a placement covering its tasks; colocated edges join stages
    /// of the same group. Returns a human-readable violation if any.
    pub fn validate(&self, dag: &JobDag) -> Result<(), String> {
        if self.dop.len() != dag.num_stages() {
            return Err(format!(
                "dop length {} != stage count {}",
                self.dop.len(),
                dag.num_stages()
            ));
        }
        if self.placement.len() != dag.num_stages() {
            return Err("placement length mismatch".into());
        }
        if self.colocated.len() != dag.num_edges() {
            return Err("colocated mask length mismatch".into());
        }
        for s in dag.stages() {
            let d = self.dop[s.id.index()];
            if d == 0 {
                return Err(format!("stage {} has DoP 0", s.name));
            }
            if let TaskPlacement::Spread(parts) = &self.placement[s.id.index()] {
                let covered: u32 = parts.iter().map(|&(_, c)| c).sum();
                if covered != d {
                    return Err(format!(
                        "stage {} places {covered} tasks but DoP is {d}",
                        s.name
                    ));
                }
            }
        }
        for e in dag.edges() {
            if self.colocated[e.id.index()]
                && self.group_of[e.src.index()] != self.group_of[e.dst.index()]
            {
                return Err(format!(
                    "edge {} marked colocated but endpoints in different groups",
                    e.id
                ));
            }
        }
        Ok(())
    }

    /// Splice a replanned schedule into this one: stages in the `suffix`
    /// mask take the replanned DoP and placement, everything else keeps the
    /// original decision. Edges crossing the prefix/suffix boundary are
    /// conservatively treated as external (not co-located), since the two
    /// halves were placed by different optimizer runs and any co-location
    /// claim across the seam is unverified. Groups are rebuilt from the
    /// surviving co-location mask (connected components over colocated
    /// edges), so the spliced schedule stays self-consistent under
    /// [`Schedule::validate`] and the auditor's co-location certificate.
    /// The scheduler name gains a `+replan` suffix so downstream consumers
    /// (audits, figures) can tell a spliced schedule apart.
    ///
    /// # Panics
    /// Panics if `suffix.len() != dag.num_stages()` or the two schedules
    /// do not both cover `dag`.
    pub fn splice(&self, dag: &JobDag, replanned: &Schedule, suffix: &[bool]) -> Schedule {
        let n = dag.num_stages();
        assert_eq!(suffix.len(), n, "suffix mask must cover every stage");
        let mut dop = self.dop.clone();
        let mut placement = self.placement.clone();
        for i in 0..n {
            if suffix[i] {
                dop[i] = replanned.dop[i];
                placement[i] = replanned.placement[i].clone();
            }
        }
        let colocated: Vec<bool> = dag
            .edges()
            .iter()
            .map(|e| match (suffix[e.src.index()], suffix[e.dst.index()]) {
                (true, true) => replanned.colocated[e.id.index()],
                (false, false) => self.colocated[e.id.index()],
                _ => false,
            })
            .collect();
        // Rebuild groups as connected components over the surviving
        // colocated edges (union-find with path halving).
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for e in dag.edges() {
            if colocated[e.id.index()] {
                let (a, b) = (
                    find(&mut parent, e.src.index()),
                    find(&mut parent, e.dst.index()),
                );
                if a != b {
                    parent[a.max(b)] = a.min(b);
                }
            }
        }
        let mut groups: Vec<Vec<StageId>> = Vec::new();
        let mut group_of = vec![usize::MAX; n];
        for i in 0..n {
            let root = find(&mut parent, i);
            if group_of[root] == usize::MAX {
                group_of[root] = groups.len();
                groups.push(Vec::new());
            }
            group_of[i] = group_of[root];
            groups[group_of[i]].push(StageId(i as u32));
        }
        Schedule {
            scheduler: format!("{}+replan", self.scheduler),
            dop,
            groups,
            group_of,
            colocated,
            placement,
        }
    }

    /// Human-readable description for examples and traces.
    pub fn describe(&self, dag: &JobDag) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "schedule by {} ({} slots):", self.scheduler, self.total_slots());
        for g in &self.groups {
            let names: Vec<&str> = g.iter().map(|&s| dag.stage(s).name.as_str()).collect();
            let dops: Vec<u32> = g.iter().map(|&s| self.dop[s.index()]).collect();
            let place = match &self.placement[g[0].index()] {
                TaskPlacement::Single(srv) => format!("{srv}"),
                TaskPlacement::Spread(p) => format!("{} servers", p.len()),
            };
            let _ = writeln!(out, "  group [{}] dop={dops:?} @ {place}", names.join(", "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_of_task_spread() {
        let p = TaskPlacement::Spread(vec![(ServerId(0), 2), (ServerId(3), 3)]);
        assert_eq!(p.server_of_task(0), ServerId(0));
        assert_eq!(p.server_of_task(1), ServerId(0));
        assert_eq!(p.server_of_task(2), ServerId(3));
        assert_eq!(p.server_of_task(4), ServerId(3));
        assert_eq!(p.servers(), vec![ServerId(0), ServerId(3)]);
    }

    #[test]
    #[should_panic(expected = "beyond placement")]
    fn server_of_task_out_of_range() {
        TaskPlacement::Spread(vec![(ServerId(0), 1)]).server_of_task(1);
    }

    #[test]
    fn single_placement() {
        let p = TaskPlacement::Single(ServerId(2));
        assert_eq!(p.server_of_task(99), ServerId(2));
        assert_eq!(p.servers(), vec![ServerId(2)]);
    }

    #[test]
    fn splice_takes_suffix_and_drops_boundary_colocation() {
        let dag = ditto_dag::generators::fig1_join();
        let orig = Schedule {
            scheduler: "ditto-jct".into(),
            dop: vec![4, 2, 2],
            groups: vec![vec![StageId(0), StageId(2)], vec![StageId(1)]],
            group_of: vec![0, 1, 0],
            colocated: vec![true, false],
            placement: vec![
                TaskPlacement::Single(ServerId(0)),
                TaskPlacement::Single(ServerId(1)),
                TaskPlacement::Single(ServerId(0)),
            ],
        };
        let replanned = Schedule {
            scheduler: "ditto-jct".into(),
            dop: vec![8, 6, 5],
            groups: vec![vec![StageId(0)], vec![StageId(1)], vec![StageId(2)]],
            group_of: vec![0, 1, 2],
            colocated: vec![false, false],
            placement: vec![
                TaskPlacement::Single(ServerId(1)),
                TaskPlacement::Single(ServerId(1)),
                TaskPlacement::Spread(vec![(ServerId(1), 5)]),
            ],
        };
        // Suffix = final stage only. Edge 0 (s0→s2) crosses the boundary.
        let spliced = orig.splice(&dag, &replanned, &[false, false, true]);
        assert_eq!(spliced.scheduler, "ditto-jct+replan");
        assert_eq!(spliced.dop, vec![4, 2, 5]);
        assert_eq!(spliced.placement[0], TaskPlacement::Single(ServerId(0)));
        assert_eq!(
            spliced.placement[2],
            TaskPlacement::Spread(vec![(ServerId(1), 5)])
        );
        assert_eq!(
            spliced.colocated,
            vec![false, false],
            "boundary edge must lose its co-location claim"
        );
        assert!(spliced.validate(&dag).is_ok());
        // Empty suffix keeps every decision, and the surviving colocated
        // edge (s0→s2) regroups its endpoints so validate stays clean.
        let same = orig.splice(&dag, &replanned, &[false, false, false]);
        assert_eq!(same.dop, orig.dop);
        assert_eq!(same.placement, orig.placement);
        assert_eq!(same.colocated, orig.colocated);
        assert_eq!(same.group_of[0], same.group_of[2]);
        assert_ne!(same.group_of[0], same.group_of[1]);
        assert!(same.validate(&dag).is_ok());
        // Full suffix is the replanned schedule.
        let full = orig.splice(&dag, &replanned, &[true, true, true]);
        assert_eq!(full.dop, replanned.dop);
        assert_eq!(full.colocated, replanned.colocated);
    }

    #[test]
    fn validate_catches_mismatches() {
        let dag = ditto_dag::generators::fig1_join();
        let good = Schedule {
            scheduler: "test".into(),
            dop: vec![2, 1, 1],
            groups: vec![vec![StageId(0)], vec![StageId(1)], vec![StageId(2)]],
            group_of: vec![0, 1, 2],
            colocated: vec![false, false],
            placement: vec![
                TaskPlacement::Spread(vec![(ServerId(0), 2)]),
                TaskPlacement::Single(ServerId(0)),
                TaskPlacement::Single(ServerId(1)),
            ],
        };
        assert!(good.validate(&dag).is_ok());
        assert_eq!(good.total_slots(), 4);

        let mut bad = good.clone();
        bad.dop[1] = 0;
        assert!(bad.validate(&dag).is_err());

        let mut bad = good.clone();
        bad.placement[0] = TaskPlacement::Spread(vec![(ServerId(0), 1)]);
        assert!(bad.validate(&dag).unwrap_err().contains("places 1 tasks"));

        let mut bad = good.clone();
        bad.colocated[0] = true; // groups differ
        assert!(bad.validate(&dag).is_err());

        let desc = good.describe(&dag);
        assert!(desc.contains("map1"));
        assert!(desc.contains("test"));
    }
}
