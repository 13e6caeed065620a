//! Coflow tracking: groups of flows whose *collective* completion time is
//! the application-level metric (Chowdhury & Stoica's abstraction).
//!
//! An incast round, an RPC fan-out, or one reducer's shuffle are all
//! coflows: the application advances when the **last** member flow finishes,
//! so the coflow completion time (CCT), not any individual FCT, is what the
//! user experiences. [`CoflowSet`] is the bookkeeping shared by the
//! `workload` generators and `mrsim`'s Terasort shuffle.

use serde::{Deserialize, Serialize};
use simevent::{SimDuration, SimTime};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct Group {
    registered: u64,
    completed: u64,
    /// No more member flows will be registered (set by [`CoflowSet::seal`]).
    sealed: bool,
    started: SimTime,
    finished: Option<SimTime>,
}

/// Tracks open and finished coflows by numeric group id.
#[derive(Debug, Clone, Default)]
pub struct CoflowSet {
    groups: BTreeMap<u64, Group>,
}

impl CoflowSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register one member flow of coflow `group`, started at `now`. The
    /// coflow's start time is the earliest registration.
    pub fn register(&mut self, group: u64, now: SimTime) {
        let g = self.groups.entry(group).or_insert(Group {
            registered: 0,
            completed: 0,
            sealed: false,
            started: now,
            finished: None,
        });
        assert!(
            g.finished.is_none(),
            "coflow {group} already finished; cannot grow it"
        );
        g.registered += 1;
        g.started = g.started.min(now);
    }

    /// Declare that coflow `group` will receive no more members. A sealed
    /// coflow finishes the moment its last registered flow completes.
    pub fn seal(&mut self, group: u64) {
        if let Some(g) = self.groups.get_mut(&group) {
            g.sealed = true;
        }
    }

    /// Record one member completion. Returns `true` when this completion
    /// finished the (sealed) coflow.
    pub fn complete_one(&mut self, group: u64, now: SimTime) -> bool {
        let g = self
            .groups
            .get_mut(&group)
            .expect("completion for unregistered coflow");
        assert!(g.completed < g.registered, "more completions than members");
        g.completed += 1;
        if g.sealed && g.completed == g.registered && g.finished.is_none() {
            g.finished = Some(now);
            return true;
        }
        false
    }

    /// Completion time of a finished coflow.
    pub fn cct(&self, group: u64) -> Option<SimDuration> {
        let g = self.groups.get(&group)?;
        g.finished.map(|f| f.since(g.started))
    }

    /// Number of coflows ever registered.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when no coflow was ever registered.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// True when every registered coflow is sealed and finished.
    pub fn all_finished(&self) -> bool {
        self.groups.values().all(|g| g.finished.is_some())
    }

    /// Summary statistics over all finished coflows.
    pub fn summary(&self) -> CoflowSummary {
        let mut ccts_us: Vec<f64> = self
            .groups
            .values()
            .filter_map(|g| g.finished.map(|f| f.since(g.started).as_micros_f64()))
            .collect();
        ccts_us.sort_by(f64::total_cmp);
        let finished = ccts_us.len() as u64;
        let mean = if finished > 0 {
            ccts_us.iter().sum::<f64>() / finished as f64
        } else {
            0.0
        };
        CoflowSummary {
            coflows: self.groups.len() as u64,
            finished,
            cct_mean_us: mean,
            cct_max_us: ccts_us.last().copied().unwrap_or(0.0),
        }
    }
}

/// Aggregate coflow statistics of one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoflowSummary {
    /// Coflows registered.
    pub coflows: u64,
    /// Coflows that finished.
    pub finished: u64,
    /// Mean coflow completion time, microseconds.
    pub cct_mean_us: f64,
    /// Largest coflow completion time, microseconds.
    pub cct_max_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coflow_finishes_on_last_member() {
        let mut s = CoflowSet::new();
        s.register(7, SimTime::from_nanos(100));
        s.register(7, SimTime::from_nanos(50));
        s.seal(7);
        assert!(!s.complete_one(7, SimTime::from_nanos(500)));
        assert_eq!(s.cct(7), None, "one member still running");
        assert!(s.complete_one(7, SimTime::from_nanos(900)));
        // CCT spans earliest registration to last completion.
        assert_eq!(s.cct(7), Some(SimDuration::from_nanos(850)));
        assert!(s.all_finished());
    }

    #[test]
    fn unsealed_coflow_never_finishes() {
        let mut s = CoflowSet::new();
        s.register(1, SimTime::ZERO);
        assert!(!s.complete_one(1, SimTime::from_nanos(10)));
        assert!(!s.all_finished());
        s.seal(1);
        assert!(!s.all_finished(), "sealing alone does not finish");
        s.register(1, SimTime::from_nanos(20));
        assert!(s.complete_one(1, SimTime::from_nanos(30)));
    }

    #[test]
    fn summary_over_finished_groups() {
        let mut s = CoflowSet::new();
        for g in 0..3u64 {
            s.register(g, SimTime::ZERO);
            s.seal(g);
        }
        s.complete_one(0, SimTime::from_micros(10));
        s.complete_one(1, SimTime::from_micros(30));
        let sum = s.summary();
        assert_eq!(sum.coflows, 3);
        assert_eq!(sum.finished, 2);
        assert_eq!(sum.cct_mean_us, 20.0);
        assert_eq!(sum.cct_max_us, 30.0);
        assert!(!s.all_finished());
    }

    #[test]
    fn empty_set() {
        let s = CoflowSet::new();
        assert!(s.is_empty());
        assert!(s.all_finished(), "vacuously true");
        assert_eq!(s.summary().coflows, 0);
    }
}
