//! Merged half-open interval set — the sender-side SACK scoreboard.

use std::collections::BTreeMap;

/// A set of disjoint, merged, half-open `[start, end)` intervals over the
/// sequence space.
#[derive(Debug, Clone, Default)]
pub struct IntervalSet {
    map: BTreeMap<u64, u64>,
}

impl IntervalSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert `[start, end)`, merging with any overlapping or adjacent
    /// intervals. Empty ranges are ignored.
    pub fn insert(&mut self, mut start: u64, mut end: u64) {
        if start >= end {
            return;
        }
        let mut to_remove = Vec::new();
        if let Some((&s, &e)) = self.map.range(..=start).next_back() {
            if e >= start {
                start = s.min(start);
                end = e.max(end);
                to_remove.push(s);
            }
        }
        for (&s, &e) in self.map.range(start..) {
            if s > end {
                break;
            }
            end = end.max(e);
            to_remove.push(s);
        }
        for s in to_remove {
            self.map.remove(&s);
        }
        self.map.insert(start, end);
    }

    /// Remove everything below `x` (cumulative ACK advanced past it).
    pub fn prune_below(&mut self, x: u64) {
        let below: Vec<u64> = self.map.range(..x).map(|(&s, _)| s).collect();
        for s in below {
            if let Some(e) = self.map.remove(&s) {
                if e > x {
                    self.map.insert(x, e);
                }
            }
        }
    }

    /// Is `x` inside some interval?
    pub fn contains(&self, x: u64) -> bool {
        self.map
            .range(..=x)
            .next_back()
            .is_some_and(|(_, &e)| e > x)
    }

    /// The first position at or after `from` NOT covered by any interval.
    pub fn first_uncovered(&self, from: u64) -> u64 {
        let mut x = from;
        while let Some((_, &e)) = self.map.range(..=x).next_back().filter(|(_, &e)| e > x) {
            x = e;
        }
        x
    }

    /// Start of the next interval strictly after `x`, if any — i.e. where the
    /// current hole ends.
    pub fn next_covered_after(&self, x: u64) -> Option<u64> {
        self.map.range((x + 1)..).next().map(|(&s, _)| s)
    }

    /// The highest covered position, if any (end of the last interval).
    pub fn max_covered(&self) -> Option<u64> {
        self.map.iter().next_back().map(|(_, &e)| e)
    }

    /// Number of disjoint intervals.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is covered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intervals(s: &IntervalSet) -> Vec<(u64, u64)> {
        s.map.iter().map(|(&a, &b)| (a, b)).collect()
    }

    #[test]
    fn insert_merges_overlaps_and_adjacency() {
        let mut s = IntervalSet::new();
        s.insert(10, 20);
        s.insert(30, 40);
        assert_eq!(s.len(), 2);
        s.insert(20, 30); // bridges
        assert_eq!(intervals(&s), [(10, 40)]);
        s.insert(5, 12); // overlap left
        assert_eq!(intervals(&s), [(5, 40)]);
        s.insert(38, 45); // overlap right
        assert_eq!(intervals(&s), [(5, 45)]);
    }

    #[test]
    fn empty_ranges_ignored() {
        let mut s = IntervalSet::new();
        s.insert(5, 5);
        s.insert(7, 3);
        assert!(s.is_empty());
    }

    #[test]
    fn contains_and_boundaries() {
        let mut s = IntervalSet::new();
        s.insert(10, 20);
        assert!(!s.contains(9));
        assert!(s.contains(10));
        assert!(s.contains(19));
        assert!(!s.contains(20));
    }

    #[test]
    fn first_uncovered_skips_islands() {
        let mut s = IntervalSet::new();
        s.insert(10, 20);
        s.insert(20, 25); // merged: [10,25)
        s.insert(30, 40);
        assert_eq!(s.first_uncovered(0), 0);
        assert_eq!(s.first_uncovered(10), 25);
        assert_eq!(s.first_uncovered(24), 25);
        assert_eq!(s.first_uncovered(25), 25);
        assert_eq!(s.first_uncovered(35), 40);
    }

    #[test]
    fn next_covered_after_finds_hole_end() {
        let mut s = IntervalSet::new();
        s.insert(10, 20);
        s.insert(30, 40);
        assert_eq!(s.next_covered_after(0), Some(10));
        assert_eq!(s.next_covered_after(20), Some(30));
        assert_eq!(
            s.next_covered_after(30),
            None,
            "strictly after 30 there is no new start"
        );
        assert_eq!(s.next_covered_after(40), None);
    }

    #[test]
    fn prune_below_trims_and_splits() {
        let mut s = IntervalSet::new();
        s.insert(10, 20);
        s.insert(30, 40);
        s.prune_below(15);
        assert!(!s.contains(10));
        assert!(s.contains(15) && s.contains(19));
        assert_eq!(intervals(&s), [(15, 20), (30, 40)]);
        s.prune_below(100);
        assert!(s.is_empty());
    }

    #[test]
    fn max_covered_tracks_top() {
        let mut s = IntervalSet::new();
        assert_eq!(s.max_covered(), None);
        s.insert(10, 20);
        s.insert(40, 50);
        assert_eq!(s.max_covered(), Some(50));
    }

    #[test]
    fn clear_resets() {
        let mut s = IntervalSet::new();
        s.insert(1, 5);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(intervals(&s), []);
    }
}
