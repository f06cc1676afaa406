//! Iteration-space walking.
//!
//! [`IterSpace`] enumerates the points of a [`LoopNest`]'s iteration space in
//! lexicographic (execution) order — the "relative time order of the
//! accesses" the paper's Fig. 1 visualizes. It is the workhorse behind trace
//! generation and the simulation-based validation of the analytical model.

use crate::nest::{Loop, LoopNest};

/// Iterator over all points of a loop nest's iteration space in execution
/// order. Each item is the vector of iterator values, outermost first.
///
/// # Examples
///
/// ```
/// use datareuse_loopir::{IterSpace, Loop, LoopNest};
///
/// let nest = LoopNest::new([Loop::new("i", 0, 1), Loop::new("j", 0, 2)], []);
/// let points: Vec<Vec<i64>> = IterSpace::new(&nest).collect();
/// assert_eq!(points.len(), 6);
/// assert_eq!(points[0], vec![0, 0]);
/// assert_eq!(points[3], vec![1, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct IterSpace<'a> {
    loops: &'a [Loop],
    current: Vec<i64>,
    done: bool,
}

impl<'a> IterSpace<'a> {
    /// Creates a walker over `nest`'s iteration space.
    pub fn new(nest: &'a LoopNest) -> Self {
        Self::over(nest.loops())
    }

    /// Creates a walker over an explicit loop list (outermost first).
    pub fn over(loops: &'a [Loop]) -> Self {
        let current: Vec<i64> = loops.iter().map(Loop::lower).collect();
        Self {
            loops,
            current,
            done: loops.is_empty(),
        }
    }

    /// Total number of points (without iterating).
    pub fn len(&self) -> u64 {
        self.loops.iter().map(Loop::trip_count).product()
    }

    /// True when the space has no points (no loops).
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Visits the remaining points in execution order through one reused
    /// buffer — the allocation-free walk for callers that only inspect
    /// each point (the [`Iterator`] impl allocates one `Vec` per point).
    ///
    /// # Examples
    ///
    /// ```
    /// use datareuse_loopir::{IterSpace, Loop};
    ///
    /// let loops = [Loop::new("i", 0, 3), Loop::new("j", 0, 3)];
    /// let mut diagonal = 0;
    /// IterSpace::over(&loops).for_each_point(|p| diagonal += usize::from(p[0] == p[1]));
    /// assert_eq!(diagonal, 4);
    /// ```
    pub fn for_each_point(mut self, mut f: impl FnMut(&[i64])) {
        while !self.done {
            f(&self.current);
            self.advance();
        }
    }

    fn advance(&mut self) {
        for depth in (0..self.loops.len()).rev() {
            let l = &self.loops[depth];
            let next = self.current[depth] + l.step();
            if next <= l.upper() {
                self.current[depth] = next;
                return;
            }
            self.current[depth] = l.lower();
        }
        self.done = true;
    }
}

impl Iterator for IterSpace<'_> {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let point = self.current.clone();
        self.advance();
        Some(point)
    }
}

/// Computes the lexicographic rank of an iteration point: the number of
/// points executed strictly before it. This is the scalar "time instance
/// t(j,k)" used in the paper's copy-candidate occupancy argument
/// (Section 6.1).
///
/// # Panics
///
/// Panics (in debug builds) if `point` does not lie on the loop grid.
pub fn time_of(loops: &[Loop], point: &[i64]) -> u64 {
    debug_assert_eq!(loops.len(), point.len());
    let mut time: u64 = 0;
    for (l, &v) in loops.iter().zip(point) {
        debug_assert!(v >= l.lower() && v <= l.upper() && (v - l.lower()) % l.step() == 0);
        let ordinal = ((v - l.lower()) / l.step()) as u64;
        time = time * l.trip_count() + ordinal;
    }
    time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::LoopNest;

    #[test]
    fn walks_in_lexicographic_order() {
        let nest = LoopNest::new([Loop::new("a", 1, 2), Loop::new("b", 0, 1)], []);
        let pts: Vec<_> = IterSpace::new(&nest).collect();
        assert_eq!(pts, vec![vec![1, 0], vec![1, 1], vec![2, 0], vec![2, 1]]);
    }

    #[test]
    fn respects_steps() {
        let loops = [Loop::with_step("i", 0, 6, 3)];
        let pts: Vec<_> = IterSpace::over(&loops).collect();
        assert_eq!(pts, vec![vec![0], vec![3], vec![6]]);
    }

    #[test]
    fn len_matches_enumeration() {
        let loops = [
            Loop::new("i", -2, 2),
            Loop::with_step("j", 0, 9, 2),
            Loop::new("k", 5, 5),
        ];
        let walker = IterSpace::over(&loops);
        assert_eq!(walker.len(), 25);
        assert_eq!(walker.count(), 25);
    }

    #[test]
    fn for_each_point_visits_what_the_iterator_yields() {
        let loops = [Loop::with_step("i", -3, 4, 3), Loop::new("j", 2, 4)];
        let mut visited = Vec::new();
        IterSpace::over(&loops).for_each_point(|p| visited.push(p.to_vec()));
        assert_eq!(visited, IterSpace::over(&loops).collect::<Vec<_>>());
        let mut empty = 0;
        IterSpace::over(&[]).for_each_point(|_| empty += 1);
        assert_eq!(empty, 0);
    }

    #[test]
    fn empty_space_for_no_loops() {
        let nest = LoopNest::new([], []);
        assert_eq!(IterSpace::new(&nest).count(), 0);
        assert!(IterSpace::new(&nest).is_empty());
    }

    #[test]
    fn time_of_ranks_points() {
        let loops = [Loop::new("i", 0, 2), Loop::new("j", 0, 3)];
        for (t, p) in IterSpace::over(&loops).enumerate() {
            assert_eq!(time_of(&loops, &p), t as u64);
        }
    }
}
