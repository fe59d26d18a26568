//! The restricted neighbour view.
//!
//! A finite-state node with unbounded degree "cannot even count its
//! neighbours" (Section 1). Everything it *can* learn about the neighbour
//! multiset is captured by mod atoms and thresh atoms (Theorem 3.7), so
//! this is exactly — and only — what [`NeighborView`] exposes. Protocols
//! written against this API are SM functions of the neighbour multiset by
//! construction.
//!
//! The engine itself holds the true multiplicity vector (it is a
//! simulator, not a node), and an optional [`QueryRecorder`] notes the
//! largest threshold and the lcm of moduli used per state — the data
//! needed to compile the protocol into a mod-thresh program
//! (see [`crate::compile`]).

use std::cell::RefCell;
use std::marker::PhantomData;

use crate::protocol::StateSpace;

/// Records which finite-state queries a protocol performs, per state id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryRecorder {
    /// Per-state max `t` over all `μ >= t` / `μ < t` queries (at least 1).
    pub thresholds: Vec<u64>,
    /// Per-state lcm of all moduli queried (at least 1).
    pub moduli: Vec<u64>,
}

impl QueryRecorder {
    /// A fresh recorder for an alphabet of `s` states.
    pub fn new(s: usize) -> Self {
        Self {
            thresholds: vec![1; s],
            moduli: vec![1; s],
        }
    }

    fn record_thresh(&mut self, q: usize, t: u64) {
        self.thresholds[q] = self.thresholds[q].max(t);
    }

    fn record_mod(&mut self, q: usize, m: u64) {
        self.moduli[q] = fssga_core::modthresh::lcm(self.moduli[q], m);
    }

    /// Merges another recorder's observations into this one.
    pub fn merge(&mut self, other: &QueryRecorder) {
        for q in 0..self.thresholds.len() {
            self.thresholds[q] = self.thresholds[q].max(other.thresholds[q]);
            self.moduli[q] = fssga_core::modthresh::lcm(self.moduli[q], other.moduli[q]);
        }
    }

    /// Whether this recorder's observations are all covered by `other`:
    /// every threshold is no larger and every modulus divides. This is the
    /// fixed-point test abstract interpreters need ("did this probe learn
    /// anything new?").
    pub fn subsumed_by(&self, other: &QueryRecorder) -> bool {
        self.thresholds.len() == other.thresholds.len()
            && (0..self.thresholds.len()).all(|q| {
                self.thresholds[q] <= other.thresholds[q]
                    && other.moduli[q].is_multiple_of(self.moduli[q])
            })
    }
}

/// How the multiplicity vector is stored behind a view.
///
/// The dense form is the classic length-`|Q|` vector (with an optional
/// list of its nonzero indices). The sparse form stores only the nonzero
/// entries as parallel `(index, count)` arrays in ascending index order —
/// the run-length encoding the kernel produces per row, where
/// materializing a `|Q|`-length scratch vector per activation would cost
/// more than the row itself.
enum CountsRepr<'a> {
    Dense {
        counts: &'a [u32],
        /// Indices with nonzero count, when the engine already knows them
        /// (the activation tally's touched-list). Lets
        /// [`NeighborView::present_states`] run in O(distinct states)
        /// instead of O(|Q|) — essential for product-state protocols with
        /// tens of thousands of states.
        presence: Option<&'a [u32]>,
    },
    Sparse {
        /// Nonzero state indices, strictly ascending.
        idx: &'a [u32],
        /// `cnt[i]` is the multiplicity of state `idx[i]`; all nonzero.
        cnt: &'a [u32],
    },
}

/// A symmetric, finite-state view of a neighbour multiset.
///
/// All methods are functions of the multiplicity vector only, and each is
/// realizable by a finite boolean combination of mod/thresh atoms — the
/// doc comment of every method names the realization.
pub struct NeighborView<'a, S: StateSpace> {
    repr: CountsRepr<'a>,
    recorder: Option<&'a RefCell<QueryRecorder>>,
    _ph: PhantomData<S>,
}

impl<'a, S: StateSpace> NeighborView<'a, S> {
    /// Engine-internal constructor. `counts` has length `S::COUNT`;
    /// `presence`, if given, lists exactly the indices with nonzero count
    /// in ascending order — the canonical [`Self::present_states`]
    /// iteration order.
    pub(crate) fn new_with_presence(
        counts: &'a [u32],
        presence: Option<&'a [u32]>,
        recorder: Option<&'a RefCell<QueryRecorder>>,
    ) -> Self {
        debug_assert_eq!(counts.len(), S::COUNT);
        debug_assert!(
            presence.is_none_or(|p| p.windows(2).all(|w| w[0] < w[1])),
            "presence list must be strictly ascending"
        );
        Self {
            repr: CountsRepr::Dense { counts, presence },
            recorder,
            _ph: PhantomData,
        }
    }

    /// Engine-internal constructor over a run-length-encoded multiset:
    /// `idx` lists the nonzero state indices in strictly ascending order
    /// and `cnt` the matching multiplicities. This is what the kernel
    /// builds per row — no `|Q|`-length scratch involved.
    pub(crate) fn new_sparse(
        idx: &'a [u32],
        cnt: &'a [u32],
        recorder: Option<&'a RefCell<QueryRecorder>>,
    ) -> Self {
        debug_assert_eq!(idx.len(), cnt.len());
        debug_assert!(
            idx.windows(2).all(|w| w[0] < w[1]),
            "sparse indices must be strictly ascending"
        );
        debug_assert!(
            idx.iter().all(|&i| (i as usize) < S::COUNT),
            "sparse index out of alphabet range"
        );
        debug_assert!(
            cnt.iter().all(|&c| c > 0),
            "sparse entries must have nonzero multiplicity"
        );
        Self {
            repr: CountsRepr::Sparse { idx, cnt },
            recorder,
            _ph: PhantomData,
        }
    }

    /// The multiplicity of state index `i`, under either representation.
    /// Sparse lookup is a binary search over the (tiny, degree-bounded)
    /// nonzero list.
    #[inline]
    fn count_of(&self, i: usize) -> u32 {
        match &self.repr {
            CountsRepr::Dense { counts, .. } => counts[i],
            CountsRepr::Sparse { idx, cnt } => match idx.binary_search(&(i as u32)) {
                Ok(p) => cnt[p],
                Err(_) => 0,
            },
        }
    }

    /// Engine-internal constructor. `counts` has length `S::COUNT`.
    pub(crate) fn new(counts: &'a [u32], recorder: Option<&'a RefCell<QueryRecorder>>) -> Self {
        Self::new_with_presence(counts, None, recorder)
    }

    /// Builds a view over an explicit multiplicity vector — useful in
    /// protocol unit tests, which can then exercise a transition function
    /// without a graph.
    pub fn over(counts: &'a [u32]) -> Self {
        assert_eq!(counts.len(), S::COUNT);
        Self {
            repr: CountsRepr::Dense {
                counts,
                presence: None,
            },
            recorder: None,
            _ph: PhantomData,
        }
    }

    /// Like [`Self::over`], but with an attached [`QueryRecorder`] —
    /// the hook external analyses (`fssga-analysis`) use to observe which
    /// mod/thresh atoms a transition function touches on a given
    /// multiplicity vector, without driving a whole network.
    pub fn over_recorded(counts: &'a [u32], recorder: &'a RefCell<QueryRecorder>) -> Self {
        assert_eq!(counts.len(), S::COUNT);
        assert_eq!(recorder.borrow().thresholds.len(), S::COUNT);
        Self {
            repr: CountsRepr::Dense {
                counts,
                presence: None,
            },
            recorder: Some(recorder),
            _ph: PhantomData,
        }
    }

    /// Like [`Self::over_recorded`], but the caller also supplies the
    /// nonzero-index list, so [`Self::present_states`] runs in O(distinct
    /// states) rather than O(`S::COUNT`). External exhaustive drivers
    /// (`fssga-verify`) need this for product-state protocols whose
    /// alphabet runs to tens of thousands of states.
    ///
    /// `presence` must list exactly the indices with nonzero count;
    /// this is debug-asserted.
    pub fn over_sparse(
        counts: &'a [u32],
        presence: &'a [u32],
        recorder: Option<&'a RefCell<QueryRecorder>>,
    ) -> Self {
        assert_eq!(counts.len(), S::COUNT);
        debug_assert!(
            presence.iter().all(|&i| counts[i as usize] > 0),
            "presence list may only name nonzero indices"
        );
        debug_assert!(
            presence.windows(2).all(|w| w[0] < w[1]),
            "presence list must be strictly ascending"
        );
        // The exhaustive (exactly-the-nonzero-set) check is O(|Q|) per
        // view; only affordable for small alphabets, and hot callers
        // construct one view per transition.
        debug_assert!(
            S::COUNT > 4096 || counts.iter().filter(|&&c| c > 0).count() == presence.len(),
            "presence list must be exactly the nonzero indices"
        );
        if let Some(rec) = recorder {
            assert_eq!(rec.borrow().thresholds.len(), S::COUNT);
        }
        Self {
            repr: CountsRepr::Dense {
                counts,
                presence: Some(presence),
            },
            recorder,
            _ph: PhantomData,
        }
    }

    /// `μ_q >= t` — the negated thresh atom `¬(μ_q < t)`. `t >= 1`.
    pub fn at_least(&self, q: S, t: u32) -> bool {
        assert!(t >= 1, "thresh atoms need t >= 1");
        if let Some(rec) = self.recorder {
            rec.borrow_mut().record_thresh(q.index(), t as u64);
        }
        self.count_of(q.index()) >= t
    }

    /// `μ_q < t` — a thresh atom. `t >= 1`.
    pub fn fewer_than(&self, q: S, t: u32) -> bool {
        !self.at_least(q, t)
    }

    /// Some neighbour is in state `q`: `μ_q >= 1`.
    pub fn some(&self, q: S) -> bool {
        self.at_least(q, 1)
    }

    /// No neighbour is in state `q`: `μ_q < 1`.
    pub fn none(&self, q: S) -> bool {
        !self.some(q)
    }

    /// Exactly one neighbour is in state `q`: `μ_q >= 1 ∧ ¬(μ_q >= 2)`.
    pub fn exactly_one(&self, q: S) -> bool {
        self.at_least(q, 1) && !self.at_least(q, 2)
    }

    /// `min(μ_q, cap)` — realizable from the thresh atoms `μ_q < t` for
    /// `t = 1..=cap`.
    pub fn count_capped(&self, q: S, cap: u32) -> u32 {
        assert!(cap >= 1);
        if let Some(rec) = self.recorder {
            rec.borrow_mut().record_thresh(q.index(), cap as u64);
        }
        self.count_of(q.index()).min(cap)
    }

    /// `μ_q mod m` — realizable from the mod atoms `μ_q ≡ r (mod m)`,
    /// `r = 0..m`. `m >= 1`.
    pub fn count_mod(&self, q: S, m: u32) -> u32 {
        assert!(m >= 1, "mod atoms need m >= 1");
        if let Some(rec) = self.recorder {
            rec.borrow_mut().record_mod(q.index(), m as u64);
        }
        self.count_of(q.index()) % m
    }

    /// `μ_q ≡ r (mod m)` — a mod atom.
    pub fn congruent(&self, q: S, r: u32, m: u32) -> bool {
        self.count_mod(q, m) == r
    }

    /// Whether the total degree is at least `t`. Realizable as a finite
    /// disjunction over compositions: e.g. `deg >= 2` is
    /// `∨_q (μ_q >= 2) ∨ ∨_{q<q'} (μ_q >= 1 ∧ μ_{q'} >= 1)`. Since the
    /// realization touches every state, the recorder notes threshold `t`
    /// on all of them.
    pub fn degree_at_least(&self, t: u32) -> bool {
        assert!(t >= 1);
        if let Some(rec) = self.recorder {
            let mut rec = rec.borrow_mut();
            for q in 0..S::COUNT {
                rec.record_thresh(q, t as u64);
            }
        }
        let multiplicities: &[u32] = match &self.repr {
            CountsRepr::Dense { counts, .. } => counts,
            CountsRepr::Sparse { cnt, .. } => cnt,
        };
        let mut total = 0u64;
        for &c in multiplicities {
            total += c as u64;
            if total >= t as u64 {
                return true;
            }
        }
        false
    }

    /// Iterates over the states that occur at least once among the
    /// neighbours (a sequence of `μ_q >= 1` queries — still symmetric).
    ///
    /// Every engine-internal constructor supplies the presence list in
    /// ascending state-index order, so iteration order is canonical and
    /// identical across the interpreter, the compiled kernel (fresh or
    /// incrementally repaired), the sharded backend and the verifier.
    /// Protocols must still treat the result as an unordered set
    /// (aggregate with min/max/any, never "first wins") — the canonical
    /// order is a determinism backstop, not a licence.
    pub fn present_states(&self) -> impl Iterator<Item = S> + '_ {
        // No recorder traffic: this is a `μ_q >= 1` query on every state,
        // and threshold 1 is the recorder's baseline — recording it can
        // never change an entry. (Walking all of `S::COUNT` here used to
        // dominate exhaustive exploration of product-state protocols.)
        //
        // Both the sparse index list and a dense presence list are already
        // the ascending nonzero indices, so they share an iterator arm;
        // only a presence-less dense view must scan the full vector.
        let (listed, scan): (Option<&[u32]>, Option<&[u32]>) = match &self.repr {
            CountsRepr::Sparse { idx, .. } => (Some(idx), None),
            CountsRepr::Dense {
                presence: Some(p), ..
            } => (Some(p), None),
            CountsRepr::Dense {
                counts,
                presence: None,
            } => (None, Some(counts)),
        };
        let from_list = listed.map(|p| p.iter().map(|&i| S::from_index(i as usize)));
        let from_scan = scan.map(|counts| {
            counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, _)| S::from_index(i))
        });
        from_list
            .into_iter()
            .flatten()
            .chain(from_scan.into_iter().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_state_space;

    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    enum S3 {
        X,
        Y,
        Z,
    }
    impl_state_space!(S3 { X, Y, Z });

    #[test]
    fn thresh_queries() {
        let counts = [0u32, 2, 5];
        let v: NeighborView<'_, S3> = NeighborView::over(&counts);
        assert!(v.none(S3::X));
        assert!(v.some(S3::Y));
        assert!(!v.exactly_one(S3::Y));
        assert!(v.at_least(S3::Z, 5));
        assert!(!v.at_least(S3::Z, 6));
        assert!(v.fewer_than(S3::X, 1));
    }

    #[test]
    fn mod_queries() {
        let counts = [0u32, 2, 5];
        let v: NeighborView<'_, S3> = NeighborView::over(&counts);
        assert_eq!(v.count_mod(S3::Z, 3), 2);
        assert!(v.congruent(S3::Y, 0, 2));
        assert!(v.congruent(S3::Z, 0, 5));
        assert!(!v.congruent(S3::Z, 0, 4));
        assert!(v.congruent(S3::Z, 0, 1));
    }

    #[test]
    fn capped_count() {
        let counts = [0u32, 2, 5];
        let v: NeighborView<'_, S3> = NeighborView::over(&counts);
        assert_eq!(v.count_capped(S3::Z, 3), 3);
        assert_eq!(v.count_capped(S3::Y, 3), 2);
        assert_eq!(v.count_capped(S3::X, 3), 0);
    }

    #[test]
    fn degree_queries() {
        let counts = [1u32, 0, 2];
        let v: NeighborView<'_, S3> = NeighborView::over(&counts);
        assert!(v.degree_at_least(1));
        assert!(v.degree_at_least(3));
        assert!(!v.degree_at_least(4));
    }

    #[test]
    fn present_states_lists_nonzero() {
        let counts = [1u32, 0, 2];
        let v: NeighborView<'_, S3> = NeighborView::over(&counts);
        let present: Vec<S3> = v.present_states().collect();
        assert_eq!(present, vec![S3::X, S3::Z]);
    }

    #[test]
    fn recorder_captures_queries() {
        let counts = [1u32, 0, 2];
        let rec = RefCell::new(QueryRecorder::new(3));
        let v: NeighborView<'_, S3> = NeighborView::new(&counts, Some(&rec));
        let _ = v.at_least(S3::Y, 4);
        let _ = v.count_mod(S3::Z, 6);
        let _ = v.count_mod(S3::Z, 4);
        let _ = v.count_capped(S3::X, 2);
        let r = rec.borrow();
        assert_eq!(r.thresholds, vec![2, 4, 1]);
        assert_eq!(r.moduli, vec![1, 1, 12]);
    }

    #[test]
    fn recorder_merge() {
        let mut a = QueryRecorder::new(2);
        a.record_thresh(0, 3);
        a.record_mod(1, 4);
        let mut b = QueryRecorder::new(2);
        b.record_thresh(0, 2);
        b.record_mod(1, 6);
        a.merge(&b);
        assert_eq!(a.thresholds, vec![3, 1]);
        assert_eq!(a.moduli, vec![1, 12]);
    }

    #[test]
    fn sparse_view_matches_dense() {
        // The run-length form the kernel builds per row must
        // answer every query exactly like the dense vector it encodes.
        let counts = [0u32, 2, 5];
        let idx = [1u32, 2];
        let cnt = [2u32, 5];
        let dense: NeighborView<'_, S3> = NeighborView::over(&counts);
        let sparse: NeighborView<'_, S3> = NeighborView::new_sparse(&idx, &cnt, None);
        for q in [S3::X, S3::Y, S3::Z] {
            for t in 1..=6 {
                assert_eq!(sparse.at_least(q, t), dense.at_least(q, t));
            }
            for m in 1..=5 {
                assert_eq!(sparse.count_mod(q, m), dense.count_mod(q, m));
            }
            assert_eq!(sparse.count_capped(q, 3), dense.count_capped(q, 3));
        }
        for t in 1..=8 {
            assert_eq!(sparse.degree_at_least(t), dense.degree_at_least(t));
        }
        let a: Vec<S3> = sparse.present_states().collect();
        let b: Vec<S3> = dense.present_states().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sparse_view_records_queries() {
        let idx = [2u32];
        let cnt = [3u32];
        let rec = RefCell::new(QueryRecorder::new(3));
        let v: NeighborView<'_, S3> = NeighborView::new_sparse(&idx, &cnt, Some(&rec));
        let _ = v.at_least(S3::Z, 4);
        let _ = v.count_mod(S3::Y, 6);
        let r = rec.borrow();
        assert_eq!(r.thresholds, vec![1, 1, 4]);
        assert_eq!(r.moduli, vec![1, 6, 1]);
    }

    #[test]
    #[should_panic(expected = "t >= 1")]
    fn zero_threshold_rejected() {
        let counts = [0u32, 0, 0];
        let v: NeighborView<'_, S3> = NeighborView::over(&counts);
        let _ = v.at_least(S3::X, 0);
    }
}
