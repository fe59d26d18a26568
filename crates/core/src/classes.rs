//! Lemma 3.9's per-state count classes.
//!
//! An SM function reads the multiplicity `μ_j` of each input state `j`
//! only through its class: one of the singletons `{0}, ..., {T_j - 1}`
//! below a tail `T_j`, or one of the `M_j` residue classes at or above
//! it. Class `T_j + i` holds the counts `n >= T_j` with `n ≡ i (mod M_j)`.
//! A [`ClassSpace`] fixes `(T_j, M_j)` for every state and numbers the
//! product of the per-state class sets in mixed radix, digit 0 varying
//! fastest: class vector `c` has index `Σ_j c_j · Π_{i<j} (T_i + M_i)`.
//!
//! Every enumerator of count classes walks this one space: Lemma 3.9's
//! construction ([`crate::convert::seq_to_mt`]), exact clause liveness
//! ([`crate::ModThreshProgram::class_representatives`]), the mod-atom
//! decision ([`crate::modfree`]), the sequential equivalence decision
//! ([`crate::equiv::decide_equiv_seq`]), and the engine's protocol
//! compiler and tabular kernel. Because classes are per state, a function of the
//! class vector can be evaluated from per-state counts gathered in any
//! grouping — the divide-and-conquer reading of symmetric FSAs
//! (Pritchard, arXiv:0708.0580).

use crate::modthresh::Prop;
use crate::SmError;

/// The product of per-state count classes for tails `T_j` and periods
/// `M_j`, indexed in mixed radix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassSpace {
    tails: Vec<u64>,
    periods: Vec<u64>,
    /// `strides[j] = Π_{i<j} (T_i + M_i)`.
    strides: Vec<usize>,
    len: usize,
}

impl ClassSpace {
    /// The class space with tails `tails[j] = T_j` and periods
    /// `periods[j] = M_j >= 1`. Fails with [`SmError::TooLarge`] when it
    /// has more than `limit` classes, `Π_j (T_j + M_j)`.
    pub fn new(tails: Vec<u64>, periods: Vec<u64>, limit: u128) -> Result<Self, SmError> {
        assert_eq!(tails.len(), periods.len(), "one tail and period per state");
        assert!(periods.iter().all(|&m| m >= 1), "periods are at least 1");
        let needed = tails
            .iter()
            .zip(&periods)
            .fold(1u128, |n, (&t, &m)| n.saturating_mul(t as u128 + m as u128));
        let len = usize::try_from(needed)
            .ok()
            .filter(|_| needed <= limit)
            .ok_or(SmError::TooLarge { needed, limit })?;
        // Every prefix product divides `len`, so none overflows.
        let mut strides = Vec::with_capacity(tails.len());
        let mut stride = 1usize;
        for (&t, &m) in tails.iter().zip(&periods) {
            strides.push(stride);
            stride *= (t + m) as usize;
        }
        Ok(ClassSpace {
            tails,
            periods,
            strides,
            len,
        })
    }

    /// The number of class vectors, `Π_j (T_j + M_j)`. Never zero: with
    /// no states there is one, the empty vector.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The tails `T_j`.
    pub fn tails(&self) -> &[u64] {
        &self.tails
    }

    /// The periods `M_j`.
    pub fn periods(&self) -> &[u64] {
        &self.periods
    }

    /// The class of count `count` of state `j`.
    #[inline]
    pub fn class_of(&self, j: usize, count: u64) -> u64 {
        let (t, m) = (self.tails[j], self.periods[j]);
        if count < t {
            count
        } else if m == 1 {
            t
        } else {
            t + count % m
        }
    }

    /// The class after one more neighbour in state `j`: Lemma 3.9's
    /// automaton read one input at a time. State `j`'s class steps from
    /// count `c` to `c + 1` below the tail (to count `T_j`'s residue class
    /// when it reaches the tail), and from residue class `T_j + i` to
    /// `T_j + (i + 1) mod M_j`; every other digit stays. Folding it from
    /// class 0, the empty multiset's, over a multiset in any order gives
    /// the multiset's class.
    #[inline]
    pub fn successor(&self, index: usize, j: usize) -> usize {
        let (t, m, stride) = (self.tails[j], self.periods[j], self.strides[j]);
        let c = (index / stride) as u64 % (t + m);
        let next = if c < t {
            self.class_of(j, c + 1)
        } else {
            t + (c - t + 1) % m
        };
        // A residue digit wraps, so `next` may be below `c`: take the old
        // digit out before putting the new one in.
        index - c as usize * stride + next as usize * stride
    }

    /// The class vector of `index`: digit `j` is state `j`'s class.
    pub fn class_vector(&self, index: usize) -> Vec<u64> {
        let mut rem = index;
        self.tails
            .iter()
            .zip(&self.periods)
            .map(|(&t, &m)| {
                let radix = (t + m) as usize;
                let c = rem % radix;
                rem /= radix;
                c as u64
            })
            .collect()
    }

    /// The index of class vector `classes`; inverse of
    /// [`Self::class_vector`].
    pub fn index(&self, classes: &[u64]) -> usize {
        classes
            .iter()
            .zip(&self.strides)
            .map(|(&c, &stride)| c as usize * stride)
            .sum()
    }

    /// The least member of class `index`, state by state: `c` for a
    /// singleton class `c`, and the smallest `z >= T_j` with
    /// `z ≡ i (mod M_j)` for residue class `T_j + i`. All zero when every
    /// state's class holds 0.
    pub fn least(&self, index: usize) -> Vec<u64> {
        self.class_vector(index)
            .into_iter()
            .enumerate()
            .map(|(j, c)| {
                let (t, m) = (self.tails[j], self.periods[j]);
                if c < t {
                    c
                } else {
                    t + (c - t + m - t % m) % m
                }
            })
            .collect()
    }

    /// The smallest non-empty member of class `index`: [`Self::least`],
    /// or, when that is the empty multiset, the empty multiset moved one
    /// period up in the first state whose class is a residue class. `None`
    /// only for the class that holds nothing but the empty multiset
    /// (every state in the singleton `{0}`).
    pub fn representative(&self, index: usize) -> Option<Vec<u64>> {
        let mut counts = self.least(index);
        if counts.iter().all(|&c| c == 0) {
            let classes = self.class_vector(index);
            let j = (0..counts.len()).find(|&j| classes[j] >= self.tails[j])?;
            counts[j] = self.periods[j];
        }
        Some(counts)
    }

    /// The proposition that holds on exactly the members of class
    /// `index`: the conjunction, in state order, of Equation (4) for a
    /// singleton class and Equation (5) for a residue class.
    pub fn guard(&self, index: usize) -> Prop {
        let mut guard = Prop::True;
        for (j, c) in self.class_vector(index).into_iter().enumerate() {
            let (t, m) = (self.tails[j], self.periods[j]);
            let p = if c < t {
                singleton(j, c)
            } else {
                // Eq (5): ¬(μ_j < T_j) ∧ μ_j ≡ i (mod M_j).
                let p = Prop::mod_count(j, c - t, m);
                if t > 0 {
                    Prop::below(j, t).not().and(p)
                } else {
                    p
                }
            };
            guard = guard.and(p);
        }
        guard
    }
}

/// Equation (4): `μ_j = c`, written `(μ_j < c + 1) ∧ ¬(μ_j < c)`, with
/// the second atom omitted for `c = 0`.
pub(crate) fn singleton(j: usize, c: u64) -> Prop {
    let p = Prop::below(j, c + 1);
    if c > 0 {
        p.and(Prop::below(j, c).not())
    } else {
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mixed tails (including 0) and periods (including 1).
    fn spaces() -> Vec<ClassSpace> {
        [
            (vec![2], vec![3]),
            (vec![0, 1], vec![2, 1]),
            (vec![1, 0, 3], vec![1, 3, 2]),
            (vec![0, 0], vec![3, 2]),
            (vec![1, 1, 1], vec![1, 1, 1]),
        ]
        .into_iter()
        .map(|(t, m)| ClassSpace::new(t, m, 1 << 20).unwrap())
        .collect()
    }

    /// Every count vector with `count_j <= T_j + 2 M_j`.
    fn count_vectors(space: &ClassSpace) -> Vec<Vec<u64>> {
        let bounds = space.tails().iter().zip(space.periods());
        bounds.fold(vec![vec![]], |vs, (&t, &m)| {
            let cs = 0..=t + 2 * m;
            vs.iter()
                .flat_map(|v| cs.clone().map(move |c| [&v[..], &[c]].concat()))
                .collect()
        })
    }

    fn index_of(space: &ClassSpace, counts: &[u64]) -> usize {
        let classes: Vec<u64> = counts
            .iter()
            .enumerate()
            .map(|(j, &c)| space.class_of(j, c))
            .collect();
        space.index(&classes)
    }

    #[test]
    fn size_is_the_product_and_respects_the_limit() {
        let s = ClassSpace::new(vec![1, 0, 3], vec![1, 3, 2], 1 << 20).unwrap();
        assert_eq!(s.len(), 2 * 3 * 5);
        assert_eq!(
            ClassSpace::new(vec![1, 0, 3], vec![1, 3, 2], 29),
            Err(SmError::TooLarge {
                needed: 30,
                limit: 29
            })
        );
        assert_eq!(ClassSpace::new(vec![], vec![], 1).unwrap().len(), 1);
    }

    #[test]
    fn index_round_trips_to_the_class_vector() {
        for space in spaces() {
            for index in 0..space.len() {
                let classes = space.class_vector(index);
                for (j, &c) in classes.iter().enumerate() {
                    assert!(c < space.tails()[j] + space.periods()[j]);
                }
                assert_eq!(space.index(&classes), index);
            }
            // Digit 0 varies fastest.
            assert_eq!(space.class_vector(1)[0], 1);
        }
    }

    #[test]
    fn class_of_saturates_into_residues() {
        // Tail 2, period 3: classes 0 and 1 are exact; class 2 + i holds
        // the counts >= 2 congruent to i mod 3.
        let s = ClassSpace::new(vec![2], vec![3], 1 << 10).unwrap();
        let classes: Vec<u64> = (0..9).map(|n| s.class_of(0, n)).collect();
        assert_eq!(classes, [0, 1, 4, 2, 3, 4, 2, 3, 4]);
        // Period 1: every count at or above the tail is one class.
        let s = ClassSpace::new(vec![1], vec![1], 1 << 10).unwrap();
        assert_eq!(
            (0..4).map(|n| s.class_of(0, n)).collect::<Vec<_>>(),
            [0, 1, 1, 1]
        );
    }

    #[test]
    fn successor_folds_to_the_class_index_in_any_order() {
        for space in spaces() {
            for counts in count_vectors(&space) {
                let home = index_of(&space, &counts);
                // State by state, ascending.
                let mut acc = 0;
                for (j, &c) in counts.iter().enumerate() {
                    for _ in 0..c {
                        acc = space.successor(acc, j);
                    }
                }
                assert_eq!(acc, home, "ascending fold of {counts:?}");
                // One neighbour per state in turn, descending.
                let (mut left, mut acc) = (counts.clone(), 0);
                while left.iter().any(|&c| c > 0) {
                    for j in (0..left.len()).rev() {
                        if left[j] > 0 {
                            acc = space.successor(acc, j);
                            left[j] -= 1;
                        }
                    }
                }
                assert_eq!(acc, home, "interleaved fold of {counts:?}");
            }
        }
    }

    #[test]
    fn representative_is_a_smallest_nonempty_member() {
        for space in spaces() {
            let members = count_vectors(&space);
            for index in 0..space.len() {
                let class: Vec<&Vec<u64>> = members
                    .iter()
                    .filter(|v| index_of(&space, v) == index)
                    .collect();
                let nonempty: Vec<&&Vec<u64>> =
                    class.iter().filter(|v| v.iter().any(|&c| c > 0)).collect();
                let least = space.least(index);
                assert!(class.iter().any(|v| **v == least), "least is a member");
                assert!(
                    class
                        .iter()
                        .all(|v| v.iter().zip(&least).all(|(a, b)| a >= b)),
                    "least is below every member"
                );
                match space.representative(index) {
                    None => assert!(nonempty.is_empty(), "only the empty multiset"),
                    Some(rep) => {
                        assert_eq!(index_of(&space, &rep), index, "a member");
                        assert!(rep.iter().any(|&c| c > 0), "non-empty");
                        // No other non-empty member lies below it.
                        for v in &nonempty {
                            let below = v.iter().zip(&rep).all(|(a, b)| a <= b);
                            assert!(!below || ***v == rep, "{v:?} < {rep:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn guard_holds_on_exactly_its_class() {
        for space in spaces() {
            for counts in count_vectors(&space) {
                let home = index_of(&space, &counts);
                for index in 0..space.len() {
                    assert_eq!(
                        space.guard(index).eval(&counts),
                        index == home,
                        "class {index} vs counts {counts:?}"
                    );
                }
            }
        }
    }
}
