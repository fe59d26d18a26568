//! The [`Protocol`] trait: what a node does when it activates.

use crate::view::NeighborView;

/// A finite state space with a canonical enumeration.
///
/// Protocol states are typically Rust enums or small product types; the
/// engine needs a dense `0..COUNT` indexing to tally neighbour states into
/// a scratch array (the "cartesian product of the variables' ranges" trick
/// the paper describes under Algorithm 4.1).
pub trait StateSpace: Copy + Eq + std::fmt::Debug {
    /// Number of distinct states, `|Q|`.
    const COUNT: usize;

    /// Dense index in `0..COUNT`.
    fn index(self) -> usize;

    /// Inverse of [`Self::index`]. May panic for `i >= COUNT`.
    fn from_index(i: usize) -> Self;
}

/// A node program in the FSSGA model.
///
/// The engine calls [`Protocol::transition`] when a node activates,
/// passing the node's own state (read asymmetrically, per Definition
/// 3.10), a [`NeighborView`] of its neighbours' states (readable only
/// through symmetric, finite mod/thresh queries), and — for probabilistic
/// protocols (Definition 3.11) — a uniformly random coin in
/// `0..RANDOMNESS`.
pub trait Protocol {
    /// The node state type `Q`.
    type State: StateSpace;

    /// The per-activation randomness `r` of Definition 3.11. `1` means
    /// deterministic.
    const RANDOMNESS: u32 = 1;

    /// Declared upper bound on the thresh arguments (`μ >= t`,
    /// `count_capped(_, t)`) this protocol uses. Generic wrappers — the
    /// α synchronizer — need it to synthesize an inner neighbour view
    /// from their own finite queries. `fssga-lint`, `fssga-verify` and
    /// `tests/declared_bounds.rs` check the declaration against the
    /// queries the protocol makes. The compiler and the compiled kernel
    /// do not read it: [`crate::compile::tabulate`] discovers each
    /// state's own bound. The default covers `some` / `none` /
    /// `exactly_one`.
    const MAX_THRESHOLD: u32 = 2;

    /// Declared lcm of the mod-atom moduli this protocol uses (1 = no mod
    /// atoms). Same role as [`Self::MAX_THRESHOLD`].
    const MODULI_LCM: u32 = 1;

    /// Opt-in flag for the compiled execution path: when `true`, the
    /// [`crate::Runner`] with engine `Auto` may execute synchronous
    /// rounds on a [`crate::CompiledKernel`] instead of the interpreter.
    /// Opting in asserts that `transition` is a pure function of
    /// `(own, view, coin)` — no interior mutability, no out-of-band
    /// inputs — which every mod-thresh protocol is by construction.
    /// Defaults to `false` so foreign protocols must claim purity
    /// explicitly.
    const COMPILED: bool = false;

    /// Optional declaration that [`Self::transition`] is a fold over the
    /// neighbour states. When it is `Some`, the compiled kernel evaluates
    /// a row with one pass of [`Fold::join`] and one [`Fold::finish`]
    /// (the [`crate::KernelPlan::Fold`] plan): no buffer, no sort, no
    /// [`NeighborView`]. The interpreter never reads it.
    ///
    /// Declaring a fold asserts its contract (see [`Fold`]);
    /// `fssga-verify` checks it on every small multiset.
    const FOLD: Option<Fold<Self::State>> = None;

    /// The new state of an activating node.
    fn transition(
        &self,
        own: Self::State,
        neighbors: &NeighborView<'_, Self::State>,
        coin: u32,
    ) -> Self::State;
}

impl<P: Protocol> Protocol for &P {
    type State = P::State;
    const RANDOMNESS: u32 = P::RANDOMNESS;
    const MAX_THRESHOLD: u32 = P::MAX_THRESHOLD;
    const MODULI_LCM: u32 = P::MODULI_LCM;
    const COMPILED: bool = P::COMPILED;
    const FOLD: Option<Fold<Self::State>> = P::FOLD;

    fn transition(
        &self,
        own: Self::State,
        neighbors: &NeighborView<'_, Self::State>,
        coin: u32,
    ) -> Self::State {
        (*self).transition(own, neighbors, coin)
    }
}

/// A transition written as a fold over neighbour states, declared by
/// [`Protocol::FOLD`]. The working value is the state itself.
///
/// Contract:
///
/// * `join` is associative and commutative;
/// * for every own state `a`, every non-empty neighbour multiset `M` and
///   every coin `c`, `finish(a, join-fold of M) == transition(a, M, c)`.
///
/// `join` need not be idempotent: the fold visits every neighbour, so
/// multiplicities count. Associativity and commutativity make every
/// combination tree over the row equal (SPAA §3 Def. 3.3; Pritchard's
/// divide-and-conquer note), so an evaluator may read a row once, in any
/// order. Isolated nodes never activate, so `M` is never empty.
#[derive(Copy, Clone, Debug)]
pub struct Fold<S> {
    /// Combines two neighbour states (or partial folds of them).
    pub join: fn(S, S) -> S,
    /// The new state from `(own, joined)`, where `joined` is the join of
    /// every neighbour state.
    pub finish: fn(S, S) -> S,
}

/// Implements [`StateSpace`] for a fieldless enum by listing its variants.
///
/// ```
/// use fssga_engine::{impl_state_space, StateSpace};
///
/// #[derive(Copy, Clone, PartialEq, Eq, Debug)]
/// enum Color { Red, Green, Blue }
/// impl_state_space!(Color { Red, Green, Blue });
///
/// assert_eq!(Color::COUNT, 3);
/// assert_eq!(Color::from_index(Color::Green.index()), Color::Green);
/// ```
#[macro_export]
macro_rules! impl_state_space {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::StateSpace for $ty {
            const COUNT: usize = $crate::impl_state_space!(@count $($variant),+);

            fn index(self) -> usize {
                // Irrefutable on single-variant enums, which are legal here.
                #[allow(unused_assignments, irrefutable_let_patterns)]
                {
                    let mut i = 0;
                    $(
                        if let $ty::$variant = self {
                            return i;
                        }
                        i += 1;
                    )+
                    unreachable!()
                }
            }

            fn from_index(i: usize) -> Self {
                #[allow(unused_assignments)]
                {
                    let mut j = 0;
                    $(
                        if i == j {
                            return $ty::$variant;
                        }
                        j += 1;
                    )+
                    panic!("state index {i} out of range")
                }
            }
        }
    };
    (@count $head:ident $(, $tail:ident)*) => {
        1 $( + { let _ = stringify!($tail); 1 } )*
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    enum Tri {
        A,
        B,
        C,
    }
    impl_state_space!(Tri { A, B, C });

    #[test]
    fn macro_roundtrip() {
        assert_eq!(Tri::COUNT, 3);
        for i in 0..3 {
            assert_eq!(Tri::from_index(i).index(), i);
        }
        assert_eq!(Tri::A.index(), 0);
        assert_eq!(Tri::C.index(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn macro_out_of_range() {
        let _ = Tri::from_index(3);
    }
}
