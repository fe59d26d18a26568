//! Section 1: the Flajolet–Martin census.
//!
//! Each node initializes a `K`-bit sketch by setting bit `i` (1-indexed)
//! with probability `2^-i` (and with probability `2^-K` setting nothing),
//! then the network repeatedly ORs sketches across edges — an iterated
//! semi-lattice operation, which is why the algorithm is 0-sensitive:
//! whatever stays connected keeps converging to the union of its own
//! sketches. After stabilization every node estimates
//! `n ≈ 1.3 · 2^ℓ`, where `ℓ` is the least index of a 0 bit.

use fssga_engine::{Fold, NeighborView, Protocol, SensitiveProtocol, SensitivityClass, StateSpace};
use fssga_graph::rng::Xoshiro256;

/// A `K`-bit Flajolet–Martin sketch (`K <= 16`). Bit `i-1` of the word
/// corresponds to the paper's `m_i`.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct FmSketch<const K: usize>(pub u16);

impl<const K: usize> FmSketch<K> {
    /// The all-zero sketch.
    pub fn empty() -> Self {
        FmSketch(0)
    }

    /// The probabilistic initialization: with probability `2^-i` set bit
    /// `i` (for `1 <= i <= K`), with probability `2^-K` set nothing.
    /// Implemented by counting consecutive heads: `h` heads then a tail
    /// has probability `2^-(h+1)`, which is exactly the weight of bit
    /// `h + 1`.
    pub fn random_init(rng: &mut Xoshiro256) -> Self {
        let mut h = 0usize;
        while h < K && rng.coin() {
            h += 1;
        }
        if h < K {
            FmSketch(1 << h)
        } else {
            FmSketch(0)
        }
    }

    /// Bitwise union (the semi-lattice join).
    pub fn union(self, other: Self) -> Self {
        FmSketch(self.0 | other.0)
    }

    /// `ℓ`: the least 1-indexed position holding a 0 bit (`K + 1` if all
    /// `K` bits are set).
    pub fn lowest_zero(self) -> u32 {
        let masked = self.0 | !(((1u32 << K) - 1) as u16);
        (!masked).trailing_zeros().min(K as u32) + 1
    }

    /// The paper's estimate `1.3 · 2^ℓ`.
    pub fn estimate(self) -> f64 {
        1.3 * f64::from(1u32 << self.lowest_zero())
    }
}

impl<const K: usize> StateSpace for FmSketch<K> {
    const COUNT: usize = 1 << K;

    fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(i: usize) -> Self {
        assert!(i < (1 << K));
        FmSketch(i as u16)
    }
}

/// The census protocol: repeatedly OR the neighbourhood's sketches into
/// your own (deterministic once sketches are drawn).
///
/// The transition is a fold: `join = finish = `[`FmSketch::union`], so
/// the compiled kernel takes the fold plan and ORs each row in one pass.
pub struct Census<const K: usize>;

impl<const K: usize> Protocol for Census<K> {
    type State = FmSketch<K>;
    const COMPILED: bool = true;
    const FOLD: Option<Fold<FmSketch<K>>> = Some(Fold {
        join: FmSketch::union,
        finish: FmSketch::union,
    });

    fn transition(
        &self,
        own: FmSketch<K>,
        nbrs: &NeighborView<'_, FmSketch<K>>,
        _coin: u32,
    ) -> FmSketch<K> {
        let mut acc = own;
        for s in nbrs.present_states() {
            acc = acc.union(s);
        }
        acc
    }
}

/// Census is the paper's flagship 0-sensitive algorithm: an iterated
/// semi-lattice (OR) diffusion has an empty critical set — any benign
/// fault leaves each surviving component converging to the union of its
/// own sketches, which is the fault-free answer on that component.
impl<const K: usize> SensitiveProtocol for Census<K> {
    fn algorithm_name() -> &'static str {
        "census"
    }

    fn declared_class() -> SensitivityClass {
        SensitivityClass::Zero
    }
}

/// The checked semantic contract: OR-diffusion of sketches is the
/// workspace's canonical semilattice protocol — confluent under any
/// activation order, and 0-sensitive (Section 2).
pub const CONTRACT: crate::contract::SemanticContract = crate::contract::SemanticContract {
    name: "census",
    order_independent: true,
    semilattice: true,
    scheduling: crate::contract::Scheduling::Any,
    sensitivity: SensitivityClass::Zero,
    max_nodes: 6,
    config_budget: 50_000,
};

/// Draws `n` independent sketches and returns their union — the value
/// every node converges to in a connected fault-free network. Exposed for
/// statistical testing and the E1 experiment.
pub fn union_of_fresh_sketches<const K: usize>(n: usize, rng: &mut Xoshiro256) -> FmSketch<K> {
    let mut acc = FmSketch::<K>::empty();
    for _ in 0..n {
        acc = acc.union(FmSketch::random_init(rng));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use fssga_engine::{Budget, Network, Runner};
    use fssga_graph::{exact, generators};

    #[test]
    fn lowest_zero_examples() {
        assert_eq!(FmSketch::<8>(0b0000_0000).lowest_zero(), 1);
        assert_eq!(FmSketch::<8>(0b0000_0001).lowest_zero(), 2);
        assert_eq!(FmSketch::<8>(0b0000_0111).lowest_zero(), 4);
        assert_eq!(FmSketch::<8>(0b0000_0101).lowest_zero(), 2);
        assert_eq!(FmSketch::<8>(0b1111_1111).lowest_zero(), 9);
    }

    #[test]
    fn estimate_monotone_in_bits() {
        assert!(FmSketch::<8>(0b111).estimate() > FmSketch::<8>(0b1).estimate());
    }

    #[test]
    fn random_init_sets_at_most_one_bit() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        for _ in 0..1000 {
            let s = FmSketch::<10>::random_init(&mut rng);
            assert!(s.0.count_ones() <= 1);
        }
    }

    #[test]
    fn random_init_bit_frequencies_are_geometric() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let trials = 200_000;
        let mut counts = [0u64; 11];
        for _ in 0..trials {
            let s = FmSketch::<10>::random_init(&mut rng);
            if s.0 == 0 {
                counts[10] += 1;
            } else {
                counts[s.0.trailing_zeros() as usize] += 1;
            }
        }
        // Bit i (0-indexed) should appear with probability 2^-(i+1).
        for (i, &count) in counts.iter().enumerate().take(5) {
            let expected = trials as f64 * 0.5f64.powi(i as i32 + 1);
            let got = count as f64;
            assert!(
                (got - expected).abs() < 0.05 * expected + 50.0,
                "bit {i}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn union_is_join() {
        let a = FmSketch::<8>(0b0011);
        let b = FmSketch::<8>(0b0101);
        assert_eq!(a.union(b).0, 0b0111);
        assert_eq!(a.union(a), a);
        assert_eq!(a.union(FmSketch::empty()), a);
    }

    #[test]
    fn estimate_within_factor_four_most_of_the_time() {
        // The paper claims factor 2 w.h.p. for a single sketch family;
        // a lone FM bitmap actually has constant-probability outliers, so
        // we assert the median-of-trials behaviour with generous slack.
        let mut rng = Xoshiro256::seed_from_u64(3);
        for &n in &[64usize, 256, 1024] {
            let mut within = 0;
            let trials = 200;
            for _ in 0..trials {
                let est = union_of_fresh_sketches::<16>(n, &mut rng).estimate();
                let ratio = est / n as f64;
                if (0.25..=4.0).contains(&ratio) {
                    within += 1;
                }
            }
            assert!(
                within >= trials * 6 / 10,
                "n = {n}: only {within}/{trials} within factor 4"
            );
        }
    }

    #[test]
    fn diffusion_converges_to_union_in_diameter_rounds() {
        let g = generators::grid(6, 6);
        let mut rng = Xoshiro256::seed_from_u64(4);
        let sketches: Vec<FmSketch<8>> = (0..g.n())
            .map(|_| FmSketch::random_init(&mut rng))
            .collect();
        let expected = sketches
            .iter()
            .fold(FmSketch::<8>::empty(), |a, &b| a.union(b));
        let mut net = Network::new(&g, Census::<8>, |v| sketches[v as usize]);
        let rounds = Runner::new(&mut net)
            .budget(Budget::Fixpoint(100))
            .run()
            .fixpoint
            .unwrap();
        assert!(net.states().iter().all(|&s| s == expected));
        let diam = exact::diameter(&g).unwrap() as usize;
        assert!(rounds <= diam + 2, "rounds {rounds} > diam {diam} + 2");
    }

    #[test]
    fn zero_sensitivity_component_estimates_survive_partition() {
        // Cut the network mid-run: each component converges to the union
        // of ITS OWN sketches — between |component| lower-bound behaviour
        // and the full-graph upper bound, which is the paper's
        // "reasonably correct" window.
        let g = generators::path(20);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let sketches: Vec<FmSketch<8>> = (0..g.n())
            .map(|_| FmSketch::random_init(&mut rng))
            .collect();
        let mut net = Network::new(&g, Census::<8>, |v| sketches[v as usize]);
        net.sync_step(&mut rng);
        net.remove_edge(9, 10);
        Runner::new(&mut net)
            .budget(Budget::Fixpoint(100))
            .run()
            .fixpoint
            .unwrap();
        // Left component: union of sketches 0..=9 possibly plus early
        // diffusion — but after one round, node 9 knows at most nodes
        // 8..=10's bits... final state must be >= union(own half) and
        // <= union(all).
        let left_union = sketches[..10]
            .iter()
            .fold(FmSketch::<8>::empty(), |a, &b| a.union(b));
        let all_union = sketches
            .iter()
            .fold(FmSketch::<8>::empty(), |a, &b| a.union(b));
        for v in 0..10usize {
            let s = net.states()[v];
            assert_eq!(s.0 & left_union.0, left_union.0, "missing own-side bits");
            assert_eq!(s.0 & !all_union.0, 0, "invented bits");
        }
    }

    #[test]
    fn compiled_census_matches_native() {
        // K = 3 keeps the compiled table small (8 states).
        let auto = fssga_engine::compile::compile_protocol(&Census::<3>, 1 << 20).unwrap();
        let g = generators::cycle(8);
        let mut rng = Xoshiro256::seed_from_u64(6);
        let sketches: Vec<FmSketch<3>> = (0..g.n())
            .map(|_| FmSketch::random_init(&mut rng))
            .collect();
        let mut native = Network::new(&g, Census::<3>, |v| sketches[v as usize]);
        let mut interp =
            fssga_engine::interp::InterpNetwork::new(&g, &auto, |v| sketches[v as usize].index());
        for round in 0..10 {
            native.sync_step_seeded(round);
            interp.sync_step_seeded(round);
            let ids: Vec<usize> = native.states().iter().map(|s| s.index()).collect();
            assert_eq!(&ids, interp.states());
        }
    }
}

/// PCSA-style averaging over `R` independent sketch families (the
/// Flajolet–Martin paper's variance-reduction technique): estimate
/// `n ≈ 2^{mean ℓ - 1} / φ` with the original FM correction
/// `φ = 0.77351` (our `ℓ` is 1-indexed, as in the SPAA paper; the SPAA
/// paper's quick `1.3 · 2^ℓ` constant is kept verbatim in
/// [`FmSketch::estimate`] and carries a ~2x bias that averaging cannot
/// remove — see experiment E1). In the FSSGA model the `R` fields form a
/// single automaton over `{0,1}^{K·R}`; since the fields never interact,
/// running `R` copies of [`Census`] is an exact factorization and keeps
/// the engine's scratch arrays small.
pub fn averaged_estimate<const K: usize>(sketches: &[FmSketch<K>]) -> f64 {
    assert!(!sketches.is_empty());
    const PHI: f64 = 0.77351;
    let mean_l: f64 = sketches
        .iter()
        .map(|s| f64::from(s.lowest_zero()))
        .sum::<f64>()
        / sketches.len() as f64;
    2f64.powf(mean_l - 1.0) / PHI
}

/// Runs `R` independent OR-diffusions over `g` to fixpoint and returns
/// node 0's averaged estimate (all nodes agree after convergence).
pub fn run_averaged_census<const K: usize>(
    g: &fssga_graph::Graph,
    r: usize,
    rng: &mut Xoshiro256,
) -> f64 {
    use fssga_engine::{Budget, Network, Runner};
    let mut finals = Vec::with_capacity(r);
    for _ in 0..r {
        let sketches: Vec<FmSketch<K>> = (0..g.n()).map(|_| FmSketch::random_init(rng)).collect();
        let mut net = Network::new(g, Census::<K>, |v| sketches[v as usize]);
        Runner::new(&mut net)
            .budget(Budget::Fixpoint(10 * g.n() + 20))
            .run()
            .fixpoint
            .expect("converges");
        finals.push(net.state(0));
    }
    averaged_estimate(&finals)
}

#[cfg(test)]
mod averaging_tests {
    use super::*;
    use fssga_graph::generators;

    #[test]
    fn averaging_reduces_spread() {
        // Relative log-error of R=8 averaged estimates is tighter than
        // single sketches, across repeated trials.
        let mut rng = Xoshiro256::seed_from_u64(71);
        let n = 512usize;
        let trials = 60;
        let spread = |r: usize, rng: &mut Xoshiro256| -> f64 {
            let mut errs = Vec::with_capacity(trials);
            for _ in 0..trials {
                let sketches: Vec<FmSketch<16>> = (0..r)
                    .map(|_| union_of_fresh_sketches::<16>(n, rng))
                    .collect();
                let est = averaged_estimate(&sketches);
                errs.push((est / n as f64).log2().abs());
            }
            errs.iter().sum::<f64>() / trials as f64
        };
        let single = spread(1, &mut rng);
        let eight = spread(8, &mut rng);
        assert!(
            eight < single * 0.7,
            "averaging should tighten the estimate: {single:.3} -> {eight:.3}"
        );
    }

    #[test]
    fn averaged_network_census_is_accurate() {
        let mut rng = Xoshiro256::seed_from_u64(72);
        let g = generators::connected_gnp(300, 0.03, &mut rng);
        let est = run_averaged_census::<16>(&g, 8, &mut rng);
        let ratio = est / 300.0;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "averaged estimate {est:.0} for n=300"
        );
    }

    #[test]
    fn averaged_estimate_is_monotone_and_repeatable() {
        let lo = FmSketch::<8>(0b0000_0001);
        let hi = FmSketch::<8>(0b0001_0111);
        assert!(averaged_estimate(&[hi]) > averaged_estimate(&[lo]));
        // Identical sketches: the average equals the single-family value.
        assert!((averaged_estimate(&[hi, hi, hi]) - averaged_estimate(&[hi])).abs() < 1e-9);
    }
}
