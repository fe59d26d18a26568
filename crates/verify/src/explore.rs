//! Bounded exhaustive exploration of a protocol's product state space.
//!
//! A configuration is the vector of per-node state indices on a concrete
//! small graph. The explorer enumerates every configuration reachable
//! from a canonical initial one, under either scheduling model of
//! [`fssga_protocols::contract::Scheduling`]:
//!
//! * **asynchronous** — branch over every `(node, coin)` single
//!   activation, i.e. all interleavings of the paper's adversarial
//!   daemon;
//! * **synchronous** — branch over every per-node coin vector of a full
//!   round (`RANDOMNESS^n` children per configuration; a single
//!   trajectory for deterministic protocols).
//!
//! Exploration is breadth-first with parent pointers, so the schedule
//! reconstructed for any reached configuration is shortest — that is
//! what makes the emitted witnesses minimal. Every transition computed
//! along the way is funnelled through a [`TransitionObserver`] (the
//! semantic-totality pass) and through a shared
//! [`QueryRecorder`], and runs under `catch_unwind` so a panicking
//! protocol becomes a reported violation instead of a crashed lint run.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use fssga_engine::view::QueryRecorder;
use fssga_engine::{NeighborView, Protocol, StateSpace};
use fssga_graph::Graph;

use crate::witness::Step;

/// Everything a transition-level check gets to see about one computed
/// transition: the acting node's state, its coin, the neighbour
/// multiplicity vector (dense `counts` plus the sorted list of `touched`
/// nonzero indices), and the resulting state.
pub struct TransitionCtx<'c> {
    /// The acting node's state index.
    pub own: u32,
    /// The coin drawn.
    pub coin: u32,
    /// The resulting state index.
    pub next: u32,
    /// Dense neighbour multiplicity vector (`S::COUNT` entries).
    pub counts: &'c [u32],
    /// Sorted indices of the nonzero entries of `counts`.
    pub touched: &'c [u32],
}

/// A check that observes every transition the explorer computes.
pub trait TransitionObserver {
    /// Called once per computed transition.
    fn observe(&mut self, ctx: TransitionCtx<'_>);
}

/// The do-nothing observer.
pub struct NoObserver;

impl TransitionObserver for NoObserver {
    fn observe(&mut self, _ctx: TransitionCtx<'_>) {}
}

/// A transition panic, pinned to the configuration and activation that
/// triggered it.
#[derive(Clone, Debug)]
pub struct PanicWitness {
    /// Index of the configuration being expanded.
    pub config: usize,
    /// The activated node.
    pub node: u32,
    /// The coin drawn.
    pub coin: u32,
    /// The panic payload, as text.
    pub message: String,
}

/// The result of exploring one `(graph, init)` instance.
pub struct Exploration {
    /// All discovered configurations; index 0 is the initial one.
    pub configs: Vec<Vec<u32>>,
    /// Parent pointer per configuration: the predecessor index and the
    /// step that produced it (`None` for the initial configuration).
    pub parents: Vec<Option<(usize, Step)>>,
    /// Distinct successor indices per *expanded* configuration (may be
    /// shorter than `configs` when the run was truncated or panicked).
    pub succs: Vec<Vec<usize>>,
    /// Indices of terminal (fixed-point) configurations: no activation
    /// changes any state.
    pub terminals: Vec<usize>,
    /// Whether the budget cut the exploration short.
    pub truncated: bool,
    /// A panic, if one aborted the exploration.
    pub panic: Option<PanicWitness>,
    /// Total transitions computed.
    pub transitions: u64,
}

impl Exploration {
    /// The shortest schedule from the initial configuration to `idx`
    /// within the explored space (by BFS parent pointers).
    pub fn schedule_to(&self, idx: usize) -> Vec<Step> {
        let mut steps = Vec::new();
        let mut cur = idx;
        while let Some((pred, step)) = &self.parents[cur] {
            steps.push(step.clone());
            cur = *pred;
        }
        steps.reverse();
        steps
    }

    /// Searches the expanded transition graph for a directed cycle and
    /// returns its configuration indices if one exists. A cycle among
    /// *changing* transitions is a non-termination witness: the daemon
    /// can schedule the run to loop forever.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        let m = self.succs.len();
        let mut color = vec![0u8; m]; // 0 white, 1 on stack, 2 done
        for start in 0..m {
            if color[start] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = 1;
            while let Some(top) = stack.last_mut() {
                let (u, ei) = (top.0, top.1);
                if ei < self.succs[u].len() {
                    top.1 += 1;
                    let v = self.succs[u][ei];
                    if v >= m {
                        continue; // unexpanded frontier node: no out-edges known
                    }
                    match color[v] {
                        0 => {
                            color[v] = 1;
                            stack.push((v, 0));
                        }
                        1 => {
                            let pos = stack.iter().position(|&(x, _)| x == v).unwrap();
                            return Some(stack[pos..].iter().map(|&(x, _)| x).collect());
                        }
                        _ => {}
                    }
                } else {
                    color[u] = 2;
                    stack.pop();
                }
            }
        }
        None
    }
}

/// Extracts a printable message from a panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A bounded exhaustive explorer for one protocol on one graph.
pub struct Explorer<'a, P: Protocol> {
    protocol: &'a P,
    graph: &'a Graph,
    budget: usize,
    /// Mod/thresh observations merged across every transition computed by
    /// this explorer (the semantic-totality bounds check reads it).
    pub recorder: RefCell<QueryRecorder>,
}

impl<'a, P: Protocol> Explorer<'a, P> {
    /// A new explorer with a cap on distinct configurations discovered.
    pub fn new(protocol: &'a P, graph: &'a Graph, budget: usize) -> Self {
        Self {
            protocol,
            graph,
            budget,
            recorder: RefCell::new(QueryRecorder::new(P::State::COUNT)),
        }
    }

    /// Computes the transition of node `v` in configuration `cfg` with
    /// `coin`, tallying neighbours into the caller's scratch buffers
    /// (restored to all-zero before returning). `Err` carries a panic
    /// message.
    fn next_state(
        &self,
        cfg: &[u32],
        v: usize,
        coin: u32,
        counts: &mut [u32],
        touched: &mut Vec<u32>,
        obs: &mut impl TransitionObserver,
    ) -> Result<u32, String> {
        touched.clear();
        for &u in self.graph.neighbors(v as u32) {
            let q = cfg[u as usize] as usize;
            if counts[q] == 0 {
                touched.push(q as u32);
            }
            counts[q] += 1;
        }
        touched.sort_unstable();
        let own = P::State::from_index(cfg[v] as usize);
        let result = {
            let view = NeighborView::<P::State>::over_sparse(counts, touched, Some(&self.recorder));
            catch_unwind(AssertUnwindSafe(|| {
                self.protocol.transition(own, &view, coin)
            }))
        };
        let out = match result {
            Ok(s) => {
                let next = s.index() as u32;
                obs.observe(TransitionCtx {
                    own: cfg[v],
                    coin,
                    next,
                    counts,
                    touched,
                });
                Ok(next)
            }
            Err(payload) => Err(panic_message(payload)),
        };
        for &q in touched.iter() {
            counts[q as usize] = 0;
        }
        out
    }

    /// Explores all single-activation interleavings (the asynchronous
    /// daemon): each configuration branches over every `(node, coin)`.
    pub fn explore_async(&self, init: &[u32], obs: &mut impl TransitionObserver) -> Exploration {
        let n = self.graph.n();
        assert_eq!(init.len(), n);
        let r = P::RANDOMNESS.max(1);
        let mut counts = vec![0u32; P::State::COUNT];
        let mut touched: Vec<u32> = Vec::with_capacity(n);

        let mut configs = vec![init.to_vec()];
        let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
        index.insert(init.to_vec(), 0);
        let mut parents: Vec<Option<(usize, Step)>> = vec![None];
        let mut succs: Vec<Vec<usize>> = Vec::new();
        let mut terminals = Vec::new();
        let mut truncated = false;
        let mut panic = None;
        let mut transitions = 0u64;

        let mut i = 0;
        'expand: while i < configs.len() {
            if configs.len() > self.budget {
                truncated = true;
                break;
            }
            let cfg = configs[i].clone();
            let mut out_edges: Vec<usize> = Vec::new();
            let mut changed = false;
            for v in 0..n {
                for coin in 0..r {
                    transitions += 1;
                    match self.next_state(&cfg, v, coin, &mut counts, &mut touched, obs) {
                        Ok(next) if next != cfg[v] => {
                            changed = true;
                            let mut nc = cfg.clone();
                            nc[v] = next;
                            let j = match index.get(&nc) {
                                Some(&j) => j,
                                None => {
                                    let j = configs.len();
                                    index.insert(nc.clone(), j);
                                    configs.push(nc);
                                    parents.push(Some((
                                        i,
                                        Step::Activate {
                                            node: v as u32,
                                            coin,
                                        },
                                    )));
                                    j
                                }
                            };
                            if !out_edges.contains(&j) {
                                out_edges.push(j);
                            }
                        }
                        Ok(_) => {}
                        Err(message) => {
                            panic = Some(PanicWitness {
                                config: i,
                                node: v as u32,
                                coin,
                                message,
                            });
                            succs.push(out_edges);
                            break 'expand;
                        }
                    }
                }
            }
            if !changed {
                terminals.push(i);
            }
            succs.push(out_edges);
            i += 1;
        }

        Exploration {
            configs,
            parents,
            succs,
            terminals,
            truncated,
            panic,
            transitions,
        }
    }

    /// Explores the synchronous round tree: each configuration branches
    /// over all `RANDOMNESS^n` per-node coin vectors, every node firing
    /// simultaneously.
    pub fn explore_sync(&self, init: &[u32], obs: &mut impl TransitionObserver) -> Exploration {
        let n = self.graph.n();
        assert_eq!(init.len(), n);
        let r = u64::from(P::RANDOMNESS.max(1));
        let vectors = r
            .checked_pow(n as u32)
            .filter(|&v| v <= 1 << 16)
            .expect("coin-vector tree too wide; shrink max_nodes or RANDOMNESS");
        let mut counts = vec![0u32; P::State::COUNT];
        let mut touched: Vec<u32> = Vec::with_capacity(n);

        let mut configs = vec![init.to_vec()];
        let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
        index.insert(init.to_vec(), 0);
        let mut parents: Vec<Option<(usize, Step)>> = vec![None];
        let mut succs: Vec<Vec<usize>> = Vec::new();
        let mut terminals = Vec::new();
        let mut truncated = false;
        let mut panic = None;
        let mut transitions = 0u64;

        let mut coins = vec![0u32; n];
        let mut next_cfg = vec![0u32; n];
        let mut i = 0;
        'expand: while i < configs.len() {
            if configs.len() > self.budget {
                truncated = true;
                break;
            }
            let cfg = configs[i].clone();
            let mut out_edges: Vec<usize> = Vec::new();
            let mut changed_any = false;
            for vec_id in 0..vectors {
                let mut x = vec_id;
                for c in coins.iter_mut() {
                    *c = (x % r) as u32;
                    x /= r;
                }
                for v in 0..n {
                    transitions += 1;
                    match self.next_state(&cfg, v, coins[v], &mut counts, &mut touched, obs) {
                        Ok(next) => next_cfg[v] = next,
                        Err(message) => {
                            panic = Some(PanicWitness {
                                config: i,
                                node: v as u32,
                                coin: coins[v],
                                message,
                            });
                            succs.push(out_edges);
                            break 'expand;
                        }
                    }
                }
                if next_cfg != cfg {
                    changed_any = true;
                    let j = match index.get(&next_cfg) {
                        Some(&j) => j,
                        None => {
                            let j = configs.len();
                            index.insert(next_cfg.clone(), j);
                            configs.push(next_cfg.clone());
                            parents.push(Some((
                                i,
                                Step::Round {
                                    coins: coins.clone(),
                                },
                            )));
                            j
                        }
                    };
                    if !out_edges.contains(&j) {
                        out_edges.push(j);
                    }
                }
            }
            if !changed_any {
                terminals.push(i);
            }
            succs.push(out_edges);
            i += 1;
        }

        Exploration {
            configs,
            parents,
            succs,
            terminals,
            truncated,
            panic,
            transitions,
        }
    }

    /// Replays a witness schedule from `init` and returns the final
    /// configuration. `Err` carries a panic message from a transition.
    pub fn replay(&self, init: &[u32], schedule: &[Step]) -> Result<Vec<u32>, String> {
        let mut cfg = init.to_vec();
        let mut counts = vec![0u32; P::State::COUNT];
        let mut touched: Vec<u32> = Vec::new();
        let mut obs = NoObserver;
        for step in schedule {
            match step {
                Step::Activate { node, coin } => {
                    cfg[*node as usize] = self.next_state(
                        &cfg,
                        *node as usize,
                        *coin,
                        &mut counts,
                        &mut touched,
                        &mut obs,
                    )?;
                }
                Step::Round { coins } => {
                    assert_eq!(coins.len(), cfg.len());
                    let mut next = vec![0u32; cfg.len()];
                    for v in 0..cfg.len() {
                        next[v] = self.next_state(
                            &cfg,
                            v,
                            coins[v],
                            &mut counts,
                            &mut touched,
                            &mut obs,
                        )?;
                    }
                    cfg = next;
                }
            }
        }
        Ok(cfg)
    }
}

/// Formats a configuration as debug-printed states, e.g. `[A, Blank, B]`.
pub fn format_config<P: Protocol>(cfg: &[u32]) -> String {
    let states: Vec<String> = cfg
        .iter()
        .map(|&q| format!("{:?}", P::State::from_index(q as usize)))
        .collect();
    format!("[{}]", states.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fssga_engine::impl_state_space;
    use fssga_graph::generators;

    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    enum OrState {
        Zero,
        One,
    }
    impl_state_space!(OrState { Zero, One });

    /// One-bit OR diffusion: confluent, terminating.
    struct OrDiffusion;
    impl Protocol for OrDiffusion {
        type State = OrState;
        fn transition(
            &self,
            own: OrState,
            nbrs: &NeighborView<'_, OrState>,
            _coin: u32,
        ) -> OrState {
            if own == OrState::One || nbrs.some(OrState::One) {
                OrState::One
            } else {
                OrState::Zero
            }
        }
    }

    /// A blinker: flips its own state every activation. Never terminates.
    struct Blinker;
    impl Protocol for Blinker {
        type State = OrState;
        fn transition(
            &self,
            own: OrState,
            _nbrs: &NeighborView<'_, OrState>,
            _coin: u32,
        ) -> OrState {
            match own {
                OrState::Zero => OrState::One,
                OrState::One => OrState::Zero,
            }
        }
    }

    #[test]
    fn or_diffusion_async_has_unique_fixpoint() {
        let g = generators::path(4);
        let explorer = Explorer::new(&OrDiffusion, &g, 10_000);
        let init = [1u32, 0, 0, 0];
        let ex = explorer.explore_async(&init, &mut NoObserver);
        assert!(!ex.truncated);
        assert!(ex.panic.is_none());
        assert_eq!(ex.terminals.len(), 1, "OR diffusion is confluent");
        assert_eq!(ex.configs[ex.terminals[0]], vec![1, 1, 1, 1]);
        assert!(ex.find_cycle().is_none());
        // The shortest schedule to the fixpoint floods left to right.
        let sched = ex.schedule_to(ex.terminals[0]);
        assert_eq!(sched.len(), 3);
        let replayed = explorer.replay(&init, &sched).unwrap();
        assert_eq!(replayed, ex.configs[ex.terminals[0]]);
    }

    #[test]
    fn blinker_has_a_cycle_and_no_terminal() {
        let g = generators::path(2);
        let explorer = Explorer::new(&Blinker, &g, 10_000);
        let ex = explorer.explore_async(&[0, 0], &mut NoObserver);
        assert!(ex.terminals.is_empty());
        assert!(ex.find_cycle().is_some());
    }

    #[test]
    fn sync_exploration_of_deterministic_protocol_is_a_trajectory() {
        let g = generators::path(5);
        let explorer = Explorer::new(&OrDiffusion, &g, 10_000);
        let ex = explorer.explore_sync(&[1, 0, 0, 0, 0], &mut NoObserver);
        // One new configuration per round until the flood completes.
        assert_eq!(ex.terminals.len(), 1);
        assert_eq!(ex.configs.len(), 5, "rounds 0..4 each add one config");
        assert!(
            ex.succs.iter().all(|s| s.len() <= 1),
            "deterministic rounds branch nowhere"
        );
        let sched = ex.schedule_to(ex.terminals[0]);
        let replayed = explorer.replay(&[1, 0, 0, 0, 0], &sched).unwrap();
        assert_eq!(replayed, vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn budget_truncates() {
        let g = generators::path(4);
        let explorer = Explorer::new(&OrDiffusion, &g, 2);
        let ex = explorer.explore_async(&[1, 0, 0, 0], &mut NoObserver);
        assert!(ex.truncated);
    }
}
