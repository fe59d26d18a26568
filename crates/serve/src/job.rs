//! Job requests: the typed form of a `{"t":"job",...}` frame.
//!
//! Everything a client can ask for is parsed here into [`JobSpec`],
//! with every unknown, missing, or out-of-range field rejected as a
//! structured [`JobError`] *before* the job is admitted to the queue.
//! The server's [`Limits`] are applied at parse time too: node caps
//! reject the request outright (`budget-nodes`); round, wall-clock and
//! thread requests are silently clamped to the server maxima (the
//! `accepted` frame echoes the effective values, so a clamped client
//! can see what it actually got).
//!
//! DESIGN.md §12 documents the wire-level schema field by field; this
//! module is its executable twin.

use crate::json::Json;

/// Well-known error codes carried by `{"t":"error","code":...}` frames.
///
/// Codes are a closed set — clients can switch on them — and each is
/// documented in DESIGN.md §12.5 with the state it can occur in.
pub mod codes {
    /// The frame was not a JSON object with a recognised `"t"` tag.
    pub const BAD_FRAME: &str = "bad-frame";
    /// A job field was missing, of the wrong type, or out of range.
    pub const BAD_REQUEST: &str = "bad-request";
    /// The `proto` name is not one the service hosts.
    pub const UNSUPPORTED_PROTO: &str = "unsupported-proto";
    /// The `graph.gen` name is not a generator the service exposes.
    pub const UNSUPPORTED_GRAPH: &str = "unsupported-graph";
    /// The requested graph exceeds the server's node cap.
    pub const BUDGET_NODES: &str = "budget-nodes";
    /// A fixpoint was requested but not reached within the round budget.
    pub const BUDGET_ROUNDS: &str = "budget-rounds";
    /// The job's wall-clock deadline passed; it stopped at a round
    /// boundary.
    pub const BUDGET_WALL: &str = "budget-wall";
    /// The job queue was full; retry later (backpressure shed).
    pub const OVERLOADED: &str = "overloaded";
    /// The server is draining and no longer admits jobs.
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// A `shutdown` frame arrived but the server was started without
    /// `--allow-shutdown`.
    pub const FORBIDDEN: &str = "forbidden";
    /// An invariant failed server-side; the detail is diagnostic only.
    pub const INTERNAL: &str = "internal";
    /// Internal cancellation cause: the client vanished mid-stream, so
    /// the writer cancelled the job's [`crate::exec::JobCancel`] and
    /// the engine stopped promptly. By construction it is never
    /// *delivered* (there is no one left to deliver it to).
    pub const DISCONNECTED: &str = "disconnected";
}

/// A structured job failure, rendered as an `error` frame.
#[derive(Clone, Debug, PartialEq)]
pub struct JobError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable context; never required for client dispatch.
    pub detail: String,
}

impl JobError {
    /// Builds an error with the given code and detail.
    pub fn new(code: &'static str, detail: impl Into<String>) -> Self {
        JobError {
            code,
            detail: detail.into(),
        }
    }

    /// The `{"t":"error",...}` response line for job `job`.
    pub fn to_jsonl(&self, job: u64) -> String {
        let v = crate::json::obj(vec![
            ("t", crate::json::s("error")),
            ("job", crate::json::nu(job)),
            ("code", crate::json::s(self.code)),
            ("detail", crate::json::s(&self.detail)),
        ]);
        v.to_string()
    }
}

/// Server-side admission and clamping limits (one per server).
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Jobs whose graph has more nodes than this are rejected
    /// (`budget-nodes`); checked from the [`GraphSpec`] arithmetic, so
    /// no memory is committed before the check.
    pub max_nodes: usize,
    /// Upper clamp on a job's round budget (and a churn job's horizon).
    pub max_rounds: usize,
    /// Upper clamp on a job's wall-clock budget, in milliseconds; also
    /// the default when the request omits `wall_ms`.
    pub max_wall_ms: u64,
    /// Upper clamp on a job's `threads` request.
    pub max_threads: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_nodes: 2_000_000,
            max_rounds: 100_000,
            max_wall_ms: 30_000,
            max_threads: 8,
        }
    }
}

/// Which execution path a job takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// One [`fssga_engine::Runner`] run on a static topology.
    Run,
    /// A churn stream over the dirty-set kernel
    /// ([`fssga_engine::run_churn_oracle_traced`]).
    Churn,
}

/// Which protocol the job instantiates. The service hosts a fixed,
/// documented registry — all compiled, all deterministic for a given
/// seed, so replays are bit-identical (the property the `done` frame's
/// fingerprint witnesses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// `Census<16>` — FM-sketch size estimation. Per-node initial
    /// sketches derive from the job seed:
    /// `Xoshiro256::seed_from_u64(seed ^ (v * 0x9E37_79B9_7F4A_7C15))`
    /// feeding `FmSketch::random_init`, so arrivals under churn are
    /// deterministic too.
    Census,
    /// `ShortestPaths<256>` — distance labelling; node 0 is the sink.
    ShortestPaths,
    /// `KParity<16>` — distance-mod-K labelling; node 0 is the source.
    KParity,
    /// `KUnison<8>` — mod-K clock synchronisation, all clocks starting
    /// at phase 0. Never reaches a fixpoint (the clocks tick forever):
    /// the canonical way to exercise round and wall budgets.
    KUnison,
}

impl Proto {
    /// Parses a wire `proto` name.
    pub fn parse(name: &str) -> Result<Proto, JobError> {
        match name {
            "census" => Ok(Proto::Census),
            "shortest-paths" => Ok(Proto::ShortestPaths),
            "kparity" => Ok(Proto::KParity),
            "kunison" => Ok(Proto::KUnison),
            other => Err(JobError::new(
                codes::UNSUPPORTED_PROTO,
                format!("unknown proto {other:?} (census|shortest-paths|kparity|kunison)"),
            )),
        }
    }

    /// The wire name (inverse of [`Self::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Proto::Census => "census",
            Proto::ShortestPaths => "shortest-paths",
            Proto::KParity => "kparity",
            Proto::KUnison => "kunison",
        }
    }
}

/// The topology a job runs on, described by generator name + shape
/// parameters. The node count is pure arithmetic on the spec, so the
/// [`Limits::max_nodes`] admission check runs before any allocation.
/// Seeded generators (`gnp`, `preferential-attachment`) draw from
/// `Xoshiro256::seed_from_u64(job seed)`, making the topology part of
/// the job's deterministic replay contract.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphSpec {
    /// `path(n)`.
    Path {
        /// Node count.
        n: usize,
    },
    /// `cycle(n)`.
    Cycle {
        /// Node count.
        n: usize,
    },
    /// `complete(n)`.
    Complete {
        /// Node count.
        n: usize,
    },
    /// `star(n)`.
    Star {
        /// Node count (centre + `n - 1` leaves).
        n: usize,
    },
    /// `grid(rows, cols)` — open boundaries.
    Grid {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// `torus(rows, cols)` — wrapped boundaries.
    Torus {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// `hypercube(d)` — `2^d` nodes.
    Hypercube {
        /// Dimension, capped at 20 (1 Mi nodes) by the parser.
        d: usize,
    },
    /// `gnp(n, p)` — Erdős–Rényi, seeded by the job seed.
    Gnp {
        /// Node count.
        n: usize,
        /// Edge probability in `[0, 1]`.
        p: f64,
    },
    /// `preferential_attachment(n, m)` — seeded by the job seed.
    PreferentialAttachment {
        /// Node count.
        n: usize,
        /// Edges per arriving node.
        m: usize,
    },
}

impl GraphSpec {
    /// Parses the `graph` object of a job request.
    pub fn parse(v: &Json) -> Result<GraphSpec, JobError> {
        let bad = |what: &str| JobError::new(codes::BAD_REQUEST, format!("graph: {what}"));
        let gen = v
            .get("gen")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing string field \"gen\""))?;
        // Each generator's preconditions are checked here, so that no
        // admitted spec can trip a generator assertion.
        let field = |name: &str, min: usize| -> Result<usize, JobError> {
            v.get(name)
                .and_then(Json::as_usize)
                .filter(|&x| x >= min)
                .ok_or_else(|| bad(&format!("\"{name}\" must be an integer >= {min}")))
        };
        match gen {
            "path" => Ok(GraphSpec::Path { n: field("n", 1)? }),
            "cycle" => Ok(GraphSpec::Cycle { n: field("n", 3)? }),
            "complete" => Ok(GraphSpec::Complete { n: field("n", 1)? }),
            "star" => Ok(GraphSpec::Star { n: field("n", 2)? }),
            "grid" => Ok(GraphSpec::Grid {
                rows: field("rows", 1)?,
                cols: field("cols", 1)?,
            }),
            "torus" => Ok(GraphSpec::Torus {
                rows: field("rows", 3)?,
                cols: field("cols", 3)?,
            }),
            "hypercube" => {
                let d = field("d", 1)?;
                if d > 20 {
                    return Err(bad("hypercube dimension capped at 20"));
                }
                Ok(GraphSpec::Hypercube { d })
            }
            "gnp" => {
                let p = v
                    .get("p")
                    .and_then(Json::as_f64)
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| bad("\"p\" must be a number in [0, 1]"))?;
                Ok(GraphSpec::Gnp {
                    n: field("n", 1)?,
                    p,
                })
            }
            "preferential-attachment" => {
                let (n, m) = (field("n", 1)?, field("m", 1)?);
                if m >= n {
                    return Err(bad("preferential-attachment needs \"m\" below \"n\""));
                }
                Ok(GraphSpec::PreferentialAttachment { n, m })
            }
            other => Err(JobError::new(
                codes::UNSUPPORTED_GRAPH,
                format!("unknown generator {other:?}"),
            )),
        }
    }

    /// The node count this spec will produce, without building anything.
    pub fn nodes(&self) -> usize {
        match *self {
            GraphSpec::Path { n }
            | GraphSpec::Cycle { n }
            | GraphSpec::Complete { n }
            | GraphSpec::Star { n }
            | GraphSpec::Gnp { n, .. }
            | GraphSpec::PreferentialAttachment { n, .. } => n,
            GraphSpec::Grid { rows, cols } | GraphSpec::Torus { rows, cols } => {
                rows.saturating_mul(cols)
            }
            GraphSpec::Hypercube { d } => 1usize << d,
        }
    }

    /// The edge count this spec will produce, without building anything;
    /// for `gnp`, the expected count `p · n(n − 1) / 2`.
    pub fn edges(&self) -> usize {
        let pairs = |n: usize| n.saturating_mul(n.saturating_sub(1)) / 2;
        match *self {
            GraphSpec::Path { n } | GraphSpec::Star { n } => n.saturating_sub(1),
            GraphSpec::Cycle { n } => n,
            GraphSpec::Complete { n } => pairs(n),
            GraphSpec::Grid { rows, cols } => rows
                .saturating_mul(cols.saturating_sub(1))
                .saturating_add(cols.saturating_mul(rows.saturating_sub(1))),
            GraphSpec::Torus { rows, cols } => rows.saturating_mul(cols).saturating_mul(2),
            GraphSpec::Hypercube { d } => self.nodes().saturating_mul(d) / 2,
            GraphSpec::Gnp { n, p } => (p * pairs(n) as f64) as usize,
            GraphSpec::PreferentialAttachment { n, m } => pairs(m.saturating_add(1))
                .saturating_add(n.saturating_sub(m.saturating_add(1)).saturating_mul(m)),
        }
    }

    /// Builds the graph. `seed` feeds the seeded generators only.
    pub fn build(&self, seed: u64) -> fssga_graph::Graph {
        use fssga_graph::generators as g;
        use fssga_graph::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(seed);
        match *self {
            GraphSpec::Path { n } => g::path(n),
            GraphSpec::Cycle { n } => g::cycle(n),
            GraphSpec::Complete { n } => g::complete(n),
            GraphSpec::Star { n } => g::star(n),
            GraphSpec::Grid { rows, cols } => g::grid(rows, cols),
            GraphSpec::Torus { rows, cols } => g::torus(rows, cols),
            GraphSpec::Hypercube { d } => g::hypercube(d),
            GraphSpec::Gnp { n, p } => g::gnp(n, p, &mut rng),
            GraphSpec::PreferentialAttachment { n, m } => {
                g::preferential_attachment(n, m, &mut rng)
            }
        }
    }
}

/// The most edges per node a job may bring: the largest `churn.attach`,
/// and the cap on a graph's edges over its nodes. Graph generation and
/// stream generation both run before the engine's first cancellation
/// check, so the cap bounds their cost by a constant times the node
/// budget. Every churn caller in the repository uses 2 edges per arrival.
pub const MAX_ATTACH: usize = 64;

/// Churn-stream parameters of a `kind: "churn"` job; see
/// [`fssga_engine::ChurnConfig`] for the semantics of each knob.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnSpec {
    /// Rounds the stream spans (clamped to [`Limits::max_rounds`]).
    pub horizon: u64,
    /// Mean events per round.
    pub rate: f64,
    /// Probability an event is an arrival.
    pub arrival_bias: f64,
    /// Probability an event targets an edge rather than a node.
    pub edge_bias: f64,
    /// Attachment edges per arriving node (at most [`MAX_ATTACH`]).
    pub attach: usize,
}

/// A fully validated, limit-clamped job, ready for the queue.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Execution path.
    pub kind: JobKind,
    /// Protocol instance.
    pub proto: Proto,
    /// Topology.
    pub graph: GraphSpec,
    /// Determinism seed (default `0xF55A_2006`, the bench suite's).
    pub seed: u64,
    /// Kernel thread count; `1` (the default) evaluates every round on
    /// the calling thread. Same results at any count. Clamped to
    /// [`Limits::max_threads`]. Ignored by churn jobs (the dirty-set
    /// kernel is sequential).
    pub threads: usize,
    /// Effective round budget (request clamped to
    /// [`Limits::max_rounds`]); a churn job's horizon.
    pub rounds: usize,
    /// Whether the run stops at quiescence (`true`, the default) or
    /// executes exactly `rounds` rounds. A fixpoint job that exhausts
    /// `rounds` without converging fails with `budget-rounds`.
    pub fixpoint: bool,
    /// Effective wall-clock budget in milliseconds (request clamped to
    /// [`Limits::max_wall_ms`], which is also the default).
    pub wall_ms: u64,
    /// Whether per-round metric events stream back to the client
    /// (default `true`). `false` sends only `accepted` + `done`/`error`.
    pub stream: bool,
    /// Present iff `kind` is [`JobKind::Churn`].
    pub churn: Option<ChurnSpec>,
}

/// Default job seed — the bench suite's `DEFAULT_SEED`, so unseeded
/// service runs are comparable with recorded baselines.
pub const DEFAULT_SEED: u64 = 0xF55A_2006;

impl JobSpec {
    /// Parses and validates the body of a `{"t":"job",...}` frame,
    /// applying `limits` (rejects on the node cap and on more than
    /// [`MAX_ATTACH`] edges per node, clamps the rest). A
    /// churn job is held to the node cap at its worst case: every draw of
    /// the stream generator adds at most one node and spends at least one
    /// unit of the `horizon × rate` budget, so
    /// `graph nodes + ⌊horizon × rate⌋` must not exceed
    /// [`Limits::max_nodes`].
    pub fn parse(v: &Json, limits: &Limits) -> Result<JobSpec, JobError> {
        let bad = |what: String| JobError::new(codes::BAD_REQUEST, what);
        let kind = match v.get("kind").and_then(Json::as_str).unwrap_or("run") {
            "run" => JobKind::Run,
            "churn" => JobKind::Churn,
            other => return Err(bad(format!("unknown kind {other:?} (run|churn)"))),
        };
        let proto = Proto::parse(
            v.get("proto")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("missing string field \"proto\"".into()))?,
        )?;
        let graph = GraphSpec::parse(
            v.get("graph")
                .ok_or_else(|| bad("missing object field \"graph\"".into()))?,
        )?;
        if graph.nodes() > limits.max_nodes {
            return Err(JobError::new(
                codes::BUDGET_NODES,
                format!(
                    "graph has {} nodes, server cap is {}",
                    graph.nodes(),
                    limits.max_nodes
                ),
            ));
        }
        if graph.edges() > graph.nodes().saturating_mul(MAX_ATTACH) {
            return Err(JobError::new(
                codes::BUDGET_NODES,
                format!(
                    "graph has {} edges on {} nodes, the cap is {MAX_ATTACH} per node",
                    graph.edges(),
                    graph.nodes()
                ),
            ));
        }
        let opt_u64 = |name: &str| opt_u64_in(v, name, "");
        let opt_bool = |name: &str| -> Result<Option<bool>, JobError> {
            match v.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(x) => x
                    .as_bool()
                    .map(Some)
                    .ok_or_else(|| bad(format!("\"{name}\" must be a boolean"))),
            }
        };
        let seed = opt_u64("seed")?.unwrap_or(DEFAULT_SEED);
        let threads = (opt_u64("threads")?.unwrap_or(1) as usize).clamp(1, limits.max_threads);
        let rounds = (opt_u64("rounds")?.unwrap_or(limits.max_rounds as u64) as usize)
            .clamp(1, limits.max_rounds);
        let fixpoint = opt_bool("fixpoint")?.unwrap_or(true);
        let wall_ms = opt_u64("wall_ms")?
            .unwrap_or(limits.max_wall_ms)
            .clamp(1, limits.max_wall_ms);
        let stream = opt_bool("stream")?.unwrap_or(true);
        let churn = match (kind, v.get("churn")) {
            (JobKind::Run, None) => None,
            (JobKind::Run, Some(_)) => {
                return Err(bad(
                    "\"churn\" options are only valid with kind \"churn\"".into()
                ))
            }
            (JobKind::Churn, spec) => {
                if proto != Proto::Census {
                    return Err(bad(
                        "churn jobs run the census protocol only (its repair path is \
                         the one the dirty-set kernel supports under arrivals)"
                            .into(),
                    ));
                }
                let d = ChurnSpec {
                    horizon: rounds as u64,
                    rate: 2.0,
                    arrival_bias: 0.5,
                    edge_bias: 0.7,
                    attach: 2,
                };
                let s = spec.unwrap_or(&Json::Null);
                let opt_f64 = |name: &str, lo: f64, hi: f64, dft: f64| -> Result<f64, JobError> {
                    match s.get(name) {
                        None | Some(Json::Null) => Ok(dft),
                        Some(x) => x.as_f64().filter(|x| (lo..=hi).contains(x)).ok_or_else(|| {
                            bad(format!("churn.{name} must be a number in [{lo}, {hi}]"))
                        }),
                    }
                };
                let attach = match opt_u64_in(s, "attach", "churn.")? {
                    None => d.attach,
                    Some(a) if a <= MAX_ATTACH as u64 => a as usize,
                    Some(_) => {
                        return Err(bad(format!("churn.attach must be at most {MAX_ATTACH}")))
                    }
                };
                let c = ChurnSpec {
                    horizon: opt_u64_in(s, "horizon", "churn.")?
                        .unwrap_or(d.horizon)
                        .clamp(1, limits.max_rounds as u64),
                    rate: opt_f64("rate", 0.0, 1000.0, d.rate)?,
                    arrival_bias: opt_f64("arrival_bias", 0.0, 1.0, d.arrival_bias)?,
                    edge_bias: opt_f64("edge_bias", 0.0, 1.0, d.edge_bias)?,
                    attach,
                };
                let arrivals = (c.horizon as f64 * c.rate).floor() as usize;
                if graph.nodes() + arrivals > limits.max_nodes {
                    return Err(JobError::new(
                        codes::BUDGET_NODES,
                        format!(
                            "graph has {} nodes and the stream may add {arrivals}, \
                             server cap is {}",
                            graph.nodes(),
                            limits.max_nodes
                        ),
                    ));
                }
                Some(c)
            }
        };
        Ok(JobSpec {
            kind,
            proto,
            graph,
            seed,
            threads,
            rounds,
            fixpoint,
            wall_ms,
            stream,
            churn,
        })
    }
}

/// Reads the optional non-negative integer field `name` of object `v`;
/// `prefix` names the enclosing object in the error (`"churn."`).
fn opt_u64_in(v: &Json, name: &str, prefix: &str) -> Result<Option<u64>, JobError> {
    match v.get(name) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x.as_u64().map(Some).ok_or_else(|| {
            JobError::new(
                codes::BAD_REQUEST,
                format!("\"{prefix}{name}\" must be a non-negative integer"),
            )
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<JobSpec, JobError> {
        JobSpec::parse(&Json::parse(text).unwrap(), &Limits::default())
    }

    #[test]
    fn minimal_run_job_gets_documented_defaults() {
        let spec =
            parse(r#"{"t":"job","proto":"census","graph":{"gen":"torus","rows":8,"cols":8}}"#)
                .unwrap();
        assert_eq!(spec.kind, JobKind::Run);
        assert_eq!(spec.proto, Proto::Census);
        assert_eq!(spec.graph.nodes(), 64);
        assert_eq!(spec.seed, DEFAULT_SEED);
        assert_eq!(spec.threads, 1);
        assert_eq!(spec.rounds, Limits::default().max_rounds);
        assert!(spec.fixpoint && spec.stream);
        assert_eq!(spec.wall_ms, Limits::default().max_wall_ms);
        assert!(spec.churn.is_none());
    }

    #[test]
    fn limits_clamp_and_reject() {
        let limits = Limits {
            max_nodes: 100,
            max_rounds: 50,
            max_wall_ms: 1_000,
            max_threads: 2,
        };
        let v = Json::parse(
            r#"{"proto":"census","graph":{"gen":"path","n":10},
                "rounds":500,"wall_ms":99999,"threads":64}"#,
        )
        .unwrap();
        let spec = JobSpec::parse(&v, &limits).unwrap();
        assert_eq!(
            (spec.rounds, spec.wall_ms, spec.threads),
            (50, 1_000, 2),
            "over-asks clamp to server maxima"
        );
        let big = Json::parse(r#"{"proto":"census","graph":{"gen":"torus","rows":64,"cols":64}}"#)
            .unwrap();
        let err = JobSpec::parse(&big, &limits).unwrap_err();
        assert_eq!(err.code, codes::BUDGET_NODES);
    }

    #[test]
    fn churn_jobs_take_census_only_and_default_sanely() {
        let spec = parse(
            r#"{"kind":"churn","proto":"census","graph":{"gen":"torus","rows":8,"cols":8},
                "rounds":64,"churn":{"rate":3.5}}"#,
        )
        .unwrap();
        let c = spec.churn.unwrap();
        assert_eq!(c.horizon, 64, "horizon defaults to the round budget");
        assert_eq!(c.rate, 3.5);
        assert_eq!((c.arrival_bias, c.edge_bias, c.attach), (0.5, 0.7, 2));
        let err = parse(r#"{"kind":"churn","proto":"kunison","graph":{"gen":"path","n":4}}"#)
            .unwrap_err();
        assert_eq!(err.code, codes::BAD_REQUEST);
    }

    #[test]
    fn churn_integers_parse_strictly() {
        for field in [
            r#""horizon":2.5"#,
            r#""horizon":"300""#,
            r#""attach":1.5"#,
            r#""attach":-1"#,
            r#""attach":true"#,
        ] {
            let text = format!(
                r#"{{"kind":"churn","proto":"census","graph":{{"gen":"path","n":4}},
                    "churn":{{{field}}}}}"#
            );
            assert_eq!(
                parse(&text).unwrap_err().code,
                codes::BAD_REQUEST,
                "{field}"
            );
        }
    }

    #[test]
    fn churn_attach_is_capped() {
        let job = |attach: u64| {
            parse(&format!(
                r#"{{"kind":"churn","proto":"census","graph":{{"gen":"path","n":4}},
                    "rounds":10,"churn":{{"attach":{attach}}}}}"#
            ))
        };
        let cap = MAX_ATTACH as u64;
        assert_eq!(job(cap).unwrap().churn.unwrap().attach, MAX_ATTACH);
        for over in [cap + 1, 20_000_000, 9_000_000_000_000_000] {
            assert_eq!(job(over).unwrap_err().code, codes::BAD_REQUEST, "{over}");
        }
    }

    #[test]
    fn churn_worst_case_arrivals_count_against_the_node_cap() {
        let limits = Limits {
            max_nodes: 100,
            ..Limits::default()
        };
        let job = |horizon: u64, rate: f64| {
            let text = format!(
                r#"{{"kind":"churn","proto":"census","graph":{{"gen":"path","n":10}},
                    "churn":{{"horizon":{horizon},"rate":{rate}}}}}"#
            );
            JobSpec::parse(&Json::parse(&text).unwrap(), &limits)
        };
        // 10 nodes + ⌊45 × 2.02⌋ = 100: at the cap, admitted.
        assert!(job(45, 2.02).is_ok());
        assert_eq!(job(46, 2.0).unwrap_err().code, codes::BUDGET_NODES);
        // The service maxima (horizon 100,000 × rate 1,000) on a 4-node
        // path: 10⁸ possible arrivals, far over the default cap.
        let err = parse(
            r#"{"kind":"churn","proto":"census","graph":{"gen":"path","n":4},
                "churn":{"horizon":100000,"rate":1000}}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, codes::BUDGET_NODES);
    }

    #[test]
    fn generator_preconditions_are_bad_requests() {
        let limits = Limits {
            max_nodes: 1 << 24,
            ..Limits::default()
        };
        for graph in [
            r#"{"gen":"cycle","n":2}"#,
            r#"{"gen":"star","n":1}"#,
            r#"{"gen":"torus","rows":2,"cols":8}"#,
            r#"{"gen":"torus","rows":8,"cols":1}"#,
            r#"{"gen":"preferential-attachment","n":4,"m":4}"#,
            r#"{"gen":"preferential-attachment","n":4,"m":9}"#,
            r#"{"gen":"hypercube","d":21}"#,
            r#"{"gen":"hypercube","d":24}"#,
        ] {
            let text = format!(r#"{{"proto":"census","graph":{graph}}}"#);
            let err = JobSpec::parse(&Json::parse(&text).unwrap(), &limits).unwrap_err();
            assert_eq!(err.code, codes::BAD_REQUEST, "{graph}");
        }
    }

    #[test]
    fn edges_over_the_per_node_cap_are_rejected() {
        let job = |graph: &str| parse(&format!(r#"{{"proto":"census","graph":{graph}}}"#));
        // K_129 has exactly 64 edges per node.
        assert!(job(r#"{"gen":"complete","n":129}"#).is_ok());
        assert!(job(r#"{"gen":"gnp","n":1000,"p":0.1}"#).is_ok());
        for graph in [
            r#"{"gen":"complete","n":130}"#,
            r#"{"gen":"complete","n":3000}"#,
            r#"{"gen":"gnp","n":2000000,"p":0.5}"#,
            r#"{"gen":"preferential-attachment","n":200000,"m":199999}"#,
        ] {
            assert_eq!(job(graph).unwrap_err().code, codes::BUDGET_NODES, "{graph}");
        }
    }

    #[test]
    fn edge_counts_match_the_built_graphs() {
        for graph in [
            r#"{"gen":"path","n":1}"#,
            r#"{"gen":"path","n":7}"#,
            r#"{"gen":"cycle","n":3}"#,
            r#"{"gen":"complete","n":6}"#,
            r#"{"gen":"star","n":2}"#,
            r#"{"gen":"grid","rows":1,"cols":5}"#,
            r#"{"gen":"grid","rows":4,"cols":3}"#,
            r#"{"gen":"torus","rows":3,"cols":5}"#,
            r#"{"gen":"hypercube","d":1}"#,
            r#"{"gen":"hypercube","d":5}"#,
            r#"{"gen":"gnp","n":9,"p":1}"#,
            r#"{"gen":"gnp","n":9,"p":0}"#,
            r#"{"gen":"preferential-attachment","n":2,"m":1}"#,
            r#"{"gen":"preferential-attachment","n":40,"m":3}"#,
        ] {
            let spec = GraphSpec::parse(&Json::parse(graph).unwrap()).unwrap();
            let g = spec.build(7);
            assert_eq!((spec.nodes(), spec.edges()), (g.n(), g.m()), "{graph}");
        }
    }

    #[test]
    fn structured_errors_carry_closed_codes() {
        let cases = [
            (
                r#"{"proto":"nope","graph":{"gen":"path","n":4}}"#,
                codes::UNSUPPORTED_PROTO,
            ),
            (
                r#"{"proto":"census","graph":{"gen":"moebius","n":4}}"#,
                codes::UNSUPPORTED_GRAPH,
            ),
            (r#"{"proto":"census"}"#, codes::BAD_REQUEST),
            (
                r#"{"proto":"census","graph":{"gen":"gnp","n":4,"p":1.5}}"#,
                codes::BAD_REQUEST,
            ),
            (
                r#"{"proto":"census","graph":{"gen":"path","n":4},"churn":{}}"#,
                codes::BAD_REQUEST,
            ),
        ];
        for (text, code) in cases {
            assert_eq!(parse(text).unwrap_err().code, code, "{text}");
        }
    }

    #[test]
    fn error_frames_render_the_documented_shape() {
        let line = JobError::new(codes::OVERLOADED, "queue full (16)").to_jsonl(7);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("t").and_then(Json::as_str), Some("error"));
        assert_eq!(v.get("job").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(
            v.get("detail").and_then(Json::as_str),
            Some("queue full (16)")
        );
    }
}
