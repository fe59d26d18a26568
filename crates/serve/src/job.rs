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
    /// The watchdog cancelled the job at its wall-clock deadline.
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
    /// Internal cancellation cause: the client vanished mid-stream.
    /// Recorded as a [`crate::exec::JobCancel`] cause so the engine
    /// stops promptly; by construction it is never *delivered* (there
    /// is no one left to deliver it to).
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
        /// Dimension, capped at 24 (16 Mi nodes) by the parser.
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
        let field = |name: &str| -> Result<usize, JobError> {
            v.get(name)
                .and_then(Json::as_usize)
                .filter(|&x| x > 0)
                .ok_or_else(|| bad(&format!("missing/invalid positive integer \"{name}\"")))
        };
        match gen {
            "path" => Ok(GraphSpec::Path { n: field("n")? }),
            "cycle" => Ok(GraphSpec::Cycle { n: field("n")? }),
            "complete" => Ok(GraphSpec::Complete { n: field("n")? }),
            "star" => Ok(GraphSpec::Star { n: field("n")? }),
            "grid" => Ok(GraphSpec::Grid {
                rows: field("rows")?,
                cols: field("cols")?,
            }),
            "torus" => Ok(GraphSpec::Torus {
                rows: field("rows")?,
                cols: field("cols")?,
            }),
            "hypercube" => {
                let d = field("d")?;
                if d > 24 {
                    return Err(bad("hypercube dimension capped at 24"));
                }
                Ok(GraphSpec::Hypercube { d })
            }
            "gnp" => {
                let p = v
                    .get("p")
                    .and_then(Json::as_f64)
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| bad("\"p\" must be a number in [0, 1]"))?;
                Ok(GraphSpec::Gnp { n: field("n")?, p })
            }
            "preferential-attachment" => Ok(GraphSpec::PreferentialAttachment {
                n: field("n")?,
                m: field("m")?,
            }),
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
    /// Attachment edges per arriving node.
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
    /// applying `limits` (rejects on the node cap, clamps the rest).
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
        let opt_u64 = |name: &str| -> Result<Option<u64>, JobError> {
            match v.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(x) => x
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| bad(format!("\"{name}\" must be a non-negative integer"))),
            }
        };
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
                Some(ChurnSpec {
                    horizon: s
                        .get("horizon")
                        .and_then(Json::as_u64)
                        .unwrap_or(d.horizon)
                        .clamp(1, limits.max_rounds as u64),
                    rate: opt_f64("rate", 0.0, 1000.0, d.rate)?,
                    arrival_bias: opt_f64("arrival_bias", 0.0, 1.0, d.arrival_bias)?,
                    edge_bias: opt_f64("edge_bias", 0.0, 1.0, d.edge_bias)?,
                    attach: s.get("attach").and_then(Json::as_usize).unwrap_or(d.attach),
                })
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
