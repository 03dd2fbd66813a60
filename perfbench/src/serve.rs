//! `serve-read` and `serve-write`: closed-loop traffic through
//! `qr_serve::Engine::submit` at engine width `nproc`.
//!
//! Four tenants: `path`, `family` and `guarded` (whose rewritings saturate
//! under the serve budget) and `tc` (transitive closure, whose rewritings
//! are cut by the budget and served with `complete=false`). The stream is
//! built in blocks with a fixed content, so every cost class has a share
//! that does not depend on the seed:
//!
//! * each block holds two α-renamed copies of every warm shape and one
//!   constant-anchored cold shape, unique within the run;
//! * on `serve-write`, each block starts with one pendant fact write; the
//!   eight blocks of an epoch insert and then retract one pendant per
//!   tenant, so every epoch ends on the base instances (stationary).
//!
//! A write drops its tenant's cache, so the first query of each warm shape
//! of that tenant in the block misses. The generator simulates residency
//! and predicts each op's class; the run checks the engine agrees.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use qr_chase::{chase_with, ChaseBudget, ChaseOutcome};
use qr_exec::Executor;
use qr_hom::{all_answers, canonical_key, CanonicalKey, JoinPlan, MatchCounters};
use qr_rewrite::{rewrite_with_mode, RewriteBudget, RewriteOutcome, SaturationMode};
use qr_serve::{
    CqRequest, Engine, EngineConfig, FactWrite, Response, ResponseStatus, Tier, WriteBatch,
};
use qr_syntax::{
    parse_instance, parse_query, parse_theory, Fact, Instance, Pred, Symbol, TermId, Theory, Var,
};

use crate::trace::{Tracer, NO_PARENT};
use crate::util::{invariant, median, median_setup, Metrics, Outcome, Rng, Timed};

/// The serve-mixed rewrite budget: `tc` rewritings stop at it, the other
/// tenants saturate well inside it.
const SERVE_BUDGET: RewriteBudget = RewriteBudget {
    max_queries: 24,
    max_generated: 400,
    max_atoms: 8,
};

/// The oracle's budget for the FUS tenants' reference rewritings; every
/// reference rewriting must saturate under it.
const ROOMY_BUDGET: RewriteBudget = RewriteBudget {
    max_queries: 4096,
    max_generated: 200_000,
    max_atoms: 12,
};

const ANSWER_LIMIT: usize = 16;

/// Logical cache budget: the warm shapes plus a few hundred cold entries,
/// so cold entries evict each other (LRU) and the warm shapes, touched in
/// every block, never do.
const CACHE_BYTES: usize = 256 * 1024;

/// Set-up repetitions per run; the median is reported.
const SETUP_REPEATS: usize = 9;

struct TenantSpec {
    id: &'static str,
    theory: &'static str,
    /// Constants are `{prefix}{i}` for `i < nodes`.
    prefix: &'static str,
    nodes: usize,
    /// Base facts: `(pred, arity, count)`; binary facts join random nodes,
    /// unary facts mark random nodes.
    facts: &'static [(&'static str, u32, usize)],
    /// The chase terminates, so it gives the reference answers; otherwise
    /// a roomy rewriting evaluated on the base instance does.
    chase_ref: bool,
    /// The budget-truncated tenant (its misses are their own cost class).
    tc: bool,
    /// Predicate of the pendant edge a write inserts and retracts.
    pendant_pred: &'static str,
}

const TENANTS: [TenantSpec; 4] = [
    TenantSpec {
        id: "path",
        theory: "e(X,Y) -> e(Y,Z).",
        prefix: "n",
        nodes: 1500,
        facts: &[("e", 2, 3000)],
        chase_ref: false,
        tc: false,
        pendant_pred: "e",
    },
    TenantSpec {
        id: "family",
        theory: "human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).",
        prefix: "m",
        nodes: 1500,
        facts: &[("mother", 2, 2000), ("human", 1, 300)],
        chase_ref: false,
        tc: false,
        pendant_pred: "mother",
    },
    TenantSpec {
        id: "guarded",
        theory: "p(X), e(X,Y) -> p(Y).\nq(X) -> p(X).",
        prefix: "g",
        nodes: 1500,
        facts: &[("e", 2, 2500), ("q", 1, 10)],
        chase_ref: true,
        tc: false,
        pendant_pred: "e",
    },
    TenantSpec {
        id: "tc",
        theory: "e(X,Y), e(Y,Z) -> e(X,Z).",
        prefix: "v",
        nodes: 40,
        facts: &[("e", 2, 60)],
        chase_ref: true,
        tc: true,
        pendant_pred: "e",
    },
];

/// A query shape: tenant, answer slots, and a body whose `{i}` are
/// variables and `{a}`/`{b}` anchor constants.
struct Shape {
    tenant: usize,
    head: &'static [usize],
    body: &'static str,
}

/// Warm shapes: resident after set-up, queried as α-renamed variants.
/// Each one's evaluation stops at the answer limit or after a short scan,
/// so the hit class is homogeneous and misses sit above it.
const WARM: [Shape; 16] = [
    Shape {
        tenant: 0,
        head: &[0],
        body: "e({0},{1}), e({1},{2})",
    },
    Shape {
        tenant: 0,
        head: &[0, 2],
        body: "e({0},{1}), e({1},{2})",
    },
    Shape {
        tenant: 0,
        head: &[0],
        body: "e({0},{1}), e({2},{1})",
    },
    Shape {
        tenant: 0,
        head: &[1],
        body: "e({0},{1})",
    },
    Shape {
        tenant: 1,
        head: &[0],
        body: "mother({0},{1})",
    },
    Shape {
        tenant: 1,
        head: &[1],
        body: "mother({0},{1}), mother({1},{2})",
    },
    Shape {
        tenant: 1,
        head: &[0],
        body: "human({0})",
    },
    Shape {
        tenant: 1,
        head: &[0, 1],
        body: "mother({0},{1})",
    },
    Shape {
        tenant: 2,
        head: &[],
        body: "p({0})",
    },
    Shape {
        tenant: 2,
        head: &[],
        body: "p({0}), e({0},{1})",
    },
    Shape {
        tenant: 2,
        head: &[],
        body: "p({0}), p({1})",
    },
    Shape {
        tenant: 2,
        head: &[],
        body: "q({0}), e({0},{1})",
    },
    Shape {
        tenant: 3,
        head: &[],
        body: "e(v0,{0}), e({0},v2)",
    },
    Shape {
        tenant: 3,
        head: &[0],
        body: "e(v1,{0})",
    },
    Shape {
        tenant: 3,
        head: &[0, 1],
        body: "e({0},{1})",
    },
    Shape {
        tenant: 3,
        head: &[0],
        body: "e({0},v3)",
    },
];

/// Cold shapes: anchored on a pair of constants that no earlier request
/// of the run used, so each one misses the cache. Each rewriting takes
/// ~1–4 ms of saturation work, which puts the miss class clearly above the
/// hits.
const COLD: [Shape; 4] = [
    Shape {
        tenant: 0,
        head: &[1],
        body: "e({a},{0}), e({0},{1}), e({2},{1}), e({2},{b}), e({2},{3}), e({4},{3}), e({4},{5}), e({5},{6})",
    },
    Shape {
        tenant: 0,
        head: &[],
        body: "e({a},{0}), e({b},{0}), e({0},{1}), e({2},{1}), e({2},{3}), e({3},{4}), e({4},{5})",
    },
    Shape {
        tenant: 1,
        head: &[0],
        body: "mother({a},{0}), mother({0},{1}), mother({1},{b}), mother({1},{2}), mother({2},{3}), mother({3},{4}), mother({4},{5})",
    },
    Shape {
        tenant: 1,
        head: &[0],
        body: "mother({a},{0}), mother({0},{b}), human({0}), mother({0},{1}), human({1}), mother({1},{2}), human({2})",
    },
];

const WARM_COPIES: usize = 2;
const BLOCKS: usize = 8;
/// Ops per epoch: each block's queries, plus one write per block on
/// `serve-write`.
const EPOCH_READ_OPS: usize = BLOCKS * (WARM.len() * WARM_COPIES + 1);
const EPOCH_WRITE_OPS: usize = EPOCH_READ_OPS + BLOCKS;

/// `serve-write`'s per-block write: (tenant, insert?). Each tenant's
/// pendant goes in and comes out once per epoch.
const WRITES: [(usize, bool); BLOCKS] = [
    (3, true),
    (0, true),
    (1, true),
    (2, true),
    (3, false),
    (0, false),
    (1, false),
    (2, false),
];

pub const CLASS_HIT: &str = "hit";
pub const CLASS_FUS_MISS: &str = "fus-miss";
pub const CLASS_TC_MISS: &str = "tc-miss";
pub const CLASS_WRITE: &str = "write";

fn render(
    shape: &Shape,
    var: &dyn Fn(usize) -> String,
    anchors: Option<(&str, &str)>,
    gen: bool,
) -> String {
    let mut body = String::new();
    let mut rest = shape.body;
    while let Some(open) = rest.find('{') {
        body.push_str(&rest[..open]);
        let close = open + rest[open..].find('}').expect("balanced template");
        let slot = &rest[open + 1..close];
        match (slot, anchors) {
            ("a", Some((a, _))) => body.push_str(a),
            ("b", Some((_, b))) => body.push_str(b),
            _ => body.push_str(&var(slot.parse().expect("numeric slot"))),
        }
        rest = &rest[close + 1..];
    }
    body.push_str(rest);
    let mut head: Vec<String> = Vec::new();
    if gen {
        head.push("A".into());
        head.push("B".into());
    }
    head.extend(shape.head.iter().map(|&i| var(i)));
    if head.is_empty() {
        format!("? :- {body}.")
    } else {
        format!("?({}) :- {body}.", head.join(","))
    }
}

/// The shape as the oracle evaluates it: anchors become the first two
/// answer variables, so one evaluation serves every anchor pair.
fn gen_query(shape: &Shape) -> String {
    render(shape, &|i| format!("X{i}"), Some(("A", "B")), true)
}

fn identity_query(shape: &Shape) -> String {
    render(shape, &|i| format!("X{i}"), None, false)
}

fn konst(name: &str) -> TermId {
    TermId::constant(Symbol::intern(name))
}

/// One tenant's generated inputs.
pub struct TenantData {
    pub text: String,
    pub nodes: Vec<String>,
    pub pendant: Fact,
}

/// Node names under the seed: a seeded permutation of `0..n`, except that
/// nodes 0–3 keep their own numbers so warm shapes may name them.
fn labels(prefix: &str, n: usize, rng: &mut Rng) -> Vec<String> {
    let mut ids: Vec<usize> = (4.min(n)..n).collect();
    rng.shuffle(&mut ids);
    (0..4.min(n))
        .chain(ids)
        .map(|i| format!("{prefix}{i}"))
        .collect()
}

/// A tenant's data. The graph's shape comes from a fixed per-tenant
/// stream, so every seed serves the same costs; the seed draws the node
/// names and the fact order.
pub fn tenant_data(t: usize, seed: u64) -> TenantData {
    let spec = &TENANTS[t];
    let mut shape = Rng::new(0x7e4a_0000 + t as u64);
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(t as u64));
    let nodes = labels(spec.prefix, spec.nodes, &mut rng);
    let mut facts: Vec<String> = Vec::new();
    for &(pred, arity, count) in spec.facts {
        for _ in 0..count {
            let a = &nodes[shape.below(nodes.len())];
            if arity == 1 {
                facts.push(format!("{pred}({a}). "));
            } else {
                let b = &nodes[shape.below(nodes.len())];
                facts.push(format!("{pred}({a},{b}). "));
            }
        }
    }
    rng.shuffle(&mut facts);
    let pendant = Fact::new(
        Pred::new(spec.pendant_pred, 2),
        vec![
            konst(&nodes[shape.below(nodes.len())]),
            konst(&format!("pw{}", spec.id)),
        ],
    );
    TenantData {
        text: facts.concat(),
        nodes,
        pendant,
    }
}

/// Which reference answers an op is checked against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RefKey {
    Warm {
        shape: usize,
        state: usize,
    },
    Cold {
        shape: usize,
        a: String,
        b: String,
        state: usize,
    },
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    Query { text: String, reference: RefKey },
    Write { insert: bool },
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    pub tenant: usize,
    pub kind: OpKind,
    /// The cost class the generator predicts.
    pub class: &'static str,
}

/// The seeded stream generator. It tracks cache residency and pendant
/// state, so each op carries its predicted class and its reference key.
pub struct Gen {
    writes: bool,
    rng: Rng,
    resident: [bool; WARM.len()],
    /// 1 while the tenant's pendant is inserted.
    state: [usize; 4],
    cold_used: [u64; COLD.len()],
    /// Per tenant, a seeded permutation of its constants (the anchor pool).
    anchors: Vec<Vec<String>>,
}

impl Gen {
    pub fn new(writes: bool, seed: u64, data: &[TenantData]) -> Gen {
        let mut rng = Rng::new(seed ^ 0x5e7e);
        let anchors = data
            .iter()
            .map(|d| {
                let mut v = d.nodes.clone();
                rng.shuffle(&mut v);
                v
            })
            .collect();
        Gen {
            writes,
            rng,
            resident: [true; WARM.len()],
            state: [0; 4],
            cold_used: [0; COLD.len()],
            anchors,
        }
    }

    /// The next anchor pair of a cold shape: use `k` maps to the pair
    /// `(k mod N, (k div N + k) mod N)` of the permuted pool, which is
    /// injective for `k < N²`, so no pair repeats within a run.
    fn anchor_pair(&mut self, c: usize) -> (String, String) {
        let pool = &self.anchors[COLD[c].tenant];
        let n = pool.len() as u64;
        let k = self.cold_used[c];
        assert!(k < n * n, "cold anchor pool exhausted");
        self.cold_used[c] += 1;
        (
            pool[(k % n) as usize].clone(),
            pool[((k / n + k) % n) as usize].clone(),
        )
    }

    fn query(&mut self, shape: usize, cold: bool) -> Op {
        let salt = self.rng.below(1 << 30);
        let var = move |i: usize| format!("V{salt}x{i}");
        if cold {
            let (a, b) = self.anchor_pair(shape);
            let s = &COLD[shape];
            Op {
                tenant: s.tenant,
                kind: OpKind::Query {
                    text: render(s, &var, Some((&a, &b)), false),
                    reference: RefKey::Cold {
                        shape,
                        a,
                        b,
                        state: self.state[s.tenant],
                    },
                },
                class: CLASS_FUS_MISS,
            }
        } else {
            let s = &WARM[shape];
            let class = if std::mem::replace(&mut self.resident[shape], true) {
                CLASS_HIT
            } else if TENANTS[s.tenant].tc {
                CLASS_TC_MISS
            } else {
                CLASS_FUS_MISS
            };
            Op {
                tenant: s.tenant,
                kind: OpKind::Query {
                    text: render(s, &var, None, false),
                    reference: RefKey::Warm {
                        shape,
                        state: self.state[s.tenant],
                    },
                },
                class,
            }
        }
    }

    /// One epoch: `BLOCKS` blocks, each an optional write followed by a
    /// shuffled fixed multiset of queries.
    pub fn epoch(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        for (b, &(tenant, insert)) in WRITES.iter().enumerate() {
            if self.writes {
                assert_eq!(
                    self.state[tenant],
                    usize::from(!insert),
                    "pendants alternate"
                );
                self.state[tenant] = usize::from(insert);
                for (i, s) in WARM.iter().enumerate() {
                    if s.tenant == tenant {
                        self.resident[i] = false;
                    }
                }
                ops.push(Op {
                    tenant,
                    kind: OpKind::Write { insert },
                    class: CLASS_WRITE,
                });
            }
            let mut block: Vec<(usize, bool)> = (0..WARM.len())
                .flat_map(|i| std::iter::repeat_n((i, false), WARM_COPIES))
                .collect();
            block.push((b % COLD.len(), true));
            self.rng.shuffle(&mut block);
            for (shape, cold) in block {
                ops.push(self.query(shape, cold));
            }
        }
        ops
    }

    /// `true` iff every pendant is out (the base instances).
    pub fn at_base(&self) -> bool {
        self.state.iter().all(|&s| s == 0)
    }
}

type Answers = HashSet<Vec<String>>;

/// Reference answers of a query text in a tenant state.
type Eval<'a> = Box<dyn Fn(&str, usize) -> Answers + 'a>;

/// Reference answers for every (shape, tenant state) the stream can ask.
pub struct Oracle {
    warm: HashMap<(usize, usize), Answers>,
    cold: HashMap<(usize, usize), HashMap<(String, String), Answers>>,
    empty: Answers,
}

fn render_tuples(tuples: Vec<Vec<TermId>>) -> Answers {
    tuples
        .into_iter()
        .filter(|t| t.iter().all(|x| x.is_const()))
        .map(|t| t.iter().map(|x| x.to_string()).collect())
        .collect()
}

/// Tenant instances per state: `[base, base + pendant]`.
pub fn tenant_states(data: &[TenantData]) -> Vec<[Instance; 2]> {
    data.iter()
        .map(|d| {
            let base = parse_instance(&d.text).expect("generated data parses");
            let mut with = base.clone();
            with.insert(d.pendant.clone());
            [base, with]
        })
        .collect()
}

impl Oracle {
    /// `guarded`/`tc`: certain answers read off the terminated chase.
    /// `path`/`family`: a roomy rewriting (which must saturate) evaluated
    /// on the instance.
    pub fn build(states: &[[Instance; 2]]) -> Oracle {
        let seq = Executor::sequential();
        let mut oracle = Oracle {
            warm: HashMap::new(),
            cold: HashMap::new(),
            empty: Answers::new(),
        };
        let mut eval: Vec<Eval> = Vec::new();
        for (t, spec) in TENANTS.iter().enumerate() {
            let theory = parse_theory(spec.theory).expect("tenant theory parses");
            if spec.chase_ref {
                let chased: Vec<Instance> = states[t]
                    .iter()
                    .map(|inst| {
                        let budget = ChaseBudget {
                            max_rounds: 64,
                            max_facts: 2_000_000,
                        };
                        let ch = chase_with(&theory, inst, budget, &seq);
                        assert_eq!(
                            ch.outcome,
                            ChaseOutcome::Fixpoint,
                            "{} chase terminates",
                            spec.id
                        );
                        ch.instance
                    })
                    .collect();
                eval.push(Box::new(move |q, s| {
                    let q = parse_query(q).expect("shape parses");
                    render_tuples(all_answers(&q, &chased[s], 0))
                }));
            } else {
                let inst = &states[t];
                eval.push(Box::new(move |q, s| {
                    let q = parse_query(q).expect("shape parses");
                    let r = rewrite_with_mode(
                        &theory,
                        &q,
                        ROOMY_BUDGET,
                        &seq,
                        SaturationMode::Pipelined,
                    )
                    .expect("rewrites");
                    assert!(
                        matches!(r.outcome, RewriteOutcome::Complete),
                        "reference rewriting saturates"
                    );
                    let mut out = Answers::new();
                    for d in r.ucq.disjuncts() {
                        out.extend(render_tuples(all_answers(d, &inst[s], 0)));
                    }
                    out
                }));
            }
        }
        for (i, shape) in WARM.iter().enumerate() {
            for s in 0..2 {
                oracle
                    .warm
                    .insert((i, s), eval[shape.tenant](&identity_query(shape), s));
            }
        }
        for (c, shape) in COLD.iter().enumerate() {
            for s in 0..2 {
                let mut by_pair: HashMap<(String, String), Answers> = HashMap::new();
                for mut t in eval[shape.tenant](&gen_query(shape), s) {
                    let rest = t.split_off(2);
                    let b = t.pop().expect("anchor b");
                    let a = t.pop().expect("anchor a");
                    by_pair.entry((a, b)).or_default().insert(rest);
                }
                oracle.cold.insert((c, s), by_pair);
            }
        }
        oracle
    }

    fn answers(&self, key: &RefKey) -> &Answers {
        match key {
            RefKey::Warm { shape, state } => &self.warm[&(*shape, *state)],
            RefKey::Cold { shape, a, b, state } => self.cold[&(*shape, *state)]
                .get(&(a.clone(), b.clone()))
                .unwrap_or(&self.empty),
        }
    }
}

/// Why the oracle failed a response.
#[derive(Debug, PartialEq, Eq)]
pub enum Fault {
    Rejected,
    /// A tuple outside the reference answers.
    Extra,
    /// `complete=true` but fewer tuples than the reference holds (up to
    /// the answer limit).
    Missing,
    /// A write that changed a different number of facts than asked.
    Write,
}

pub fn check(op: &Op, status: &ResponseStatus, oracle: &Oracle) -> Result<(), Fault> {
    match (&op.kind, status) {
        (_, ResponseStatus::Rejected { .. }) => Err(Fault::Rejected),
        (
            OpKind::Write { insert },
            ResponseStatus::Written {
                inserted,
                retracted,
                ..
            },
        ) => {
            let want = if *insert { (1, 0) } else { (0, 1) };
            if (*inserted, *retracted) == want {
                Ok(())
            } else {
                Err(Fault::Write)
            }
        }
        (
            OpKind::Query { reference, .. },
            ResponseStatus::Answered {
                complete, answers, ..
            },
        ) => {
            let want = oracle.answers(reference);
            if answers.iter().any(|t| !want.contains(t)) {
                return Err(Fault::Extra);
            }
            let distinct: HashSet<&Vec<String>> = answers.iter().collect();
            if *complete && distinct.len() < want.len().min(ANSWER_LIMIT) {
                return Err(Fault::Missing);
            }
            Ok(())
        }
        _ => Err(Fault::Write),
    }
}

fn observed_class(tenant: usize, status: &ResponseStatus) -> &'static str {
    match status {
        ResponseStatus::Answered {
            tier: Tier::Hit, ..
        } => CLASS_HIT,
        ResponseStatus::Answered {
            tier: Tier::Miss, ..
        } if TENANTS[tenant].tc => CLASS_TC_MISS,
        ResponseStatus::Answered {
            tier: Tier::Miss, ..
        } => CLASS_FUS_MISS,
        ResponseStatus::Written { .. } => CLASS_WRITE,
        ResponseStatus::Rejected { .. } => "rejected",
    }
}

/// Set-up: generate the tenants, register them, warm the cache with every
/// warm shape. Returns the data, the engine and the registration wall.
fn setup(seed: u64, threads: usize) -> (Vec<TenantData>, Engine, Duration) {
    let data: Vec<TenantData> = (0..TENANTS.len()).map(|t| tenant_data(t, seed)).collect();
    let mut engine = Engine::new(EngineConfig {
        threads,
        cache_bytes: CACHE_BYTES,
        rewrite_budget: SERVE_BUDGET,
        answer_limit: ANSWER_LIMIT,
    });
    let t0 = Instant::now();
    for (spec, d) in TENANTS.iter().zip(&data) {
        engine
            .register(spec.id, spec.theory, &d.text)
            .expect("tenant registers");
    }
    let register = t0.elapsed();
    let warm: Vec<CqRequest> = WARM
        .iter()
        .map(|s| CqRequest {
            theory: TENANTS[s.tenant].id.to_owned(),
            query: identity_query(s),
        })
        .collect();
    let responses = engine.run(warm);
    assert!(
        responses
            .iter()
            .all(|r| matches!(r.status, ResponseStatus::Answered { .. })),
        "warm shapes answer"
    );
    (data, engine, register)
}

fn submit(engine: &mut Engine, op: &Op, data: &[TenantData]) -> Response {
    let theory = TENANTS[op.tenant].id.to_owned();
    match &op.kind {
        OpKind::Query { text, .. } => engine.submit(CqRequest {
            theory,
            query: text.clone(),
        }),
        OpKind::Write { insert } => {
            let fact = data[op.tenant].pendant.clone();
            let batch = if *insert {
                WriteBatch::insert([fact])
            } else {
                WriteBatch::retract([fact])
            };
            engine.submit_write(FactWrite { theory, batch })
        }
    }
}

/// A compiled rewriting: one plan and its answer variables per disjunct.
type Plans = Vec<(JoinPlan, Vec<Var>)>;

/// The traced run's replay of a query's steps through the same public
/// functions the engine composes internally.
struct Replay {
    tracer: Tracer,
    theories: Vec<Theory>,
    cache: HashMap<(usize, CanonicalKey), Plans>,
    rewrites: u64,
    generated: u64,
    kept: u64,
    hom_searches: u64,
    hit_candidates: u64,
    hit_answers: u64,
    self_us_hits: Vec<f64>,
}

impl Replay {
    fn new() -> Replay {
        Replay {
            tracer: Tracer::new(),
            theories: TENANTS
                .iter()
                .map(|s| parse_theory(s.theory).expect("parses"))
                .collect(),
            cache: HashMap::new(),
            rewrites: 0,
            generated: 0,
            kept: 0,
            hom_searches: 0,
            hit_candidates: 0,
            hit_answers: 0,
            self_us_hits: Vec::new(),
        }
    }

    fn query(&mut self, root: usize, op_id: u64, op: &Op, text: &str, inst: &Instance) {
        let tr = &mut self.tracer;
        let q = tr.time("syntax.parse_query", root, op_id, || {
            parse_query(text).expect("parses")
        });
        let key = tr.time("hom.canonical_key", root, op_id, || canonical_key(&q));
        let ck = (op.tenant, key);
        if !self.cache.contains_key(&ck) {
            let name = if TENANTS[op.tenant].tc {
                "rewrite.tc"
            } else {
                "rewrite.fus"
            };
            let theory = &self.theories[op.tenant];
            let r = tr.time(name, root, op_id, || {
                rewrite_with_mode(
                    theory,
                    &q,
                    SERVE_BUDGET,
                    &Executor::sequential(),
                    SaturationMode::Pipelined,
                )
                .expect("rewrites")
            });
            self.rewrites += 1;
            self.generated += r.generated as u64;
            self.kept += r.ucq.len() as u64;
            self.hom_searches += r.hom.searches;
            let plans = tr.time("hom.compile", root, op_id, || {
                r.ucq
                    .disjuncts()
                    .iter()
                    .map(|d| {
                        (
                            JoinPlan::compile(d.atoms().to_vec(), d.var_names().len(), &[]),
                            d.answer_vars().to_vec(),
                        )
                    })
                    .collect()
            });
            self.cache.insert(ck.clone(), plans);
        }
        let plans = &self.cache[&ck];
        let (answers, candidates) =
            tr.time("hom.for_each_match", root, op_id, || execute(plans, inst));
        if op.class == CLASS_HIT {
            self.hit_candidates += candidates;
            self.hit_answers += answers;
        }
    }
}

/// The engine's execution step, rebuilt from public parts: every plan
/// enumerates matches, answers dedup, enumeration stops at the limit.
fn execute(plans: &Plans, inst: &Instance) -> (u64, u64) {
    let mut counters = MatchCounters::default();
    let mut seen: HashSet<Vec<TermId>> = HashSet::new();
    for (plan, vars) in plans {
        let done = plan.for_each_match(inst, &[], &mut counters, |asg| {
            seen.insert(
                vars.iter()
                    .map(|v| asg[v.index()].expect("bound"))
                    .collect(),
            );
            seen.len() < ANSWER_LIMIT
        });
        if !done {
            break;
        }
    }
    (seen.len() as u64, counters.candidates)
}

#[derive(Default)]
struct Pass {
    timed: Timed,
    attempted: u64,
    failed: u64,
    incomplete: u64,
    answered: u64,
    class_mismatches: u64,
    epochs: u64,
}

struct World<'a> {
    data: &'a [TenantData],
    states: &'a [[Instance; 2]],
    oracle: &'a Oracle,
}

/// Runs whole epochs until `seconds` have passed. Only the `submit`
/// calls are inside the timed wall; generation and checks are not.
fn pass(
    engine: &mut Engine,
    gen: &mut Gen,
    w: &World,
    seconds: f64,
    mut replay: Option<&mut Replay>,
) -> Pass {
    let mut p = Pass {
        timed: if gen.writes {
            Timed::new(4 * EPOCH_WRITE_OPS, 3_000)
        } else {
            Timed::new(8 * EPOCH_READ_OPS, 30_000)
        },
        ..Pass::default()
    };
    let start = Instant::now();
    let mut op_id = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let ops = gen.epoch();
        let mut responses = Vec::with_capacity(ops.len());
        for op in &ops {
            let resp = match replay.as_deref_mut() {
                None => {
                    let t0 = Instant::now();
                    let r = submit(engine, op, w.data);
                    let lat = t0.elapsed();
                    p.timed.record(op.class, lat);
                    r
                }
                Some(rp) => {
                    op_id += 1;
                    let root = rp.tracer.open("serve.op", NO_PARENT, op_id);
                    let t0 = Instant::now();
                    let start_ns = rp.tracer.now();
                    let r = submit(engine, op, w.data);
                    let lat = t0.elapsed();
                    let sub =
                        rp.tracer
                            .push("serve.submit", start_ns, rp.tracer.now(), root, op_id);
                    p.timed.record(op.class, lat);
                    match &op.kind {
                        OpKind::Query { text, reference } => {
                            let state = match reference {
                                RefKey::Warm { state, .. } | RefKey::Cold { state, .. } => *state,
                            };
                            let first = rp.tracer.spans.len();
                            rp.query(root, op_id, op, text, &w.states[op.tenant][state]);
                            if op.class == CLASS_HIT {
                                let steps: f64 =
                                    rp.tracer.spans[first..].iter().map(|s| s.ms()).sum();
                                rp.self_us_hits
                                    .push((rp.tracer.spans[sub].ms() - steps) * 1e3);
                            }
                        }
                        OpKind::Write { .. } => rp.cache.retain(|(t, _), _| *t != op.tenant),
                    }
                    rp.tracer.close(root);
                    r
                }
            };
            responses.push(resp);
        }
        for (op, resp) in ops.iter().zip(&responses) {
            p.attempted += 1;
            if let Err(fault) = check(op, &resp.status, w.oracle) {
                if p.failed < 5 {
                    println!("oracle: {fault:?} on {op:?}");
                }
                p.failed += 1;
            }
            if observed_class(op.tenant, &resp.status) != op.class {
                p.class_mismatches += 1;
            }
            if let ResponseStatus::Answered { complete, .. } = resp.status {
                p.answered += 1;
                p.incomplete += u64::from(!complete);
            }
        }
        p.epochs += 1;
    }
    p
}

pub fn run(writes: bool, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut registers = Vec::new();
    let (setup_s, (data, mut engine)) = median_setup(SETUP_REPEATS, || {
        let (d, e, reg) = setup(seed, threads);
        registers.push(reg.as_secs_f64());
        (d, e)
    });
    let states = tenant_states(&data);
    let oracle = Oracle::build(&states);
    let world = World {
        data: &data,
        states: &states,
        oracle: &oracle,
    };
    let mut gen = Gen::new(writes, seed, &data);
    let mut ok = true;
    let mut metrics = Metrics::default();
    let tail_p = 0.99;

    let untraced_s = if traced { seconds / 3.0 } else { seconds };
    let main = pass(&mut engine, &mut gen, &world, untraced_s, None);
    let mut attempted = main.attempted;
    let mut failed = main.failed;
    let mut mismatches = main.class_mismatches;
    if !traced {
        println!(
            "serve: threads={threads} epochs={} error_rate={:.6} incomplete_rate={:.6} evictions={}",
            main.epochs,
            main.failed as f64 / main.attempted.max(1) as f64,
            main.incomplete as f64 / main.answered.max(1) as f64,
            engine.stats().counters.evictions
        );
        main.timed
            .end_to_end(setup_s, tail_p, &mut metrics, &mut ok);
    } else {
        let before = engine.stats().counters;
        let mut rp = Replay::new();
        let traced_pass = pass(&mut engine, &mut gen, &world, seconds / 3.0, Some(&mut rp));
        let after = engine.stats().counters;
        attempted += traced_pass.attempted;
        failed += traced_pass.failed;
        mismatches += traced_pass.class_mismatches;
        let tr = &rp.tracer;
        let n = traced_pass.attempted.max(1) as f64;
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        let tier_ms = |classes: &[&str]| median(&traced_pass.timed.class_ms(classes));
        metrics.set("serve.hit_ms", tier_ms(&[CLASS_HIT]));
        metrics.set("serve.miss_ms", tier_ms(&[CLASS_FUS_MISS, CLASS_TC_MISS]));
        metrics.set("serve.write_ms", tier_ms(&[CLASS_WRITE]));
        metrics.set(
            "serve.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        metrics.set("serve.misses", misses as f64 / n);
        metrics.set(
            "serve.cache_invalidations",
            (after.cache_invalidations - before.cache_invalidations) as f64 / n,
        );
        metrics.set(
            "serve.evictions",
            (after.evictions - before.evictions) as f64 / n,
        );
        metrics.set(
            "serve.match_candidates",
            (after.match_candidates - before.match_candidates) as f64 / n,
        );
        metrics.set(
            "serve.incomplete_rate",
            traced_pass.incomplete as f64 / traced_pass.answered.max(1) as f64,
        );
        metrics.set("serve.self_us", median(&rp.self_us_hits));
        metrics.set(
            "syntax.parse_query_us",
            median(&tr.durations("syntax.parse_query")) * 1e3,
        );
        metrics.set("syntax.register_s", median(&registers));
        metrics.set(
            "hom.key_us",
            median(&tr.durations("hom.canonical_key")) * 1e3,
        );
        metrics.set(
            "hom.exec_us",
            median(&tr.durations("hom.for_each_match")) * 1e3,
        );
        metrics.set("hom.compile_us", median(&tr.durations("hom.compile")) * 1e3);
        metrics.set(
            "hom.candidates_per_answer",
            rp.hit_candidates as f64 / rp.hit_answers.max(1) as f64,
        );
        metrics.set("rewrite.fus_ms", median(&tr.durations("rewrite.fus")));
        metrics.set("rewrite.tc_ms", median(&tr.durations("rewrite.tc")));
        let rewrites = rp.rewrites.max(1) as f64;
        metrics.set("rewrite.generated", rp.generated as f64 / rewrites);
        metrics.set(
            "rewrite.kept_ratio",
            rp.kept as f64 / rp.generated.max(1) as f64,
        );
        metrics.set("rewrite.hom_searches", rp.hom_searches as f64 / rewrites);
        metrics.set(
            "trace.overhead",
            main.timed.ops_per_s() / traced_pass.timed.ops_per_s().max(1e-9),
        );
        metrics.set(
            "exec.dispatch_us",
            dispatch_us(&mut engine, seed, seconds / 3.0),
        );
        let name = if writes { "serve-write" } else { "serve-read" };
        crate::write_trace(tr, name, seed, &mut metrics);
        println!(
            "trace: ops_per_s untraced={:.1} traced={:.1}",
            main.timed.ops_per_s(),
            traced_pass.timed.ops_per_s()
        );
    }

    invariant(
        &mut ok,
        mismatches == 0,
        &format!("{mismatches} ops fell outside their predicted class"),
    );
    invariant(
        &mut ok,
        gen.at_base(),
        "every pendant is retracted at the end of the stream",
    );
    let c = engine.stats().counters;
    invariant(
        &mut ok,
        c.facts_inserted == c.facts_retracted,
        "writes are balanced",
    );
    invariant(&mut ok, c.rejected == 0, "no request is rejected");
    Outcome {
        attempted,
        failed,
        invariants_ok: ok,
        metrics,
    }
}

/// Hit latency at the engine's width minus hit latency at width 1, on the
/// same warm hit stream, alternating chunks between the two engines so
/// drift hits both alike. In microseconds.
fn dispatch_us(wide: &mut Engine, seed: u64, seconds: f64) -> f64 {
    let (data, mut narrow, _) = setup(seed, 1);
    let mut gen = Gen::new(false, seed ^ 0xd15, &data);
    let mut lat = [Vec::new(), Vec::new()];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let ops: Vec<Op> = gen
            .epoch()
            .into_iter()
            .filter(|o| o.class == CLASS_HIT)
            .collect();
        for (i, engine) in [&mut *wide, &mut narrow].into_iter().enumerate() {
            for op in &ops {
                let t0 = Instant::now();
                let r = submit(engine, op, &data);
                let us = t0.elapsed().as_secs_f64() * 1e6;
                if r.is_hit() {
                    lat[i].push(us);
                }
            }
        }
    }
    median(&lat[0]) - median(&lat[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_counts(ops: &[Op]) -> Vec<(&'static str, usize)> {
        let mut m: std::collections::BTreeMap<&'static str, usize> = Default::default();
        for o in ops {
            *m.entry(o.class).or_default() += 1;
        }
        m.into_iter().collect()
    }

    fn epochs(writes: bool, seed: u64, n: usize) -> Vec<Op> {
        let data: Vec<TenantData> = (0..4).map(|t| tenant_data(t, seed)).collect();
        let mut g = Gen::new(writes, seed, &data);
        (0..n).flat_map(|_| g.epoch()).collect()
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_same_classes() {
        for writes in [false, true] {
            let a = epochs(writes, 11, 3);
            assert_eq!(a, epochs(writes, 11, 3));
            let b = epochs(writes, 12, 3);
            assert_ne!(a, b);
            assert_eq!(class_counts(&a), class_counts(&b));
        }
    }

    #[test]
    fn streams_are_stationary() {
        for writes in [false, true] {
            let data: Vec<TenantData> = (0..4).map(|t| tenant_data(t, 5)).collect();
            let mut g = Gen::new(writes, 5, &data);
            for _ in 0..3 {
                let ops = g.epoch();
                assert!(g.at_base());
                let ins = ops
                    .iter()
                    .filter(|o| o.kind == OpKind::Write { insert: true })
                    .count();
                let ret = ops
                    .iter()
                    .filter(|o| o.kind == OpKind::Write { insert: false })
                    .count();
                assert_eq!(ins, ret);
                assert_eq!(ins, if writes { 4 } else { 0 });
            }
        }
    }

    #[test]
    fn warm_shapes_have_distinct_keys() {
        let keys: HashSet<(usize, CanonicalKey)> = WARM
            .iter()
            .map(|s| {
                (
                    s.tenant,
                    canonical_key(&parse_query(&identity_query(s)).unwrap()),
                )
            })
            .collect();
        assert_eq!(keys.len(), WARM.len());
    }

    /// The oracle flags an injected extra tuple and a dropped tuple, and
    /// passes the engine's own answer.
    #[test]
    fn oracle_flags_injected_faults() {
        let data: Vec<TenantData> = (0..4).map(|t| tenant_data(t, 3)).collect();
        let oracle = Oracle::build(&tenant_states(&data));
        let (_, mut engine, _) = setup(3, 1);
        let mut g = Gen::new(true, 3, &data);
        let ops = g.epoch();
        let mut extra = 0;
        let mut dropped = 0;
        for op in &ops {
            let resp = submit(&mut engine, op, &data);
            assert_eq!(check(op, &resp.status, &oracle), Ok(()), "{op:?}");
            if let ResponseStatus::Answered {
                tier,
                complete,
                truncated,
                disjuncts,
                candidates,
                answers,
            } = resp.status
            {
                let with = |answers| ResponseStatus::Answered {
                    tier,
                    complete,
                    truncated,
                    disjuncts,
                    candidates,
                    answers,
                };
                // Same arity as the real tuples; a boolean `true` has no
                // distinct tuple left to inject.
                let injected =
                    vec!["no_such_constant".to_owned(); answers.first().map_or(0, Vec::len)];
                if !answers.contains(&injected) {
                    let mut more = answers.clone();
                    more.push(injected);
                    assert_eq!(check(op, &with(more), &oracle), Err(Fault::Extra));
                    extra += 1;
                }
                if complete && !answers.is_empty() {
                    let mut fewer = answers.clone();
                    fewer.pop();
                    assert_eq!(check(op, &with(fewer), &oracle), Err(Fault::Missing));
                    dropped += 1;
                }
            }
        }
        assert!(extra > 0 && dropped > 0);
        let rejected = ResponseStatus::Rejected { reason: "x".into() };
        assert_eq!(check(&ops[1], &rejected, &oracle), Err(Fault::Rejected));
    }
}
