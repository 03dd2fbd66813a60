//! `chase-bulk` and `chase-write`: the materialization route.
//!
//! * `chase-bulk`: one op rebuilds the chase of one seeded bulk instance
//!   with `chase_sharded` on an `nproc`-wide pool. The instance mixes
//!   transitive-closure components (22-node paths with one back chord)
//!   with OWL 2 QL-style shallow individuals under the union theory, so
//!   enumeration, merge, storage insert and the sharded partition/merge do
//!   all the work.
//! * `chase-write`: an `IncrementalChase` session over the terminated TC
//!   chase of a seeded G(60,120) absorbs a stationary batch stream: four
//!   single-pendant insert batches, then one batch retracting all four.

use std::time::Instant;

use qr_chase::{
    chase_sharded, chase_with, Chase, ChaseBudget, ChaseOutcome, IncrementalChase, WriteBatch,
};
use qr_exec::Executor;
use qr_syntax::{parse_theory, Fact, Instance, Pred, Symbol, TermId, Theory};

use crate::trace::{Tracer, NO_PARENT};
use crate::util::{invariant, median, median_setup, ms, Metrics, Outcome, Rng, Timed};

/// Set-up repetitions per run (the median is reported): enough that a
/// few-millisecond set-up still gives a steady median.
const BULK_SETUP_REPEATS: usize = 51;
const WRITE_SETUP_REPEATS: usize = 21;

const TC_COMPONENTS: usize = 50;
const TC_NODES: usize = 22;
/// Every TC component gets one back chord spanning this many nodes.
const CHORD_SPAN: usize = 10;
const SHALLOW_INDIVIDUALS: usize = 1500;
/// Fewest chases an untraced chase-bulk run makes: ten beyond its p90.
const BULK_MIN_OPS: usize = 100;

const BULK_THEORY: &str = "e(X,Y), e(Y,Z) -> e(X,Z).\n\
    a(X) -> b(X). b(X) -> c(X). a(X) -> r(X,Y). r(X,Y) -> s(Y). s(X) -> c(X).";

fn bulk_budget() -> ChaseBudget {
    ChaseBudget {
        max_rounds: 24,
        max_facts: 4_000_000,
    }
}

fn fact(pred: &str, args: &[&str]) -> Fact {
    Fact::new(
        Pred::new(pred, args.len() as u32),
        args.iter()
            .map(|a| TermId::constant(Symbol::intern(a)))
            .collect::<Vec<_>>(),
    )
}

/// A seeded permutation of `0..n`.
fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut p);
    p
}

/// The seeded bulk instance: `TC_COMPONENTS` path+chord graphs and
/// `SHALLOW_INDIVIDUALS` individuals, a third of which carry a base role
/// edge. The shapes are fixed, so every seed costs the same; the seed
/// draws the constant names and the fact order.
pub fn bulk_instance(seed: u64) -> Instance {
    let mut rng = Rng::new(seed ^ 0xb01c);
    let comp = permutation(TC_COMPONENTS, &mut rng);
    let ind = permutation(SHALLOW_INDIVIDUALS, &mut rng);
    let mut facts = Vec::new();
    for (c, id) in comp.into_iter().enumerate() {
        let node = |i: usize| format!("g{id}n{i}");
        for i in 0..TC_NODES - 1 {
            facts.push(fact("e", &[&node(i), &node(i + 1)]));
        }
        let lo = c % (TC_NODES - CHORD_SPAN);
        facts.push(fact("e", &[&node(lo + CHORD_SPAN), &node(lo)]));
    }
    for (i, &name) in ind.iter().enumerate() {
        let p = format!("p{name}");
        facts.push(fact("a", &[&p]));
        if i % 3 == 0 {
            facts.push(fact("r", &[&p, &format!("q{name}")]));
        }
    }
    rng.shuffle(&mut facts);
    Instance::from_facts(facts)
}

/// Why a chase op failed the oracle.
#[derive(Debug, PartialEq, Eq)]
pub enum ChaseFault {
    FactCount,
    Facts,
    NotTerminated,
}

/// A chase result must terminate and hold exactly the reference facts.
pub fn check_chase(got: &Chase, reference: &Instance) -> Result<(), ChaseFault> {
    if got.outcome != ChaseOutcome::Fixpoint {
        Err(ChaseFault::NotTerminated)
    } else if got.instance.len() != reference.len() {
        Err(ChaseFault::FactCount)
    } else if got.instance != *reference {
        Err(ChaseFault::Facts)
    } else {
        Ok(())
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[derive(Default)]
struct BulkLayers {
    partition: Vec<f64>,
    shard: Vec<f64>,
    merge: Vec<f64>,
    enumerate: Vec<f64>,
    round_merge: Vec<f64>,
    insert_ns: Vec<f64>,
    triggers: u64,
    candidates: u64,
    facts_added: u64,
    bytes_per_fact: f64,
}

pub fn run_bulk(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (setup_s, db) = median_setup(BULK_SETUP_REPEATS, || bulk_instance(seed));
    let theory = parse_theory(BULK_THEORY).expect("bulk theory parses");
    let reference = chase_with(&theory, &db, bulk_budget(), &Executor::sequential());
    println!(
        "chase-bulk: base={} facts, chase={} facts, rounds={}, threads={}",
        db.len(),
        reference.instance.len(),
        reference.rounds,
        threads()
    );
    let exec = Executor::with_threads(threads());
    let mut ok = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let op = |tracer: Option<(&mut Tracer, &mut BulkLayers)>, timed: &mut Timed| {
        let t0 = Instant::now();
        let (ch, stats) = chase_sharded(&theory, &db, bulk_budget(), &exec);
        let lat = t0.elapsed();
        timed.record("chase", lat);
        if let Some((tr, layers)) = tracer {
            let id = timed.ops() as u64;
            let end = tr.now();
            let start = end - lat.as_nanos() as u64;
            let root = tr.push("chase.chase_sharded", start, end, NO_PARENT, id);
            let mut at = start;
            for (name, wall) in [
                ("chase.partition", stats.partition_wall),
                ("chase.shard", stats.shard_wall),
                ("chase.merge", stats.merge_wall),
            ] {
                let next = at + wall.as_nanos() as u64;
                tr.push(name, at, next.min(end), root, id);
                at = next;
            }
            layers.partition.push(ms(stats.partition_wall));
            layers.shard.push(ms(stats.shard_wall));
            layers.merge.push(ms(stats.merge_wall));
            layers.enumerate.push(ms(ch.stats.enum_wall()));
            layers.round_merge.push(ms(ch.stats.merge_wall()));
            layers.triggers = ch.stats.triggers();
            layers.candidates = ch.stats.candidates();
            layers.facts_added = ch.stats.facts_added() as u64;
            let facts: Vec<Fact> = ch.instance.iter().map(|f| f.to_fact()).collect();
            let n = facts.len();
            let rebuilt = tr.time("storage.from_facts", NO_PARENT, id, || {
                Instance::from_facts(facts)
            });
            let span = tr.spans.last().expect("just pushed");
            layers.insert_ns.push(span.ms() * 1e6 / n.max(1) as f64);
            let s = rebuilt.stats();
            layers.bytes_per_fact =
                (s.bytes_facts + s.bytes_index + s.bytes_tuples) as f64 / n.max(1) as f64;
        }
        check_chase(&ch, &reference.instance)
    };

    let mut metrics = Metrics::default();
    // The untraced pass runs at least `BULK_MIN_OPS` chases, so its p90
    // keeps ten samples beyond it even on a slowed machine.
    let mut run_pass =
        |secs: f64, min_ops: usize, mut tracer: Option<(&mut Tracer, &mut BulkLayers)>| {
            let mut timed = Timed::new(0, 40);
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < secs || timed.ops() < min_ops {
                attempted += 1;
                let tr = tracer.as_mut().map(|(t, l)| (&mut **t, &mut **l));
                if let Err(fault) = op(tr, &mut timed) {
                    println!("oracle: {fault:?}");
                    failed += 1;
                }
            }
            timed
        };
    let tail_p = 0.9;
    if !traced {
        let timed = run_pass(seconds, BULK_MIN_OPS, None);
        timed.end_to_end(setup_s, tail_p, &mut metrics, &mut ok);
    } else {
        let untraced = run_pass(seconds / 2.0, 0, None);
        let mut tr = Tracer::new();
        let mut layers = BulkLayers::default();
        let traced_timed = run_pass(seconds / 2.0, 0, Some((&mut tr, &mut layers)));
        metrics.set("chase.partition_ms", median(&layers.partition));
        metrics.set("chase.shard_ms", median(&layers.shard));
        metrics.set("chase.merge_ms", median(&layers.merge));
        metrics.set("chase.enum_ms", median(&layers.enumerate));
        metrics.set("chase.round_merge_ms", median(&layers.round_merge));
        metrics.set("chase.triggers", layers.triggers as f64);
        metrics.set("chase.candidates", layers.candidates as f64);
        metrics.set(
            "chase.useful_ratio",
            layers.facts_added as f64 / layers.triggers.max(1) as f64,
        );
        metrics.set("storage.insert_ns", median(&layers.insert_ns));
        metrics.set("storage.bytes_per_fact", layers.bytes_per_fact);
        metrics.set(
            "trace.overhead",
            untraced.ops_per_s() / traced_timed.ops_per_s().max(1e-9),
        );
        crate::write_trace(&tr, "chase-bulk", seed, &mut metrics);
    }
    Outcome {
        attempted,
        failed,
        invariants_ok: ok,
        metrics,
    }
}

const GRAPH_NODES: usize = 60;
const GRAPH_EDGES: usize = 120;
const PENDANTS: usize = 4;

fn tc_budget() -> ChaseBudget {
    ChaseBudget {
        max_rounds: 12,
        max_facts: 2_000_000,
    }
}

/// E11's G(60,120) — the same generator and seed as the harness's
/// `TC incr on G(60,120)` — as node-index edges.
fn e11_graph() -> Vec<(usize, usize)> {
    let lcg = |s: u64| {
        s.wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
    };
    let mut state = lcg(0xC0FFEE + GRAPH_NODES as u64);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    while edges.len() < GRAPH_EDGES {
        state = lcg(state);
        let a = (state >> 33) as usize % GRAPH_NODES;
        state = lcg(state);
        let b = (state >> 33) as usize % GRAPH_NODES;
        if !edges.contains(&(a, b)) {
            edges.push((a, b));
        }
    }
    edges
}

/// The base graph and its four pendant edges `e(v, w_j)`, attached at
/// nodes `5j + 1` of E11's graph as in the harness's `chase-incr`. The
/// seed draws node names and fact order only, so every seed does the
/// same work.
pub fn write_inputs(seed: u64) -> (Instance, Vec<Fact>) {
    let mut rng = Rng::new(seed ^ 0xc0ffee);
    let name = permutation(GRAPH_NODES, &mut rng);
    let v = |i: usize| format!("v{}", name[i]);
    let mut facts: Vec<Fact> = e11_graph()
        .into_iter()
        .map(|(a, b)| fact("e", &[&v(a), &v(b)]))
        .collect();
    rng.shuffle(&mut facts);
    let pendants = (0..PENDANTS)
        .map(|j| fact("e", &[&v(j * 5 + 1), &format!("w{j}")]))
        .collect();
    (Instance::from_facts(facts), pendants)
}

/// One cycle of the batch stream: each pendant inserted alone, then all
/// retracted together. Ends where it starts.
pub fn write_cycle(pendants: &[Fact]) -> Vec<(&'static str, WriteBatch)> {
    let mut cycle: Vec<(&'static str, WriteBatch)> = pendants
        .iter()
        .map(|p| ("insert", WriteBatch::insert([p.clone()])))
        .collect();
    cycle.push(("retract", WriteBatch::retract(pendants.iter().cloned())));
    cycle
}

/// Cold chases of the base plus the first `k` pendants, `k = 0..=4`: the
/// session must equal `refs[k]` after `k` inserts, and `refs[0]` after
/// each retract.
fn write_refs(theory: &Theory, base: &Instance, pendants: &[Fact]) -> Vec<Instance> {
    (0..=pendants.len())
        .map(|k| {
            let mut db = base.clone();
            db.extend(pendants[..k].iter().cloned());
            let ch = chase_with(theory, &db, tc_budget(), &Executor::sequential());
            assert_eq!(ch.outcome, ChaseOutcome::Fixpoint, "TC chase terminates");
            ch.instance
        })
        .collect()
}

pub fn run_write(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let theory = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").expect("tc parses");
    let exec = Executor::with_threads(threads());
    let (base, pendants) = write_inputs(seed);
    let (setup_s, mut session) = median_setup(WRITE_SETUP_REPEATS, || {
        IncrementalChase::new(&theory, &base, tc_budget(), &exec)
    });
    let refs = write_refs(&theory, &base, &pendants);
    let cycle = write_cycle(&pendants);
    let start_len = session.instance().len();
    println!(
        "chase-write: base={} facts, chase={} facts, threads={}",
        base.len(),
        start_len,
        threads()
    );
    let mut ok = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut metrics = Metrics::default();
    let mut run_pass = |session: &mut IncrementalChase,
                        secs: f64,
                        mut tracer: Option<&mut Tracer>| {
        let mut timed = Timed::new(20 * (PENDANTS + 1), 250);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < secs {
            for (k, (class, batch)) in cycle.iter().enumerate() {
                attempted += 1;
                let t0 = Instant::now();
                let start_ns = tracer.as_ref().map(|t| t.now());
                session.apply(&theory, batch, tc_budget(), &exec);
                let lat = t0.elapsed();
                timed.record(class, lat);
                if let (Some(tr), Some(s)) = (tracer.as_deref_mut(), start_ns) {
                    let name = if *class == "insert" {
                        "incr.insert"
                    } else {
                        "incr.retract"
                    };
                    let end = tr.now();
                    tr.push(name, s, end, NO_PARENT, attempted);
                }
                let want = if *class == "insert" {
                    &refs[k + 1]
                } else {
                    &refs[0]
                };
                if session.instance() != want {
                    println!("oracle: session differs from a cold chase after {class} batch {k}");
                    failed += 1;
                }
            }
        }
        timed
    };
    let tail_p = 0.9;
    if !traced {
        let timed = run_pass(&mut session, seconds, None);
        timed.end_to_end(setup_s, tail_p, &mut metrics, &mut ok);
    } else {
        let untraced = run_pass(&mut session, seconds / 2.0, None);
        let before = session.stats();
        let mut tr = Tracer::new();
        let traced_timed = run_pass(&mut session, seconds / 2.0, Some(&mut tr));
        let after = session.stats();
        let batches = (after.batches - before.batches).max(1) as f64;
        let replayed = after.replayed_facts - before.replayed_facts;
        let cone = after.cone_facts - before.cone_facts;
        metrics.set("incr.insert_ms", median(&tr.durations("incr.insert")));
        metrics.set("incr.retract_ms", median(&tr.durations("incr.retract")));
        metrics.set(
            "incr.seeded",
            (after.seeded_inserts - before.seeded_inserts) as f64 / batches,
        );
        metrics.set(
            "incr.rechases",
            (after.rechases - before.rechases) as f64 / batches,
        );
        metrics.set(
            "incr.truncated_retracts",
            (after.truncated_retracts - before.truncated_retracts) as f64 / batches,
        );
        metrics.set("incr.replayed_facts", replayed as f64 / batches);
        metrics.set("incr.cone_facts", cone as f64 / batches);
        metrics.set("incr.useful_ratio", cone as f64 / replayed.max(1) as f64);
        metrics.set(
            "trace.overhead",
            untraced.ops_per_s() / traced_timed.ops_per_s().max(1e-9),
        );
        crate::write_trace(&tr, "chase-write", seed, &mut metrics);
    }
    invariant(
        &mut ok,
        session.instance().len() == start_len
            && session.chase().round_snapshots[0].facts() == base.len(),
        "instance sizes after the stream equal those before it",
    );
    Outcome {
        attempted,
        failed,
        invariants_ok: ok,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_instance_is_seeded_and_sized_alike() {
        let a = bulk_instance(1);
        assert_eq!(a, bulk_instance(1));
        let b = bulk_instance(2);
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn write_stream_is_seeded_stationary_and_class_pinned() {
        let (base, pendants) = write_inputs(4);
        assert_eq!(write_inputs(4).1, pendants);
        let (_, other) = write_inputs(5);
        let classes =
            |c: &[(&'static str, WriteBatch)]| c.iter().map(|(k, _)| *k).collect::<Vec<_>>();
        assert_eq!(
            classes(&write_cycle(&pendants)),
            classes(&write_cycle(&other))
        );
        let theory = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let exec = Executor::sequential();
        let mut s = IncrementalChase::new(&theory, &base, tc_budget(), &exec);
        let before = s.instance().len();
        for (_, batch) in write_cycle(&pendants) {
            s.apply(&theory, &batch, tc_budget(), &exec);
        }
        assert_eq!(s.instance().len(), before);
        assert_eq!(s.chase().round_snapshots[0].facts(), base.len());
    }

    /// The chase oracle flags a dropped fact and a wrong fact.
    #[test]
    fn chase_oracle_flags_wrong_facts() {
        let (base, pendants) = write_inputs(6);
        let theory = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let refs = write_refs(&theory, &base, &pendants);
        let ch = chase_with(&theory, &base, tc_budget(), &Executor::sequential());
        assert_eq!(check_chase(&ch, &refs[0]), Ok(()));
        let mut dropped = ch.clone();
        dropped.instance = Instance::from_facts(ch.instance.iter().skip(1).map(|f| f.to_fact()));
        assert_eq!(check_chase(&dropped, &refs[0]), Err(ChaseFault::FactCount));
        let mut wrong = ch.clone();
        let mut facts: Vec<Fact> = ch.instance.iter().map(|f| f.to_fact()).collect();
        facts[0] = fact("e", &["v0", "nowhere"]);
        wrong.instance = Instance::from_facts(facts);
        assert_eq!(check_chase(&wrong, &refs[0]), Err(ChaseFault::Facts));
    }
}
