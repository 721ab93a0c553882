//! `check_fip31`: exhaustive epistemic model check of `E_fip/P_opt` at
//! (3,1) under sending omissions, horizon 4. The only workload where the
//! enumerator, the interned `StateArena`/`RunStore`, the class partition
//! and the batched query engine do the work. Its inputs are fixed, so the
//! seed is only recorded.

use std::time::Instant;

use eba_core::kbp::KnowledgeBasedProgram;
use eba_core::prelude::*;
use eba_epistemic::prelude::*;
use eba_sim::prelude::*;

use crate::harness::{metric, Headline, Outcome, RunConfig, Schedule, SetupTimer};
use crate::stats::{max, median};
use crate::trace::Tracer;

const HORIZON: u32 = 4;
const LIMIT: usize = 10_000_000;
const WORKERS: Parallelism = Parallelism::Fixed(2);
const RUNS: usize = 98_312;
const POINTS: usize = 491_560;
const DISTINCT_STATES: usize = 68_022;
const COMPARISONS: usize = RUNS * HORIZON as usize * 3;

type Fip = Context<FipExchange, POpt>;

/// The verdicts of one pass, in a form two passes can be compared by.
#[derive(PartialEq)]
struct Verdicts {
    runs: usize,
    points: usize,
    distinct: usize,
    spec: Vec<String>,
    mismatches: usize,
    comparisons: usize,
    plan_nodes: usize,
    battery: Vec<Verdict>,
}

fn verdicts(
    sys: &InterpretedSystem<FipExchange>,
    spec: &[SpecVerdict],
    implements: &ImplementsReport,
    battery: Vec<Verdict>,
) -> Verdicts {
    Verdicts {
        runs: sys.run_count(),
        points: sys.point_count(),
        distinct: sys.distinct_states(),
        spec: spec.iter().map(|v| v.property.clone()).collect(),
        mismatches: implements.mismatches.len(),
        comparisons: implements.comparisons,
        plan_nodes: implements.evaluated_nodes,
        battery,
    }
}

/// One pass through the public entry points, as a user calls them.
fn plain_pass(ctx: &Fip, formulas: &[Formula]) -> Result<(f64, PassResult), EbaError> {
    let t0 = Instant::now();
    let sys = InterpretedSystem::from_context(*ctx, HORIZON, LIMIT, WORKERS)?;
    let spec = check_spec(&sys);
    let implements = check_implements(&sys, ctx.protocol(), KnowledgeBasedProgram::P1);
    let battery = sys.query_batch(formulas);
    let wall = t0.elapsed().as_secs_f64();
    let verdicts = verdicts(&sys, &spec, &implements, battery);
    Ok((wall, PassResult { sys, verdicts }))
}

struct PassResult {
    sys: InterpretedSystem<FipExchange>,
    verdicts: Verdicts,
}

/// A [`RunSink`] owned by the benchmark: interns each run into a
/// [`RunStore`] and times every `push_run` as a trace leaf.
struct TimedStore<'t> {
    store: RunStore<FipExchange>,
    tracer: &'t mut Tracer,
}

impl RunSink<FipExchange> for TimedStore<'_> {
    fn accept(&mut self, run: EnumRun<FipExchange>) -> Result<(), EbaError> {
        let store = &mut self.store;
        self.tracer
            .leaf("sim.store.push_run", || store.push_run(&run))
    }
}

/// The same pass split at each public call, each call in a span:
/// `from_context` is `enumerate_into` a `RunStore` followed by
/// `from_store`.
fn traced_pass(
    ctx: &Fip,
    formulas: &[Formula],
    op: u64,
    tracer: &mut Tracer,
) -> Result<(f64, PassResult), EbaError> {
    let t0 = Instant::now();
    let sys = tracer.span("check.pass", op, |t| {
        let store = t.span("sim.enumerate", op, |t| {
            let mut sink = TimedStore {
                store: RunStore::new(ctx.params().n(), HORIZON),
                tracer: t,
            };
            enumerate_into(ctx, HORIZON, LIMIT, WORKERS, &mut sink)?;
            Ok::<_, EbaError>(sink.store)
        })?;
        let sys = t.span("epistemic.system.from_store", op, |_| {
            InterpretedSystem::from_store(*ctx.exchange(), store)
        })?;
        let spec = t.span("epistemic.query.check_spec", op, |_| check_spec(&sys));
        let implements = t.span("epistemic.query.check_implements", op, |_| {
            check_implements(&sys, ctx.protocol(), KnowledgeBasedProgram::P1)
        });
        let battery = t.span("epistemic.query.query_batch", op, |_| {
            sys.query_batch(formulas)
        });
        Ok::<_, EbaError>((sys, spec, implements, battery))
    })?;
    let wall = t0.elapsed().as_secs_f64();
    let (sys, spec, implements, battery) = sys;
    let verdicts = verdicts(&sys, &spec, &implements, battery);
    Ok((wall, PassResult { sys, verdicts }))
}

/// Checks the battery's failing roots against the independent recursive
/// evaluator: the same first falsifying point.
fn recheck_failing_roots(
    sys: &InterpretedSystem<FipExchange>,
    formulas: &[Formula],
    battery: &[Verdict],
    outcome: &mut Outcome,
) {
    for (f, verdict) in formulas.iter().zip(battery) {
        let Some(point) = verdict.counterexample else {
            continue;
        };
        let first_unset = sys
            .eval_recursive(f)
            .first_unset()
            .map(|p| (sys.run_of(p as PointId), sys.time_of(p as PointId)));
        outcome.check(first_unset == Some(point), || {
            format!("battery root {f:?}: engine counterexample {point:?}, eval_recursive {first_unset:?}")
        });
    }
}

pub fn run(config: &RunConfig, tracer: &mut Tracer) -> Result<Outcome, EbaError> {
    let params = Params::new(3, 1)?;
    let (mut setup, (ctx, formulas)) =
        SetupTimer::start(|| (Context::fip(params), standard_battery(3)));
    let mut outcome = Outcome::default();
    let spec_properties = eba_spec_properties(3).len();
    let mut first: Option<Verdicts> = None;
    let mut yields = Vec::new();
    let mut layer_counts = Vec::new();
    let mut schedule = Schedule::new(config);
    while let Some(traced) = schedule.next_pass() {
        setup.sample();
        let op = schedule.passes() as u64;
        let (wall, pass) = if traced {
            traced_pass(&ctx, &formulas, op, tracer)?
        } else {
            plain_pass(&ctx, &formulas)?
        };
        if traced {
            outcome.traced_walls.push(wall);
        } else {
            outcome.untraced_walls.push(wall);
        }
        let v = &pass.verdicts;
        let ok = v.runs == RUNS
            && v.points == POINTS
            && v.distinct == DISTINCT_STATES
            && v.spec.is_empty()
            && v.mismatches == 0
            && v.comparisons == COMPARISONS
            && v.battery.len() == formulas.len()
            && first.as_ref().is_none_or(|f| f == v);
        outcome.check(ok, || {
            format!(
                "pass {op}: {} runs, {} points, {} states, spec failures {:?}, \
                 {} implements mismatches of {} comparisons{}",
                v.runs,
                v.points,
                v.distinct,
                v.spec,
                v.mismatches,
                v.comparisons,
                if first.as_ref().is_some_and(|f| f != v) {
                    ", verdicts differ from the first pass"
                } else {
                    ""
                }
            )
        });
        yields.push((spec_properties - v.spec.len()) as f64 / spec_properties as f64);
        if traced {
            layer_counts.push((v.runs, v.distinct, v.plan_nodes, v.comparisons));
        }
        if first.is_none() {
            recheck_failing_roots(&pass.sys, &formulas, &v.battery, &mut outcome);
            first = Some(pass.verdicts);
        }
    }

    let walls = &outcome.untraced_walls;
    let wall = median(walls);
    outcome.setup_s = setup.median();
    outcome.headline = Headline {
        rate_per_s: median(&walls.iter().map(|w| RUNS as f64 / w).collect::<Vec<_>>()),
        p50_ms: wall * 1e3,
        tail_ms: max(walls) * 1e3,
        yield_ratio: median(&yields),
    };
    outcome.named = vec![metric("mc.wall_s", wall, "s")];
    if config.traced {
        outcome.layers = layers(tracer, &layer_counts, params.n());
    }
    Ok(outcome)
}

fn layers(
    tracer: &Tracer,
    counts: &[(usize, usize, usize, usize)],
    n: usize,
) -> Vec<crate::harness::Metric> {
    let (_, push_secs) = tracer.leaf_total("sim.store.push_run");
    let passes = counts.len().max(1) as f64;
    let (runs, distinct, plan_nodes, comparisons) = counts.first().copied().unwrap_or_default();
    vec![
        metric(
            "sim.enumerate.wall_s",
            median(&tracer.span_secs("sim.enumerate")),
            "s",
        ),
        metric(
            "sim.enumerate.self_s",
            median(&tracer.self_secs("sim.enumerate")),
            "s",
        ),
        metric("sim.enumerate.runs", runs as f64, "count"),
        metric("sim.store.intern_s", push_secs / passes, "s"),
        metric("sim.store.distinct_states", distinct as f64, "count"),
        metric(
            "sim.store.distinct_ratio",
            distinct as f64 / (n * POINTS) as f64,
            "ratio",
        ),
        metric(
            "epistemic.system.partition_s",
            median(&tracer.span_secs("epistemic.system.from_store")),
            "s",
        ),
        metric(
            "epistemic.query.spec_s",
            median(&tracer.span_secs("epistemic.query.check_spec")),
            "s",
        ),
        metric(
            "epistemic.query.implements_s",
            median(&tracer.span_secs("epistemic.query.check_implements")),
            "s",
        ),
        metric(
            "epistemic.query.battery_s",
            median(&tracer.span_secs("epistemic.query.query_batch")),
            "s",
        ),
        metric("epistemic.query.plan_nodes", plan_nodes as f64, "count"),
        metric(
            "epistemic.implements.comparisons",
            comparisons as f64,
            "count",
        ),
    ]
}
