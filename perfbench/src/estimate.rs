//! `estimate_n16`: `eba_stat::estimate` of `E_basic/P_basic` at (16,4)
//! under sending omissions, horizon 7, stratified sampling, 100,000
//! trials on 2 workers. The trial hot path (sample → `step_round` →
//! judge) with no store, no query engine and no async runtime.

use std::time::Instant;

use eba_core::failures::random_faulty_set;
use eba_core::prelude::*;
use eba_sim::prelude::*;
use eba_stat::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::{metric, Headline, Metric, Outcome, RunConfig, Schedule, SetupTimer};
use crate::stats::{max, median};
use crate::trace::Tracer;

const STACK: &str = "E_basic/P_basic";
const N: usize = 16;
const T: usize = 4;
const TRIALS: u64 = 100_000;
const WORKERS: Parallelism = Parallelism::Fixed(2);
/// Trials of the 1-worker versus 2-worker comparison: 32 blocks.
const PREFIX_TRIALS: u64 = 32 * TRIAL_BLOCK;
/// Trials of the single-thread replay that splits a trial into its steps.
const REPLAY_TRIALS: u64 = 16_384;

/// Everything of an estimate except how long it took and on how many
/// workers: two estimates of one plan must agree on this bit for bit.
fn fingerprint(e: &Estimate) -> String {
    let mut e = e.clone();
    e.elapsed_seconds = 0.0;
    e.workers = 0;
    format!("{e:?}")
}

pub fn run(config: &RunConfig, tracer: &mut Tracer) -> Result<Outcome, EbaError> {
    let params = Params::new(N, T)?;
    let (mut setup, (stack, plan)) = SetupTimer::start(|| {
        let stack = NamedStack::by_name(STACK, params).expect("registered stack");
        let mut plan = TrialPlan::new(TRIALS, params.default_horizon());
        plan.seed = config.seed;
        (stack, plan)
    });
    plan.validate()?;
    let mut outcome = Outcome::default();
    let mut first: Option<String> = None;
    let mut validity = Vec::new();
    let mut schedule = Schedule::new(config);
    while let Some(traced) = schedule.next_pass() {
        setup.sample();
        let op = schedule.passes() as u64;
        let t0 = Instant::now();
        let est = if traced {
            tracer.span("stat.estimate", op, |_| estimate(&stack, &plan, WORKERS))?
        } else {
            estimate(&stack, &plan, WORKERS)?
        };
        let wall = t0.elapsed().as_secs_f64();
        if traced {
            outcome.traced_walls.push(wall);
        } else {
            outcome.untraced_walls.push(wall);
        }
        let print = fingerprint(&est);
        let same = first.as_ref().is_none_or(|f| *f == print);
        outcome.check(est.violations == 0 && est.trials == TRIALS && same, || {
            format!(
                "pass {op}: {} violations in {} trials{}",
                est.violations,
                est.trials,
                if same {
                    ""
                } else {
                    ", estimate differs from the first pass"
                }
            )
        });
        validity.push(est.validity());
        first.get_or_insert(print);
    }

    // Bit-identical across worker counts, on a prefix plan.
    let prefix = TrialPlan {
        trials: PREFIX_TRIALS,
        ..plan
    };
    let t0 = Instant::now();
    let sequential = estimate(&stack, &prefix, Parallelism::Sequential)?;
    let sequential_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parallel = estimate(&stack, &prefix, WORKERS)?;
    let parallel_s = t0.elapsed().as_secs_f64();
    outcome.check(fingerprint(&sequential) == fingerprint(&parallel), || {
        "the 2-worker estimate of the prefix plan differs from the sequential one".into()
    });

    let walls = &outcome.untraced_walls;
    let wall = median(walls);
    let rate = median(&walls.iter().map(|w| TRIALS as f64 / w).collect::<Vec<_>>());
    outcome.setup_s = setup.median();
    outcome.headline = Headline {
        rate_per_s: rate,
        p50_ms: wall * 1e3,
        tail_ms: max(walls) * 1e3,
        yield_ratio: median(&validity),
    };
    outcome.named = vec![metric("stat.trials_per_s", rate, "1/s")];
    if config.traced {
        let op = schedule.passes() as u64 + 1;
        replay(&plan, params, op, tracer, &mut outcome)?;
        outcome.layers = layers(tracer, sequential_s / (2.0 * parallel_s));
    }
    Ok(outcome)
}

/// Replays trials on one thread through the public pieces `estimate` is
/// built from, timing each step of a trial as a trace leaf: sampling the
/// adversary and inits, stepping the rounds into a sink that only keeps
/// the run, and judging the run. The trials follow the plan's stratified
/// mixture on the benchmark's own random stream.
fn replay(
    plan: &TrialPlan,
    params: Params,
    op: u64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<(), EbaError> {
    let ctx = Context::basic(params);
    let strata = plan.scheme.strata(ctx.model(), params.t());
    let samplers: Vec<AdversarySampler> = strata
        .iter()
        .map(|s| AdversarySampler::new(ctx.model(), params, plan.horizon, s.drop_prob))
        .collect();
    let cumulative: Vec<f64> = strata
        .iter()
        .scan(0.0, |acc, s| {
            *acc += s.weight;
            Some(*acc)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(crate::harness::mix(plan.seed, 1));
    let violations = tracer.span("stat.replay", op, |t| {
        let mut violations = 0u64;
        for _ in 0..REPLAY_TRIALS {
            let (pattern, inits) = t.leaf("stat.sample", || {
                let r: f64 = rng.random();
                let s = cumulative.iter().position(|&c| r < c).unwrap_or(0);
                let faulty = if strata[s].faulty == 0 {
                    AgentSet::empty()
                } else {
                    random_faulty_set(params, strata[s].faulty, &mut rng)
                };
                let pattern = samplers[s].sample_with_faulty(faulty, &mut rng);
                let inits: Vec<Value> = (0..params.n())
                    .map(|_| Value::from_bit(rng.random_range(0..2u8)))
                    .collect();
                (pattern, inits)
            });
            let mut kept: Option<EnumRun<BasicExchange>> = None;
            t.leaf("stat.step", || {
                stream_case_into(&ctx, &pattern, &inits, plan.horizon, &mut |run| {
                    kept = Some(run);
                    Ok(())
                })
            })?;
            let run = kept.expect("stream_case_into emits one run");
            if t.leaf("stat.judge", || run_violation(ctx.exchange(), &run))
                .is_some()
            {
                violations += 1;
            }
        }
        Ok::<_, EbaError>(violations)
    })?;
    outcome.check(violations == 0, || {
        format!("the replay judged {violations} of {REPLAY_TRIALS} trials violating")
    });
    Ok(())
}

fn layers(tracer: &Tracer, parallel_efficiency: f64) -> Vec<Metric> {
    let per_trial_us = |name| {
        let (calls, secs) = tracer.leaf_total(name);
        secs * 1e6 / calls.max(1) as f64
    };
    vec![
        metric(
            "stat.estimate_s",
            median(&tracer.span_secs("stat.estimate")),
            "s",
        ),
        metric("stat.sample_us", per_trial_us("stat.sample"), "us"),
        metric("stat.step_us", per_trial_us("stat.step"), "us"),
        metric("stat.judge_us", per_trial_us("stat.judge"), "us"),
        metric("stat.parallel_efficiency", parallel_efficiency, "ratio"),
    ]
}
