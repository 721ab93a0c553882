//! `fuzz_naive`: the coverage-guided fuzzer with the epistemic
//! `EngineOracle` on `E_naive/P_naive` under general omissions at (3,1),
//! 200 fuzz seeds a pass on 2 workers, each taking the next seed when it
//! finishes one. Each seed searches, shrinks its first violation and
//! confirms the shrunk case with `confirm_recursively`. It builds
//! hundreds of thousands of one-run systems through `from_runs`, the
//! opposite use of the query engine from `check_fip31`, and is the only
//! workload for mutation and shrinking.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use eba_core::prelude::*;
use eba_epistemic::prelude::*;
use eba_sim::prelude::*;

use crate::harness::{metric, mix, Headline, Metric, Outcome, RunConfig, Schedule, SetupTimer};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

const STACK: &str = "E_naive/P_naive@general_omission";
const SEEDS_PER_PASS: u64 = 200;
/// Threads fuzzing the seeds of a pass side by side.
const WORKERS: usize = 2;
/// Seeds fuzzed untimed before the first pass: without it the first timed
/// pass of a fresh process read up to 25% slower than the ones after it.
const WARM_UP_SEEDS: usize = 40;
/// The fuzzer's mutation budget per seed (the CLI's `--fuzz-iters`
/// default).
const ITERATIONS: usize = 2000;

type Naive = Context<NaiveExchange, NaiveZeroBiased>;

/// A [`CaseOracle`] owned by the benchmark around [`EngineOracle`]: counts
/// calls, notes the first violating one, and in traced passes times each
/// call as a trace leaf.
struct CountingOracle<'t> {
    inner: EngineOracle<NaiveExchange, NaiveZeroBiased>,
    tracer: Option<&'t mut Tracer>,
    calls: u64,
    first_violation: Option<u64>,
}

impl CaseOracle for CountingOracle<'_> {
    fn check(&mut self, case: &FuzzCase) -> Result<CaseOutcome, EbaError> {
        let inner = &mut self.inner;
        let out = match self.tracer.as_deref_mut() {
            Some(t) => t.leaf("epistemic.engine_oracle", || inner.check(case))?,
            None => inner.check(case)?,
        };
        self.calls += 1;
        if out.violation.is_some() && self.first_violation.is_none() {
            self.first_violation = Some(self.calls);
        }
        Ok(out)
    }
}

/// What one fuzz seed produced, comparable across passes.
#[derive(PartialEq, Debug)]
struct SeedResult {
    calls: u64,
    shrink_calls: u64,
    found: Option<(String, FuzzCase)>,
}

/// The failure-free starting cases of the CLI: all-zero, all-one and one
/// zero among ones.
fn seed_cases(ctx: &Naive) -> Result<Vec<FuzzCase>, EbaError> {
    let params = ctx.params();
    let n = params.n();
    let mut mixed = vec![Value::One; n];
    mixed[0] = Value::Zero;
    [vec![Value::Zero; n], vec![Value::One; n], mixed]
        .into_iter()
        .map(|inits| {
            Ok(FuzzCase {
                pattern: FailurePattern::new_in(ctx.model(), params, AgentSet::full(n))?,
                inits,
                horizon: params.default_horizon(),
            })
        })
        .collect()
}

/// Fuzzes one seed to a shrunk, recursively confirmed repro. In traced
/// passes the search and the confirmation each get a span.
fn fuzz_seed(
    ctx: &Naive,
    cases: &[FuzzCase],
    fuzz_seed: u64,
    op: u64,
    mut tracer: Option<&mut Tracer>,
    outcome: &mut Outcome,
) -> Result<SeedResult, EbaError> {
    let config = FuzzConfig {
        seed: fuzz_seed,
        iterations: ITERATIONS,
    };
    let search = |tracer: Option<&mut Tracer>| {
        let mut oracle = CountingOracle {
            inner: EngineOracle::new(*ctx),
            tracer,
            calls: 0,
            first_violation: None,
        };
        let report = fuzz(cases, &config, &mut oracle);
        (report, oracle.calls, oracle.first_violation)
    };
    let (report, calls, first_violation) = match tracer.as_deref_mut() {
        Some(t) => t.span("sim.fuzz", op, |t| search(Some(t))),
        None => search(None),
    };
    let report = report?;
    let shrink_calls = first_violation.map_or(0, |first| calls - first);
    let found = match report.found {
        None => None,
        Some(found) => {
            let confirm = || EngineOracle::new(*ctx).confirm_recursively(&found.shrunk);
            let confirmed = match tracer {
                Some(t) => t.span("epistemic.confirm_recursively", op, |_| confirm())?,
                None => confirm()?,
            };
            let same = confirmed
                .as_ref()
                .is_some_and(|v| v.kind == found.violation.kind);
            outcome.check(same, || {
                format!(
                    "fuzz seed {fuzz_seed}: {} not confirmed recursively ({confirmed:?})",
                    found.violation.kind
                )
            });
            Some((found.violation.kind, found.shrunk))
        }
    };
    Ok(SeedResult {
        calls,
        shrink_calls,
        found,
    })
}

/// What one worker of a pass did: its seeds' indices, wall times and
/// results, its output checks, and in traced passes its spans.
struct Worker {
    done: Vec<(usize, f64, SeedResult)>,
    outcome: Outcome,
    tracer: Option<Tracer>,
}

/// Fuzzes `seeds` on [`WORKERS`] threads and returns the wall time of the
/// whole pass with each seed's wall time and result, in seed order. In
/// traced passes every worker records into a tracer of its own, absorbed
/// into `tracer` afterwards.
fn fuzz_pass(
    ctx: &Naive,
    cases: &[FuzzCase],
    seeds: &[u64],
    op: u64,
    mut tracer: Option<&mut Tracer>,
    outcome: &mut Outcome,
) -> Result<(f64, Vec<(f64, SeedResult)>), EbaError> {
    let traced = tracer.is_some();
    let next = AtomicUsize::new(0);
    let work = || -> Result<Worker, EbaError> {
        let mut w = Worker {
            done: Vec::new(),
            outcome: Outcome::default(),
            tracer: traced.then(Tracer::new),
        };
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(&seed) = seeds.get(index) else {
                break;
            };
            let t0 = Instant::now();
            let result = match w.tracer.as_mut() {
                Some(t) => t.span("fuzz.seed", op, |t| {
                    fuzz_seed(ctx, cases, seed, op, Some(t), &mut w.outcome)
                })?,
                None => fuzz_seed(ctx, cases, seed, op, None, &mut w.outcome)?,
            };
            w.done.push((index, t0.elapsed().as_secs_f64(), result));
        }
        Ok(w)
    };
    let t0 = Instant::now();
    let workers: Vec<Result<Worker, EbaError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS).map(|_| s.spawn(work)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a fuzz worker does not panic"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut slots: Vec<Option<(f64, SeedResult)>> = seeds.iter().map(|_| None).collect();
    for w in workers {
        let w = w?;
        outcome.absorb_checks(w.outcome);
        if let (Some(t), Some(mine)) = (tracer.as_deref_mut(), w.tracer) {
            t.absorb(mine);
        }
        for (i, secs, result) in w.done {
            slots[i] = Some((secs, result));
        }
    }
    let timed = slots
        .into_iter()
        .map(|s| s.expect("every seed of a pass is fuzzed"));
    Ok((wall, timed.collect()))
}

/// The shrunk repro printed as a `.eba` scenario must parse back and
/// replay on the simulator's trace oracle to the same violation.
fn replay_repro(ctx: &Naive, kind: &str, case: &FuzzCase) -> Result<bool, EbaError> {
    let text = ScenarioSpec::from_pattern(
        ctx.name(),
        ctx.model(),
        &case.pattern,
        &case.inits,
        case.horizon,
        None,
    )
    .print();
    let Ok(parsed) = parse_scenario(&text) else {
        return Ok(false);
    };
    let spec = parsed.spec;
    let replayed = FuzzCase {
        pattern: spec.to_pattern()?,
        inits: spec.inits.clone(),
        horizon: spec.horizon,
    };
    let verdict = TraceOracle::new(ctx).check(&replayed)?.violation;
    Ok(verdict.is_some_and(|v| v.kind == kind) && replayed == *case)
}

pub fn run(config: &RunConfig, tracer: &mut Tracer) -> Result<Outcome, EbaError> {
    let params = Params::new(3, 1)?;
    let (mut setup, prepared) = SetupTimer::start(|| {
        let ctx = Context::naive(params).with_model(FailureModel::GeneralOmission);
        seed_cases(&ctx).map(|cases| (ctx, cases))
    });
    let (ctx, cases) = prepared?;
    debug_assert_eq!(ctx.qualified_name(), STACK);
    // Seed set `k` holds the fuzz seeds `mix(seed, 200k .. 200k + 199)`.
    let seed_set =
        |k: u64| (0..SEEDS_PER_PASS).map(move |i| mix(config.seed, k * SEEDS_PER_PASS + i));
    let mut outcome = Outcome::default();
    let warm_up: Vec<u64> = seed_set(0).take(WARM_UP_SEEDS).collect();
    fuzz_pass(&ctx, &cases, &warm_up, 0, None, &mut outcome)?;
    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    let mut hit_ratio = 0.0;
    let mut untraced_results: Vec<Vec<SeedResult>> = Vec::new();
    let mut traced_results: Vec<SeedResult> = Vec::new();
    let mut schedule = Schedule::new(config);
    while let Some(traced) = schedule.next_pass() {
        setup.sample();
        let op = schedule.passes() as u64;
        // Every pass of an untraced run fuzzes fresh seeds, so the run's
        // statistics pool every seed it reached. A traced pass repeats
        // the seeds of the untraced pass before it.
        let set = untraced_results.len() as u64 - u64::from(traced);
        let seeds: Vec<u64> = seed_set(set).collect();
        let pass_tracer = traced.then_some(&mut *tracer);
        let (wall, timed) = fuzz_pass(&ctx, &cases, &seeds, op, pass_tracer, &mut outcome)?;
        let (walls, results): (Vec<f64>, Vec<SeedResult>) = timed.into_iter().unzip();
        if traced {
            outcome.traced_walls.push(wall);
            let untraced = &untraced_results[set as usize];
            for ((seed, got), want) in seed_set(set).zip(&results).zip(untraced) {
                outcome.check(got == want, || {
                    format!("fuzz seed {seed}: the traced search differs from the untraced one")
                });
            }
            traced_results.extend(results);
            continue;
        }
        outcome.untraced_walls.push(wall);
        latencies.extend(walls);
        rates.push(results.iter().map(|r| r.calls).sum::<u64>() as f64 / wall);
        if set == 0 {
            // The hit ratio is over the first 200 seeds only, so it does
            // not depend on how many passes a run reaches.
            let hits = results.iter().filter(|r| r.found.is_some()).count();
            hit_ratio = hits as f64 / SEEDS_PER_PASS as f64;
            for (seed, r) in seed_set(0).zip(&results) {
                if let Some((kind, shrunk)) = &r.found {
                    let ok = replay_repro(&ctx, kind, shrunk)?;
                    outcome.check(ok, || {
                        format!("fuzz seed {seed}: the printed repro does not replay to {kind}")
                    });
                }
            }
        }
        untraced_results.push(results);
    }

    // After timing: the search is deterministic in its seed.
    for (seed, want) in seed_set(0).zip(&untraced_results[0]).take(8) {
        let again = fuzz_seed(&ctx, &cases, seed, 0, None, &mut outcome)?;
        outcome.check(again == *want, || {
            format!("fuzz seed {seed}: a second search differs from the first")
        });
    }

    let rate = median(&rates);
    let (p50, p95) = (
        percentile(&latencies, 50.0) * 1e3,
        percentile(&latencies, 95.0) * 1e3,
    );
    outcome.setup_s = setup.median();
    outcome.headline = Headline {
        rate_per_s: rate,
        p50_ms: p50,
        tail_ms: p95,
        yield_ratio: hit_ratio,
    };
    outcome.named = vec![
        metric("fuzz.cases_per_s", rate, "1/s"),
        metric("fuzz.repro_p50_ms", p50, "ms"),
        metric("fuzz.repro_p95_ms", p95, "ms"),
        metric("fuzz.hit_ratio", hit_ratio, "ratio"),
    ];
    if config.traced {
        outcome.layers = layers(tracer, &traced_results);
    }
    Ok(outcome)
}

fn layers(tracer: &Tracer, results: &[SeedResult]) -> Vec<Metric> {
    let (calls, oracle_secs) = tracer.leaf_total("epistemic.engine_oracle");
    let seeds = results.len().max(1) as f64;
    let hits = results.iter().filter(|r| r.found.is_some()).count().max(1) as f64;
    let confirm: Vec<f64> = tracer.span_secs("epistemic.confirm_recursively");
    let passes = tracer.span_secs("fuzz.seed").len().max(1) as f64;
    vec![
        metric(
            "fuzz.oracle_us",
            oracle_secs * 1e6 / calls.max(1) as f64,
            "us",
        ),
        metric("fuzz.oracle_calls", calls as f64 / seeds, "count"),
        metric(
            "fuzz.shrink_calls",
            results.iter().map(|r| r.shrink_calls).sum::<u64>() as f64 / hits,
            "count",
        ),
        metric(
            "fuzz.search_self_s",
            tracer.self_secs("sim.fuzz").iter().sum::<f64>() / passes,
            "s",
        ),
        metric(
            "fuzz.confirm_ms",
            confirm.iter().sum::<f64>() * 1e3 / hits,
            "ms",
        ),
    ]
}
