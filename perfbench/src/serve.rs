//! The serving workloads. A weight set is pruned, planned and registered
//! with a [`Server`]; then two timed phases run:
//!
//! * **Phase A (open loop):** seeded Poisson arrivals at one fixed rate.
//!   Each request is timed from its *due* time to its response, so a
//!   stall also charges the requests queued behind it. A refused or
//!   failed request counts as `+inf`.
//! * **Phase B (backlog drain):** a fixed backlog is submitted at once and
//!   drained; repeated while time remains, reporting the upper quartile
//!   of the drains' rates.
//!
//! Every response is compared bit for bit with the per-call reference
//! (`MatmulPlan::run_oneshot`), computed outside the timed phases.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use venom_format::SparsityMask;
use venom_fp16::Half;
use venom_pruner::magnitude;
use venom_runtime::serve::ResponseHandle;
use venom_runtime::{
    CacheStats, Engine, MatmulFormat, MatmulPlan, PlanCache, PlanKey, ServeConfig, ServeError,
    Server, VnmConfig,
};
use venom_tensor::{random, Matrix};

use crate::gen::{self, Fingerprint, Rng};
use crate::stats::{self, Metrics};
use crate::trace::{self, Span};
use crate::wrap::{self, BuildLog, Builder};
use crate::{bit_equal, device, nproc, peak_rss_mb, Outcome, PhaseCount, RunOpts};

/// How one weight is pruned.
#[derive(Clone, Copy, Debug)]
pub enum Scheme {
    Vnm(usize, usize, usize),
    TwoFour,
    Unstructured(f64),
    /// Square blocks of the given side, at the given sparsity.
    Block(usize, f64),
}

impl Scheme {
    pub fn prune(&self, w: &Matrix<f32>) -> SparsityMask {
        match *self {
            Scheme::Vnm(v, n, m) => magnitude::prune_vnm(w, VnmConfig::new(v, n, m)),
            Scheme::TwoFour => magnitude::prune_nm(w, venom_format::NmConfig::new(2, 4)),
            Scheme::Unstructured(s) => magnitude::prune_unstructured(w, s),
            Scheme::Block(v, s) => magnitude::prune_blockwise(w, v, s),
        }
    }
}

/// How a registered key's plan is built.
#[derive(Clone, Copy, Debug)]
pub enum Planner {
    /// `Engine::serve_builder` pinned to one format.
    Format(MatmulFormat),
    /// `Engine::plan_auto`: the cost model picks the format.
    Auto,
}

#[derive(Clone, Debug)]
pub struct ServeSpec {
    pub name: &'static str,
    pub planner: Planner,
    /// `(rows, cols, scheme)` of every weight; one key each.
    pub weights: Vec<(usize, usize, Scheme)>,
    /// Phase-A arrival rate, requests per second.
    pub rate: f64,
    /// Zipf exponent of the key choice; `None` for a single key.
    pub zipf: Option<f64>,
    /// Requests per phase-B drain.
    pub backlog: usize,
    /// Keys from most to least requested (rank → key). Fixed per
    /// workload, so every seed stresses the same keys.
    pub popularity: Vec<usize>,
    /// When set, the plan-cache byte budget holds the plans of every key
    /// but this many of the least requested, plus the largest of those
    /// plans: the cold keys evict each other (and the coolest warm keys).
    /// `None`: the library's default budget.
    pub cold_keys: Option<usize>,
    /// Distinct operands generated per input width.
    pub pool: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

/// Requests per coalesced batch, at most.
pub const MAX_BATCH: usize = 8;
/// Activation columns (tokens) per request.
pub const REQ_COLS: usize = 8;
/// Share of `--seconds` given to phase A; phase B gets the rest.
const PHASE_A_SHARE: f64 = 0.6;

/// One BERT-base layer's six weight shapes.
const BERT_LAYER: [(usize, usize); 6] = [
    (768, 768),
    (768, 768),
    (768, 768),
    (768, 768),
    (3072, 768),
    (768, 3072),
];

impl ServeSpec {
    /// One fig09-shaped V:N:M weight; the cache always hits after warm-up.
    pub fn hot() -> Self {
        ServeSpec {
            name: "serve_hot",
            planner: Planner::Format(MatmulFormat::Vnm),
            weights: vec![(1024, 768, Scheme::Vnm(128, 2, 10))],
            rate: 250.0,
            zipf: None,
            backlog: 1024,
            popularity: vec![0],
            cold_keys: None,
            pool: 32,
            setup_reps: 9,
        }
    }

    /// Four BERT-base layers under five pruning schemes, `plan_auto`
    /// builders, Zipf keys and a cache budget below the working set.
    pub fn churn() -> Self {
        let schemes = [
            Scheme::Vnm(64, 2, 8),
            Scheme::Vnm(128, 2, 20),
            Scheme::TwoFour,
            Scheme::Unstructured(0.95),
            Scheme::Block(32, 0.90),
        ];
        let weights = (0..4)
            .flat_map(|layer| {
                BERT_LAYER
                    .iter()
                    .enumerate()
                    .map(move |(t, &(r, c))| (r, c, schemes[(layer * 6 + t) % schemes.len()]))
            })
            .collect();
        ServeSpec {
            name: "serve_churn",
            planner: Planner::Auto,
            weights,
            rate: 100.0,
            zipf: Some(1.2),
            backlog: 512,
            popularity: CHURN_POPULARITY.to_vec(),
            cold_keys: Some(3),
            pool: 4,
            setup_reps: 3,
        }
    }

    pub fn concurrency(&self) -> usize {
        nproc()
    }
}

/// Churn keys from most to least requested (key `6 * layer + tensor`).
/// The plans that are slow to build (the large band plans) are the
/// hottest and stay resident; the coldest are small CVSE and band plans
/// that build in tens of milliseconds, and steady-state misses rebuild
/// them again and again.
const CHURN_POPULARITY: [usize; 24] = [
    22, 17, 5, 10, 11, 16, 0, 2, 7, 12, 23, 20, 15, 4, 6, 21, 3, 8, 13, 18, 1, 9, 14, 19,
];

/// One request: when it is due (seconds from its phase start), which key,
/// which operand of that key's input width.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    pub due_s: f64,
    pub key: usize,
    pub operand: usize,
}

/// Phase A is cut into this many windows for the reported p99.
const P99_WINDOWS: usize = 10;

/// Phase-B drains never exceed this many per run.
const MAX_DRAINS: usize = 256;

pub struct Inputs {
    pub weights: Vec<Matrix<f32>>,
    /// Operand pools keyed by input width (the weight's column count).
    pub pools: BTreeMap<usize, Vec<Matrix<Half>>>,
    pub phase_a: Vec<Req>,
    /// Consecutive slices of `backlog` requests form the drains.
    pub backlog: Vec<Req>,
    pub fingerprint: u64,
}

impl Inputs {
    /// The operand a request carries.
    fn operand(&self, spec: &ServeSpec, req: &Req) -> &Matrix<Half> {
        &self.pools[&spec.weights[req.key].1][req.operand]
    }
}

/// Generates everything the run feeds the program, from `seed` alone.
pub fn generate(spec: &ServeSpec, seed: u64, seconds: f64) -> Inputs {
    let mut wrng = Rng::fork(seed, 1);
    let weights: Vec<Matrix<f32>> = spec
        .weights
        .iter()
        .map(|&(r, c, _)| random::glorot_matrix(r, c, wrng.seed()))
        .collect();
    let mut orng = Rng::fork(seed, 2);
    let widths: BTreeSet<usize> = spec.weights.iter().map(|w| w.1).collect();
    let pools: BTreeMap<usize, Vec<Matrix<Half>>> = widths
        .into_iter()
        .map(|k| {
            let pool = (0..spec.pool)
                .map(|_| random::activation_matrix(k, REQ_COLS, orng.seed()).to_half())
                .collect();
            (k, pool)
        })
        .collect();
    // Key shares follow Zipf exactly in each phase; the seed draws the
    // order, the arrival times and the operands.
    let probs = spec
        .zipf
        .map_or_else(|| vec![1.0], |z| gen::zipf_weights(spec.weights.len(), z));
    let mut krng = Rng::fork(seed, 3);
    let mut arng = Rng::fork(seed, 4);
    let offsets = gen::poisson_offsets(&mut arng, spec.rate, seconds * PHASE_A_SHARE);
    let mut phase = |due: &[f64], len: usize| -> Vec<Req> {
        gen::quota_sequence(&mut krng, &probs, len)
            .into_iter()
            .enumerate()
            .map(|(i, rank)| Req {
                due_s: due.get(i).copied().unwrap_or(0.0),
                key: spec.popularity[rank],
                operand: 0,
            })
            .collect()
    };
    let mut phase_a = phase(&offsets, offsets.len());
    let mut backlog: Vec<Req> = (0..MAX_DRAINS)
        .flat_map(|_| phase(&[], spec.backlog))
        .collect();
    let mut prng = Rng::fork(seed, 5);
    for r in phase_a.iter_mut().chain(backlog.iter_mut()) {
        r.operand = prng.below(spec.pool);
    }

    let mut fp = Fingerprint::default();
    for r in phase_a.iter().chain(&backlog) {
        fp.f64(r.due_s);
        fp.u64(r.key as u64);
        fp.u64(r.operand as u64);
    }
    for w in &weights {
        fp.f32s(w.as_slice());
    }
    for pool in pools.values() {
        for m in pool {
            fp.halves(m);
        }
    }
    Inputs {
        weights,
        pools,
        phase_a,
        backlog,
        fingerprint: fp.value(),
    }
}

/// The engine every serving plan is built on, priced for full batches.
fn engine() -> Engine {
    Engine::new(device()).with_b_cols_hint(MAX_BATCH * REQ_COLS)
}

fn builder(engine: &Engine, planner: Planner, pruned: &Matrix<Half>) -> Builder {
    let desc = engine.descriptor(pruned.rows(), pruned.cols());
    match planner {
        Planner::Format(f) => Arc::new(engine.serve_builder(f, &desc, pruned)),
        Planner::Auto => {
            let engine = engine.clone();
            let pruned = pruned.clone();
            Arc::new(move || Ok(engine.plan_auto(&desc, &pruned)))
        }
    }
}

/// A deployed server with everything registered and warmed.
pub struct Deployed {
    pub server: Server,
    pub keys: Vec<PlanKey>,
    pub builds: BuildLog,
    /// Warm-up responses, `(key, output)`; checked once references exist.
    pub warm: Vec<(usize, Matrix<f32>)>,
    pub setup_s: f64,
}

/// The program's set-up, timed: prune, start the server, register every
/// key, warm the cache (least popular first, so the hot keys stay).
pub fn setup(spec: &ServeSpec, inputs: &Inputs, budget: Option<usize>) -> Result<Deployed, String> {
    let t0 = Instant::now();
    let span = Span::begin("setup", None);
    let pruned: Vec<Matrix<Half>> = inputs
        .weights
        .iter()
        .zip(&spec.weights)
        .map(|(w, &(_, _, scheme))| {
            let mask = {
                let _s = Span::begin("pruner.prune", None);
                scheme.prune(w)
            };
            mask.apply_f32(w).to_half()
        })
        .collect();
    let engine = engine();
    let cache = Arc::new(budget.map_or_else(PlanCache::new, PlanCache::with_budget));
    let config = ServeConfig::default()
        .with_concurrency(spec.concurrency())
        .with_max_batch(MAX_BATCH)
        .with_queue_capacity(spec.backlog.max(4096))
        .with_build_timeout(Duration::from_secs(120));
    let server = {
        let _s = Span::begin("serve.start", None);
        Server::start(config, cache)
    };
    let builds: BuildLog = Arc::new(Mutex::new(Vec::new()));
    let keys: Vec<PlanKey> = pruned
        .iter()
        .map(|w| {
            let key = PlanKey::for_weight(engine.descriptor(w.rows(), w.cols()), w);
            let build =
                wrap::logged_builder(builder(&engine, spec.planner, w), Arc::clone(&builds));
            server.register_fallible(key, build);
            key
        })
        .collect();
    let mut warm = Vec::with_capacity(keys.len());
    for i in warm_order(spec, inputs) {
        let _s = Span::begin("serve.warm", None);
        let operand = inputs.pools[&spec.weights[i].1][0].clone();
        let out = server
            .submit(keys[i], operand)
            .and_then(|h| h.wait())
            .map_err(|e| format!("warm-up of key {i} failed: {e}"))?;
        warm.push((i, out));
    }
    drop(span);
    Ok(Deployed {
        server,
        keys,
        builds,
        warm,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// Keys ordered by ascending request count in the schedule.
fn warm_order(spec: &ServeSpec, inputs: &Inputs) -> Vec<usize> {
    let mut counts = vec![0usize; spec.weights.len()];
    for r in inputs.phase_a.iter().chain(&inputs.backlog) {
        counts[r.key] += 1;
    }
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by_key(|&i| (counts[i], i));
    order
}

type Refs = HashMap<(usize, usize), Matrix<f32>>;

/// Per-call reference outputs for every `(key, operand)` the run sends
/// (warm-up included), from weights pruned and plans built apart from
/// the timed set-up; untimed. Also returns each key's plan bytes.
fn references(spec: &ServeSpec, inputs: &Inputs) -> Result<(Refs, Vec<usize>), String> {
    let mut wanted: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for r in inputs.phase_a.iter().chain(&inputs.backlog) {
        wanted.entry(r.key).or_default().insert(r.operand);
    }
    let engine = engine();
    let mut refs = Refs::new();
    let mut bytes = Vec::with_capacity(spec.weights.len());
    for (key, (w, &(_, _, scheme))) in inputs.weights.iter().zip(&spec.weights).enumerate() {
        let pruned = scheme.prune(w).apply_f32(w).to_half();
        let plan: Arc<dyn MatmulPlan> = builder(&engine, spec.planner, &pruned)()?;
        bytes.push(plan.approx_bytes());
        let mut ops = wanted.remove(&key).unwrap_or_default();
        ops.insert(0);
        for op in ops {
            refs.insert(
                (key, op),
                plan.run_oneshot(&inputs.pools[&pruned.cols()][op]),
            );
        }
    }
    Ok((refs, bytes))
}

/// The plan-cache budget for `spec.cold_keys` (see there).
fn budget(spec: &ServeSpec, bytes: &[usize]) -> Option<usize> {
    let cold = spec.cold_keys?;
    let split = spec.popularity.len().saturating_sub(cold);
    let (hot, cold) = spec.popularity.split_at(split);
    let largest_cold = cold.iter().map(|&k| bytes[k]).max().unwrap_or(0);
    Some(hot.iter().map(|&k| bytes[k]).sum::<usize>() + largest_cold)
}

/// Result of one request as the collector saw it.
struct Seen {
    latency_ms: f64,
    ok: bool,
    refused: bool,
    mismatch: bool,
}

/// Checks one response against its reference; `corrupt` flips a bit
/// first (the planted-fault test).
fn check(res: Result<Matrix<f32>, ServeError>, want: &Matrix<f32>, corrupt: bool) -> (bool, bool) {
    match res {
        Ok(mut got) => {
            if corrupt {
                if let Some(v) = got.as_mut_slice().first_mut() {
                    *v = f32::from_bits(v.to_bits() ^ 1);
                }
            }
            let same = bit_equal(&got, want);
            (same, !same)
        }
        Err(_) => (false, false),
    }
}

struct PhaseA {
    seen: Vec<Seen>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    depth: Vec<f64>,
    wall_s: f64,
}

/// Phase A: this thread generates at the scheduled times, one collector
/// thread waits for the responses in order.
fn open_loop(
    spec: &ServeSpec,
    inputs: &Inputs,
    dep: &Deployed,
    refs: &Refs,
    opts: &RunOpts,
    first_id: u64,
) -> PhaseA {
    let operands: Vec<Matrix<Half>> = inputs
        .phase_a
        .iter()
        .map(|r| inputs.operand(spec, r).clone())
        .collect();
    let n = operands.len();
    let mut late_ms = Vec::with_capacity(n);
    let mut submit_us = Vec::with_capacity(n);
    let mut depth = Vec::with_capacity(n);
    let start = Instant::now() + Duration::from_millis(2);
    let (tx, rx) = mpsc::channel::<(usize, Instant, Result<ResponseHandle, ServeError>)>();
    let seen = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut seen = Vec::with_capacity(n);
            for (i, due, handle) in rx {
                let req: &Req = &inputs.phase_a[i];
                let (res, refused) = match handle {
                    Ok(h) => (h.wait(), false),
                    Err(e) => (Err(e), true),
                };
                let done = Instant::now();
                trace::record(
                    "serve.request",
                    trace::ns_of(due),
                    trace::ns_of(done),
                    Some(first_id + i as u64),
                );
                let corrupt = opts.corrupt == Some(first_id as usize + i);
                let (ok, mismatch) = check(res, &refs[&(req.key, req.operand)], corrupt);
                let latency_ms = if ok {
                    done.duration_since(due).as_secs_f64() * 1e3
                } else {
                    f64::INFINITY
                };
                seen.push(Seen {
                    latency_ms,
                    ok,
                    refused,
                    mismatch,
                });
            }
            seen
        });
        for (i, operand) in operands.into_iter().enumerate() {
            let req = &inputs.phase_a[i];
            let due = start + Duration::from_secs_f64(req.due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t = Instant::now();
            late_ms.push(t.saturating_duration_since(due).as_secs_f64() * 1e3);
            depth.push(dep.server.queued() as f64);
            let handle = {
                let _s = Span::begin("serve.submit", Some(first_id + i as u64));
                dep.server.try_submit(dep.keys[req.key], operand)
            };
            submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            let _ = tx.send((i, due, handle));
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    PhaseA {
        seen,
        late_ms,
        submit_us,
        depth,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

struct PhaseB {
    rps: Vec<f64>,
    seen: Vec<Seen>,
    wall_s: f64,
}

/// Phase B: drains of `spec.backlog` requests, submitted at once, until
/// `budget_s` is spent (at least three drains).
fn drains(
    spec: &ServeSpec,
    inputs: &Inputs,
    dep: &Deployed,
    refs: &Refs,
    opts: &RunOpts,
    budget_s: f64,
    first_id: u64,
) -> PhaseB {
    let t_phase = Instant::now();
    let mut rps = Vec::new();
    let mut seen = Vec::new();
    for (d, batch) in inputs.backlog.chunks(spec.backlog).enumerate() {
        if d >= 3 && t_phase.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        let base = first_id + (d * spec.backlog) as u64;
        let operands: Vec<Matrix<Half>> = batch
            .iter()
            .map(|r| inputs.operand(spec, r).clone())
            .collect();
        let (tx, rx) = mpsc::channel::<(usize, Result<ResponseHandle, ServeError>)>();
        let t0 = Instant::now();
        let (drain_seen, t_end) = std::thread::scope(|s| {
            let collector = s.spawn(move || {
                let mut out = Vec::with_capacity(batch.len());
                let mut t_end = Instant::now();
                for (i, handle) in rx {
                    let req: &Req = &batch[i];
                    let (res, refused) = match handle {
                        Ok(h) => (h.wait(), false),
                        Err(e) => (Err(e), true),
                    };
                    t_end = Instant::now();
                    trace::record(
                        "serve.request",
                        trace::ns_of(t0),
                        trace::ns_of(t_end),
                        Some(base + i as u64),
                    );
                    let corrupt = opts.corrupt == Some(base as usize + i);
                    let (ok, mismatch) = check(res, &refs[&(req.key, req.operand)], corrupt);
                    out.push(Seen {
                        latency_ms: t_end.duration_since(t0).as_secs_f64() * 1e3,
                        ok,
                        refused,
                        mismatch,
                    });
                }
                (out, t_end)
            });
            for (i, (req, operand)) in batch.iter().zip(operands).enumerate() {
                let handle = {
                    let _s = Span::begin("serve.submit", Some(base + i as u64));
                    dep.server.submit(dep.keys[req.key], operand)
                };
                let _ = tx.send((i, handle));
            }
            drop(tx);
            collector.join().expect("collector thread panicked")
        });
        let ok = drain_seen.iter().filter(|s| s.ok).count();
        rps.push(ok as f64 / t_end.duration_since(t0).as_secs_f64());
        seen.extend(drain_seen);
    }
    PhaseB {
        rps,
        seen,
        wall_s: t_phase.elapsed().as_secs_f64(),
    }
}

fn count(seen: &[Seen]) -> PhaseCount {
    PhaseCount {
        sent: seen.len() as u64,
        succeeded: seen.iter().filter(|s| s.ok).count() as u64,
        refused: seen.iter().filter(|s| s.refused).count() as u64,
        failed: seen
            .iter()
            .filter(|s| !s.ok && !s.refused && !s.mismatch)
            .count() as u64,
        mismatched: seen.iter().filter(|s| s.mismatch).count() as u64,
    }
}

fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        builds: after.builds - before.builds,
        failed_builds: after.failed_builds - before.failed_builds,
        build_timeouts: after.build_timeouts - before.build_timeouts,
        ..after
    }
}

/// Runs one serving workload end to end.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, opts: &RunOpts) -> Result<Outcome, String> {
    let inputs = generate(spec, seed, seconds);
    println!(
        "workload {}: seed {seed} fingerprint {:016x} ({} phase-A arrivals at {} req/s, {} keys, concurrency {}, nproc {})",
        spec.name,
        inputs.fingerprint,
        inputs.phase_a.len(),
        spec.rate,
        spec.weights.len(),
        spec.concurrency(),
        nproc()
    );

    let (refs, plan_bytes) = references(spec, &inputs)?;
    let budget = budget(spec, &plan_bytes);
    if let Some(b) = budget {
        let total: usize = plan_bytes.iter().sum();
        println!(
            "cache: budget {:.2} MiB against {:.2} MiB of resident plans for all {} keys",
            b as f64 / 1048576.0,
            total as f64 / 1048576.0,
            plan_bytes.len()
        );
        if b >= total {
            return Err("the churn budget must be below the working set".into());
        }
    }

    // Set-up, several times; the last deployment serves.
    let mut setups = Vec::new();
    let mut dep = None;
    for _ in 0..spec.setup_reps {
        drop(dep.take());
        let d = setup(spec, &inputs, budget)?;
        setups.push(d.setup_s);
        dep = Some(d);
    }
    let dep = dep.expect("at least one set-up");
    let setup_spans = trace::drain();

    let mut mismatched_warm = 0u64;
    for (k, out) in &dep.warm {
        if !bit_equal(out, &refs[&(*k, 0)]) {
            mismatched_warm += 1;
        }
    }
    let stats0 = dep.server.cache().stats();
    let health0 = dep.server.health();
    let builds0 = dep.builds.lock().unwrap_or_else(|e| e.into_inner()).len();
    wrap::take_plan_work();
    if opts.trace {
        venom_obs::profile::reset();
        venom_obs::profile::set_enabled(true);
    }
    let a = open_loop(spec, &inputs, &dep, &refs, opts, 0);
    let b = drains(
        spec,
        &inputs,
        &dep,
        &refs,
        opts,
        seconds * (1.0 - PHASE_A_SHARE),
        inputs.phase_a.len() as u64,
    );
    venom_obs::profile::set_enabled(false);
    let work = wrap::take_plan_work();
    let stats = cache_delta(dep.server.cache().stats(), stats0);
    let health = dep.server.health();
    let (builds, served_paths) = {
        let log = dep.builds.lock().unwrap_or_else(|e| e.into_inner());
        let paths: BTreeSet<&'static str> = log.iter().map(|b| b.path).collect();
        (log[builds0..].to_vec(), paths)
    };
    println!(
        "check cache after warm-up: {} plans built, hit ratio {}, {} evictions; plan paths served: {}",
        builds.len(),
        stats.hit_ratio(),
        stats.evictions,
        served_paths.iter().copied().collect::<Vec<_>>().join(", ")
    );
    let resident_now = dep.server.cache().stats().resident_bytes;
    let warm_batches = dep.warm.len() as u64;
    let Deployed { server, .. } = dep;
    let report = server.shutdown();
    let spans = trace::drain();

    let (ca, cb) = (count(&a.seen), count(&b.seen));
    ca.print("A open-loop");
    cb.print("B backlog");
    let lat: Vec<f64> = a.seen.iter().map(|s| s.latency_ms).collect();
    // Phase A in equal windows by due time. The reported p99 is the
    // lower quartile of the windows' p99s: a stall of the shared machine
    // moves the windows it hits, and the tail reported moves only when
    // more than three quarters of the windows move. The whole-phase p99
    // is printed beside it.
    let span_s = seconds * PHASE_A_SHARE;
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); P99_WINDOWS];
    for (req, &l) in inputs.phase_a.iter().zip(&lat) {
        let w = ((req.due_s / span_s * P99_WINDOWS as f64) as usize).min(P99_WINDOWS - 1);
        windows[w].push(l);
    }
    let window_p99: Vec<f64> = windows.iter().map(|w| stats::quantile(w, 0.99)).collect();
    // The upper quartile of the drains' rates: a drain slowed by other
    // tenants of the machine does not move it unless most drains are.
    let rps = stats::quantile(&b.rps, 0.75);
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&setups), "s");
    m.put("serve_rps", rps, "1/s");
    m.put("latency_p50_ms", stats::quantile(&lat, 0.50), "ms");
    m.put("latency_p99_ms", stats::quantile(&window_p99, 0.25), "ms");
    m.put("tokens_per_s", rps * REQ_COLS as f64, "1/s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    println!(
        "latency: {} samples over {:.2} s at {} req/s; p99 per window {}; p99 over the whole phase {:.3} ms; fail_ratio A {} B {}; {} drains of {}",
        lat.len(),
        a.wall_s,
        spec.rate,
        window_p99.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(" "),
        stats::quantile(&lat, 0.99),
        ca.fail_ratio(),
        cb.fail_ratio(),
        b.rps.len(),
        spec.backlog
    );
    let decile = (a.depth.len() / 10).max(1);
    let depth_start = stats::median(&a.depth[..decile.min(a.depth.len())]);
    let depth_end = stats::median(&a.depth[a.depth.len().saturating_sub(decile)..]);
    let growing = depth_end > depth_start + (MAX_BATCH * spec.concurrency()) as f64;
    println!(
        "check open-loop backlog: queue depth {depth_start} at start, {depth_end} at end: {}",
        if growing {
            "GROWING (rate above capacity)"
        } else {
            "steady"
        }
    );

    let mut layers = Metrics::default();
    if opts.trace {
        let in_setup = |name: &str| trace::durations(&setup_spans, name);
        let reps = spec.setup_reps as f64;
        layers.put(
            "pruner.prune_ms",
            stats::sum(&in_setup("pruner.prune")) / reps,
            "ms",
        );
        let bms: Vec<f64> = builds.iter().map(|b| b.ms).collect();
        layers.put("engine.plan_builds", builds.len() as f64, "count");
        layers.put("engine.plan_build_ms", stats::sum(&bms), "ms");
        layers.put(
            "engine.plan_build_ms_p50",
            if bms.is_empty() {
                0.0
            } else {
                stats::median(&bms)
            },
            "ms",
        );
        layers.put(
            "engine.setup_plan_build_ms",
            stats::sum(&trace::durations(&setup_spans, "engine.plan_build")) / reps,
            "ms",
        );
        layers.put("cache.hit_ratio", stats.hit_ratio(), "ratio");
        layers.put("cache.misses", stats.misses as f64, "count");
        layers.put("cache.evictions", stats.evictions as f64, "count");
        layers.put("cache.resident_mb", resident_now as f64 / 1048576.0, "MB");
        let submit: Vec<f64> = a.submit_us.clone();
        layers.put("serve.submit_us_p50", stats::quantile(&submit, 0.5), "us");
        layers.put("serve.submit_us_p99", stats::quantile(&submit, 0.99), "us");
        layers.put(
            "serve.queue_depth_p50",
            stats::quantile(&a.depth, 0.5),
            "count",
        );
        layers.put("serve.queue_depth_max", stats::max(&a.depth), "count");
        layers.put("serve.queue_depth_growth", depth_end - depth_start, "count");
        let batches = report.batches.saturating_sub(warm_batches);
        let served = report.served.saturating_sub(warm_batches);
        layers.put("serve.batches", batches as f64, "count");
        layers.put(
            "serve.mean_batch",
            if batches == 0 {
                0.0
            } else {
                served as f64 / batches as f64
            },
            "count",
        );
        layers.put("serve.shed", (health.shed - health0.shed) as f64, "count");
        layers.put(
            "serve.expired",
            (health.deadline_expired - health0.deadline_expired) as f64,
            "count",
        );
        layers.put(
            "serve.errored",
            (health.errored - health0.errored) as f64,
            "count",
        );
        layers.put(
            "serve.degraded",
            (health.degraded - health0.degraded) as f64,
            "count",
        );
        layers.put(
            "serve.worker_restarts",
            (health.worker_restarts - health0.worker_restarts) as f64,
            "count",
        );
        layers.put(
            "serve.gen_late_ms_p99",
            stats::quantile(&a.late_ms, 0.99),
            "ms",
        );
        layers.put("serve.gen_late_ms_max", stats::max(&a.late_ms), "ms");
        layers.put(
            "serve.latency_p99_whole_ms",
            stats::quantile(&lat, 0.99),
            "ms",
        );
        layers.put("serve.formats_served", served_paths.len() as f64, "count");
        let rb = trace::durations(&spans, "plan.run_batch");
        let cols: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "plan.run_batch")
            .filter_map(|s| s.arg.map(|a| a as f64))
            .collect();
        let busy_ms = stats::sum(&rb);
        layers.put("plan.run_batch_ms_p50", stats::quantile(&rb, 0.5), "ms");
        layers.put("plan.run_batch_ms_p99", stats::quantile(&rb, 0.99), "ms");
        layers.put("plan.run_batch_ms", busy_ms, "ms");
        layers.put(
            "plan.batch_cols",
            if cols.is_empty() {
                0.0
            } else {
                cols.iter().sum::<f64>() / cols.len() as f64
            },
            "count",
        );
        layers.put(
            "plan.busy_share",
            busy_ms / 1e3 / ((a.wall_s + b.wall_s) * spec.concurrency() as f64),
            "ratio",
        );
        layers.put(
            "plan.gflops",
            work.flops / busy_ms.max(1e-9) / 1e6,
            "GFLOP/s",
        );
        layers.put(
            "plan.gbytes_s",
            work.bytes / busy_ms.max(1e-9) / 1e6,
            "GB/s",
        );
    }
    let failed = ca.failed + ca.refused + cb.failed + cb.refused;
    let mismatched = ca.mismatched + cb.mismatched + mismatched_warm;
    Ok(Outcome {
        correct: mismatched == 0,
        attempted: ca.sent + cb.sent,
        failed,
        metrics: m,
        layers,
        spans: setup_spans.into_iter().chain(spans).collect(),
    })
}
