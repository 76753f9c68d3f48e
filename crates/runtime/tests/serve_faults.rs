//! The failure contract of the serving stack, enforced under injected
//! faults: every submitted request resolves to a result or a typed
//! [`ServeError`] — never a hang, never a lost request — and every
//! degraded dispatch is bit-identical to the planned path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use venom_format::{MatmulFormat, VnmConfig};
use venom_fp16::Half;
use venom_pruner::magnitude;
use venom_runtime::serve::{RequestQueue, ServeRequest};
use venom_runtime::{
    Engine, FaultConfig, FaultPlan, MatmulPlan, PlanCache, PlanKey, RetryPolicy, ServeConfig,
    ServeError, Server,
};
use venom_sim::DeviceConfig;
use venom_tensor::{random, Matrix};

fn engine(b_cols: usize) -> Engine {
    Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(b_cols)
}

fn planned_weight(
    r: usize,
    k: usize,
    seed: u64,
    engine: &Engine,
) -> (PlanKey, Arc<dyn MatmulPlan>) {
    let w = random::glorot_matrix(r, k, seed);
    let mask = magnitude::prune_vnm(&w, VnmConfig::new(16, 2, 8));
    let pruned = mask.apply_f32(&w).to_half();
    let plan = engine
        .plan_with_format(MatmulFormat::Vnm, &engine.descriptor(r, k), &pruned)
        .expect("V:N:M plan");
    (PlanKey::for_weight(*plan.descriptor(), &pruned), plan)
}

fn operand(k: usize, cols: usize, seed: u64) -> Matrix<Half> {
    random::activation_matrix(k, cols, seed).to_half()
}

/// A serve config tuned for fast fault tests: tight build timeout,
/// tight retry intervals.
fn fast_config() -> ServeConfig {
    ServeConfig::default()
        .with_build_timeout(Duration::from_millis(100))
        .with_retry(
            RetryPolicy::default()
                .with_intervals(Duration::from_micros(200), Duration::from_millis(2)),
        )
}

#[test]
fn failed_builds_degrade_to_the_per_call_baseline_bit_identically() {
    let engine = engine(8);
    let (key, plan) = planned_weight(64, 64, 1, &engine);
    let server = Server::start(
        fast_config().with_concurrency(2),
        Arc::new(PlanCache::new()),
    );
    // Every build attempt fails: the planned path is never available.
    server.register_degradable(
        key,
        || Err("injected build failure".to_string()),
        Arc::clone(&plan),
    );

    let handles: Vec<_> = (0..6)
        .map(|i| {
            let op = operand(64, 3, 10 + i);
            (op.clone(), server.submit(key, op).expect("submit"))
        })
        .collect();
    for (op, handle) in handles {
        let out = handle.wait().expect("degraded serve");
        assert_eq!(out, plan.run(&op), "degraded output differs from planned");
    }

    let report = server.shutdown();
    assert_eq!(report.served, 6);
    assert_eq!(
        report.degraded, 6,
        "every dispatch went through the fallback"
    );
    assert_eq!(report.errored, 0);
}

#[test]
fn failed_builds_without_a_baseline_deliver_a_typed_error() {
    let engine = engine(8);
    let (key, _plan) = planned_weight(64, 64, 2, &engine);
    let attempts = Arc::new(AtomicU64::new(0));
    let server = Server::start(
        fast_config().with_concurrency(1).with_retry(
            RetryPolicy::default()
                .with_max_retries(2)
                .with_intervals(Duration::from_micros(100), Duration::from_millis(1)),
        ),
        Arc::new(PlanCache::new()),
    );
    let counted = Arc::clone(&attempts);
    server.register_fallible(key, move || {
        counted.fetch_add(1, Ordering::Relaxed);
        Err("no plan for you".to_string())
    });

    let err = server
        .submit(key, operand(64, 2, 20))
        .expect("submit")
        .wait()
        .unwrap_err();
    match err {
        ServeError::BuildFailed { reason } => assert!(reason.contains("no plan for you")),
        other => panic!("expected BuildFailed, got {other:?}"),
    }
    assert_eq!(
        attempts.load(Ordering::Relaxed),
        3,
        "1 attempt + 2 retries on the configured policy"
    );
    let report = server.shutdown();
    assert_eq!(report.errored, 1);
}

#[test]
fn stalled_builds_time_out_degrade_and_land_for_later_requests() {
    let engine = engine(8);
    let (key, plan) = planned_weight(64, 64, 3, &engine);
    let server = Server::start(
        fast_config()
            .with_concurrency(1)
            .with_build_timeout(Duration::from_millis(20)),
        Arc::new(PlanCache::new()),
    );
    let stalled = Arc::clone(&plan);
    server.register_degradable(
        key,
        move || {
            // Far past the 20ms build timeout, but eventually succeeds.
            std::thread::sleep(Duration::from_millis(150));
            Ok(Arc::clone(&stalled))
        },
        Arc::clone(&plan),
    );

    // The first request cannot wait for the build: it must be served
    // degraded, and fast.
    let op = operand(64, 2, 30);
    let out = server
        .submit(key, op.clone())
        .expect("submit")
        .wait()
        .expect("degraded serve");
    assert_eq!(out, plan.run(&op), "degraded output differs");

    // The abandoned build keeps running in the background; once it
    // lands, requests go back to the planned path.
    std::thread::sleep(Duration::from_millis(250));
    let op2 = operand(64, 2, 31);
    let out2 = server
        .submit(key, op2.clone())
        .expect("submit")
        .wait()
        .expect("planned serve");
    assert_eq!(out2, plan.run(&op2));

    let stats = server.cache().stats();
    assert_eq!(stats.builds, 1, "the stalled build completed exactly once");
    assert!(
        stats.build_timeouts >= 1,
        "the wait was abandoned: {stats:?}"
    );
    let report = server.shutdown();
    assert_eq!(report.served, 2);
    assert!(
        report.degraded >= 1 && report.degraded < report.served,
        "first degraded, later planned: {report:?}"
    );
}

#[test]
fn run_panics_are_contained_and_workers_respawn() {
    let engine = engine(8);
    let (key, plan) = planned_weight(64, 64, 4, &engine);
    let (clean_key, clean_plan) = planned_weight(64, 64, 5, &engine);
    assert_ne!(key, clean_key);
    let server = Server::start(
        fast_config().with_concurrency(2).with_restart_budget(16),
        Arc::new(PlanCache::new()),
    );
    // Every planned dispatch through this key panics mid-run.
    let cfg = FaultConfig {
        run_panic: 1.0,
        ..FaultConfig::with_seed(7)
    };
    let faulty = Arc::clone(&plan);
    server.register(key, move || FaultPlan::wrap(Arc::clone(&faulty), cfg));
    let registered = Arc::clone(&clean_plan);
    server.register(clean_key, move || Arc::clone(&registered));

    for i in 0..4 {
        let err = server
            .submit(key, operand(64, 2, 40 + i))
            .expect("submit")
            .wait()
            .unwrap_err();
        assert_eq!(err, ServeError::WorkerPanicked, "request {i}");
    }

    let health = server.health();
    assert!(health.worker_panics >= 4, "{health:?}");
    // The 4th panic's respawn bookkeeping may still be in flight when
    // the client wakes; the first 3 respawns must have happened for the
    // later requests to have been dispatched at all.
    assert!(health.worker_restarts >= 3, "{health:?}");
    assert!(
        health.live_workers >= 1,
        "respawn kept the pool alive: {health:?}"
    );

    // The server survived: a clean key still serves through it.
    let op = operand(64, 2, 50);
    let out = server
        .submit(clean_key, op.clone())
        .expect("submit")
        .wait()
        .expect("clean serve after panics");
    assert_eq!(out, clean_plan.run(&op));

    let report = server.shutdown();
    assert_eq!(report.served, 1);
    assert_eq!(report.errored, 4);
    assert!(report.worker_restarts >= 4);
}

/// The panic scenario above, repeated: a client woken by
/// `WorkerPanicked` must already see the panic, the restart, the
/// replacement worker and its own error in the health report — the
/// supervisor books all of them before it answers. Any ordering slip
/// shows up as a stale snapshot within a few hundred rounds.
#[test]
fn panic_bookkeeping_is_visible_to_every_woken_client() {
    let engine = engine(8);
    let (key, plan) = planned_weight(64, 64, 4, &engine);
    let op = operand(64, 2, 40);
    let cfg = FaultConfig {
        run_panic: 1.0,
        ..FaultConfig::with_seed(7)
    };
    for round in 0..300 {
        let server = Server::start(
            fast_config().with_concurrency(2).with_restart_budget(16),
            Arc::new(PlanCache::new()),
        );
        let faulty = Arc::clone(&plan);
        server.register(key, move || FaultPlan::wrap(Arc::clone(&faulty), cfg));
        for i in 0..4u64 {
            let err = server
                .submit(key, op.clone())
                .expect("submit")
                .wait()
                .unwrap_err();
            assert_eq!(
                err,
                ServeError::WorkerPanicked,
                "round {round}, request {i}"
            );
            let health = server.health();
            assert_eq!(health.worker_panics, i + 1, "round {round}: {health:?}");
            assert_eq!(health.worker_restarts, i + 1, "round {round}: {health:?}");
            assert_eq!(health.errored, i + 1, "round {round}: {health:?}");
            assert_eq!(health.live_workers, 2, "round {round}: {health:?}");
        }
        let report = server.shutdown();
        assert_eq!(report.errored, 4, "round {round}");
        assert_eq!(report.worker_restarts, 4, "round {round}");
    }
}

#[test]
fn expired_requests_are_answered_without_consuming_batch_slots() {
    let engine = engine(8);
    let (key, _plan) = planned_weight(64, 64, 6, &engine);
    let queue = RequestQueue::bounded(8);

    let (live1, h1) = ServeRequest::new(key, operand(64, 2, 60));
    let (dead, h_dead) = ServeRequest::new(key, operand(64, 2, 61));
    let (live2, h2) = ServeRequest::new(key, operand(64, 2, 62));
    let dead = dead.with_deadline_at(Instant::now() - Duration::from_millis(1));
    for req in [live1, dead, live2] {
        queue.try_submit(req).map_err(|(e, _)| e).expect("capacity");
    }

    let batch = queue.pop_coalesced(8).expect("live requests remain");
    assert_eq!(batch.len(), 2, "the expired request took no batch slot");
    assert_eq!(
        h_dead.poll(),
        Some(Err(ServeError::DeadlineExceeded)),
        "expired request was answered at dequeue"
    );
    assert_eq!(queue.expired_count(), 1);
    drop((h1, h2));
}

#[test]
fn wait_timeout_bounds_the_client_and_the_late_result_is_not_lost() {
    let engine = engine(8);
    let (key, plan) = planned_weight(64, 64, 7, &engine);
    let server = Server::start(
        fast_config().with_concurrency(1),
        Arc::new(PlanCache::new()),
    );
    // Every dispatch sleeps well past the client's wait budget.
    let cfg = FaultConfig {
        run_slow: 1.0,
        slow_ms: 100,
        ..FaultConfig::with_seed(11)
    };
    let slow = Arc::clone(&plan);
    server.register(key, move || FaultPlan::wrap(Arc::clone(&slow), cfg));

    let op = operand(64, 2, 70);
    let handle = server.submit(key, op.clone()).expect("submit");
    let bounded = Instant::now();
    assert_eq!(
        handle.wait_timeout(Duration::from_millis(5)),
        Err(ServeError::DeadlineExceeded),
        "the wait must give up, not block on the slow dispatch"
    );
    assert!(
        bounded.elapsed() < Duration::from_millis(80),
        "wait_timeout overshot its bound: {:?}",
        bounded.elapsed()
    );
    // The handle stays live: the slow dispatch still delivers.
    let out = handle
        .wait_timeout(Duration::from_secs(5))
        .expect("late result");
    assert_eq!(out, plan.run(&op), "late result has the right bits");
    server.shutdown();
}

#[test]
fn load_shedding_answers_the_worst_deadline_request() {
    let engine = engine(8);
    let (key, _plan) = planned_weight(64, 64, 8, &engine);
    let queue = RequestQueue::bounded(8).with_shed_watermark(Some(2));

    let far = Instant::now() + Duration::from_secs(60);
    let near = Instant::now() + Duration::from_millis(50);
    let (r1, h1) = ServeRequest::new(key, operand(64, 2, 80));
    let (r2, h2) = ServeRequest::new(key, operand(64, 2, 81));
    let (r3, h3) = ServeRequest::new(key, operand(64, 2, 82));
    queue
        .try_submit(r1.with_deadline_at(far))
        .map_err(|(e, _)| e)
        .expect("depth 1");
    queue
        .try_submit(r2.with_deadline_at(near))
        .map_err(|(e, _)| e)
        .expect("depth 2");
    // Depth would cross the watermark: the soonest-deadline request (r2)
    // is shed to make room.
    queue
        .try_submit(r3.with_deadline_at(far))
        .map_err(|(e, _)| e)
        .expect("admitted over the shed victim");

    assert_eq!(queue.len(), 2);
    assert_eq!(queue.shed_count(), 1);
    assert_eq!(h2.poll(), Some(Err(ServeError::Shed { watermark: 2 })));
    assert_eq!(h1.poll(), None, "far-deadline requests stay queued");
    assert_eq!(h3.poll(), None);
}

/// Satellite regression: shutting down with requests in flight and no
/// live workers must deliver `ShuttingDown` to every undelivered handle.
/// Before supervision-aware shutdown this hung forever (the stranded
/// requests sat in a queue no worker would ever drain).
#[test]
fn shutdown_flushes_stranded_requests_after_the_last_worker_dies() {
    let engine = engine(8);
    let (key, plan) = planned_weight(64, 64, 9, &engine);
    let server = Server::start(
        fast_config().with_concurrency(1).with_restart_budget(0),
        Arc::new(PlanCache::new()),
    );
    let cfg = FaultConfig {
        run_panic: 1.0,
        ..FaultConfig::with_seed(13)
    };
    let faulty = Arc::clone(&plan);
    server.register(key, move || FaultPlan::wrap(Arc::clone(&faulty), cfg));

    // Kill the only worker (restart budget 0: no replacement).
    let err = server
        .submit(key, operand(64, 2, 90))
        .expect("submit")
        .wait()
        .unwrap_err();
    assert_eq!(err, ServeError::WorkerPanicked);
    assert_eq!(server.health().live_workers, 0, "the pool is dead");

    // These requests can never be served; they must still be answered.
    let stranded: Vec<_> = (0..3)
        .map(|i| server.submit(key, operand(64, 2, 91 + i)).expect("submit"))
        .collect();
    let report = server.shutdown();
    for handle in stranded {
        assert_eq!(
            handle.wait_timeout(Duration::from_secs(1)),
            Err(ServeError::ShuttingDown),
            "stranded handle must resolve, not hang"
        );
    }
    assert_eq!(report.errored, 4, "1 panicked + 3 flushed at shutdown");
}

/// The acceptance-criteria race test: 8 client threads against a server
/// with every fault type enabled at once. The contract is total
/// resolution — each of the 64 requests ends in a bit-identical result
/// or a typed error, with the test's own completion proving no hang.
#[test]
fn every_request_resolves_under_a_full_fault_storm() {
    let engine = engine(8);
    let (key, plan) = planned_weight(64, 64, 14, &engine);
    let cfg = FaultConfig::parse(
        "seed=42,build-fail=0.4,build-stall=0.3,stall-ms=30,run-panic=0.25,run-slow=0.25,slow-ms=3",
    )
    .expect("valid spec");
    let server = Arc::new(Server::start(
        fast_config()
            .with_concurrency(4)
            .with_max_batch(4)
            .with_queue_capacity(128)
            .with_restart_budget(64)
            .with_build_timeout(Duration::from_millis(15)),
        Arc::new(PlanCache::new()),
    ));
    let build = {
        let plan = Arc::clone(&plan);
        move || Arc::clone(&plan)
    };
    server.register_degradable(key, cfg.wrap_builder(build), Arc::clone(&plan));

    let mut ok = 0u64;
    let mut typed_errors = 0u64;
    std::thread::scope(|s| {
        let clients: Vec<_> = (0u64..8)
            .map(|c| {
                let server = Arc::clone(&server);
                let plan = Arc::clone(&plan);
                s.spawn(move || {
                    let mut outcomes = (0u64, 0u64);
                    for i in 0u64..8 {
                        let op = operand(64, 2, 1000 + c * 8 + i);
                        match server.submit_retry(key, op.clone(), RetryPolicy::default()) {
                            Ok(handle) => {
                                match handle.wait_timeout(Duration::from_secs(20)) {
                                    Ok(out) => {
                                        assert_eq!(
                                            out,
                                            plan.run(&op),
                                            "served bits differ under faults"
                                        );
                                        outcomes.0 += 1;
                                    }
                                    // A typed error IS a resolution; a
                                    // 20s stall would mean a hang.
                                    Err(ServeError::DeadlineExceeded) => {
                                        panic!("request hung past 20s: lost request")
                                    }
                                    Err(_) => outcomes.1 += 1,
                                }
                            }
                            Err(_) => outcomes.1 += 1,
                        }
                    }
                    outcomes
                })
            })
            .collect();
        for client in clients {
            let (o, e) = client.join().expect("client thread");
            ok += o;
            typed_errors += e;
        }
    });

    assert_eq!(ok + typed_errors, 64, "every request accounted for");
    assert!(
        ok > 0,
        "the storm still served something (degradation works)"
    );
    let server = Arc::into_inner(server).expect("all clients joined");
    let report = server.shutdown();
    assert_eq!(report.served + report.errored, 64, "{report:?}");
}
