//! Concurrency and residency contracts of the shared plan cache:
//! exactly-once builds under racing threads, LRU eviction that never
//! drops an in-flight plan, counter accuracy, and retry after a failed or
//! panicked build.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use venom_format::{MatmulFormat, VnmConfig};
use venom_fp16::Half;
use venom_pruner::magnitude;
use venom_runtime::{Engine, MatmulPlan, PlanBuildError, PlanCache, PlanKey};
use venom_sim::DeviceConfig;
use venom_tensor::{random, Matrix};

fn engine() -> Engine {
    Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(16)
}

fn pruned_weight(r: usize, k: usize, seed: u64) -> Matrix<Half> {
    let w = random::glorot_matrix(r, k, seed);
    let mask = magnitude::prune_vnm(&w, VnmConfig::new(16, 2, 8));
    mask.apply_f32(&w).to_half()
}

fn build_plan(engine: &Engine, w: &Matrix<Half>) -> Arc<dyn MatmulPlan> {
    engine
        .plan_with_format(MatmulFormat::Vnm, &engine.descriptor(w.rows(), w.cols()), w)
        .expect("V:N:M plan")
}

#[test]
fn racing_threads_build_exactly_once() {
    let engine = engine();
    let w = pruned_weight(64, 64, 1);
    let key = PlanKey::for_weight(engine.descriptor(64, 64), &w);
    let cache = PlanCache::new();
    let built = AtomicUsize::new(0);

    let plans: Vec<Arc<dyn MatmulPlan>> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (cache, engine, w, built) = (&cache, &engine, &w, &built);
                s.spawn(move || {
                    cache.get_or_plan(key, || {
                        built.fetch_add(1, Ordering::SeqCst);
                        build_plan(engine, w)
                    })
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    assert_eq!(
        built.load(Ordering::SeqCst),
        1,
        "builder ran more than once"
    );
    for p in &plans[1..] {
        assert!(Arc::ptr_eq(&plans[0], p), "threads got different plans");
    }
    let stats = cache.stats();
    assert_eq!(stats.builds, 1);
    assert_eq!(stats.hits + stats.misses, 8);
    assert_eq!(stats.misses, 1, "only the slot-inserting thread misses");
    assert_eq!(stats.resident_plans, 1);
    assert!(stats.resident_bytes > 0);
}

#[test]
fn eviction_never_drops_an_in_flight_plan() {
    let engine = engine();
    let wa = pruned_weight(64, 64, 2);
    let wb = pruned_weight(64, 64, 3);
    let ka = PlanKey::for_weight(engine.descriptor(64, 64), &wa);
    let kb = PlanKey::for_weight(engine.descriptor(64, 64), &wb);
    // A budget no single plan fits: every sweep wants to evict everything.
    let cache = PlanCache::with_budget(1);

    let held_a = cache.get_or_plan(ka, || build_plan(&engine, &wa));
    let held_b = cache.get_or_plan(kb, || build_plan(&engine, &wb));

    // Both plans are over budget but in flight (the caller holds their
    // Arcs) — the sweep must leave them resident.
    let stats = cache.stats();
    assert_eq!(stats.evictions, 0, "evicted an in-flight plan");
    assert_eq!(stats.resident_plans, 2);
    assert!(cache.get(&ka).is_some());
    assert!(cache.get(&kb).is_some());

    // Release A only; the next build's sweep may evict idle plans but
    // must still keep the held B.
    drop(held_a);
    let wc = pruned_weight(64, 64, 4);
    let kc = PlanKey::for_weight(engine.descriptor(64, 64), &wc);
    let held_c = cache.get_or_plan(kc, || build_plan(&engine, &wc));
    assert!(cache.stats().evictions >= 1, "idle plan A survived a sweep");
    assert!(
        Arc::ptr_eq(&held_b, &cache.get(&kb).expect("held plan evicted")),
        "held plan B must stay resident and identical"
    );
    drop(held_c);
}

#[test]
fn lru_prefers_the_least_recently_used_idle_plan() {
    let engine = engine();
    let weights: Vec<Matrix<Half>> = (0..3).map(|i| pruned_weight(64, 64, 10 + i)).collect();
    let keys: Vec<PlanKey> = weights
        .iter()
        .map(|w| PlanKey::for_weight(engine.descriptor(64, 64), w))
        .collect();
    // Identical shapes => identical sizes; budget fits exactly two plans.
    let bytes = build_plan(&engine, &weights[0]).approx_bytes();
    let cache = PlanCache::with_budget(2 * bytes);

    drop(cache.get_or_plan(keys[0], || build_plan(&engine, &weights[0])));
    drop(cache.get_or_plan(keys[1], || build_plan(&engine, &weights[1])));
    // Touch 0 so 1 becomes the LRU entry, then overflow with 2.
    assert!(cache.get(&keys[0]).is_some());
    drop(cache.get_or_plan(keys[2], || build_plan(&engine, &weights[2])));

    let stats = cache.stats();
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.resident_plans, 2);
    assert!(
        cache.get(&keys[1]).is_none(),
        "LRU entry must be the victim"
    );
    assert!(cache.get(&keys[0]).is_some());
    assert!(cache.get(&keys[2]).is_some());
}

#[test]
fn warm_up_builds_in_the_background_exactly_once() {
    let engine = engine();
    let w = pruned_weight(64, 64, 20);
    let key = PlanKey::for_weight(engine.descriptor(64, 64), &w);
    let cache = Arc::new(PlanCache::new());

    let eng = engine.clone();
    let weight = w.clone();
    cache
        .warm(key, move || build_plan(&eng, &weight))
        .join()
        .unwrap();
    assert_eq!(cache.stats().builds, 1);
    assert!(cache.get(&key).is_some(), "warmed plan must be resident");

    // Warming an already-resident key reuses the build.
    let eng = engine.clone();
    cache
        .warm(key, move || build_plan(&eng, &w))
        .join()
        .unwrap();
    assert_eq!(cache.stats().builds, 1);
}

#[test]
fn steady_state_lookups_keep_the_hit_ratio_above_90_percent() {
    let engine = engine();
    let w = pruned_weight(64, 64, 30);
    let key = PlanKey::for_weight(engine.descriptor(64, 64), &w);
    let cache = PlanCache::new();
    for _ in 0..20 {
        let _ = cache.get_or_plan(key, || build_plan(&engine, &w));
    }
    let stats = cache.stats();
    assert_eq!(stats.builds, 1);
    assert_eq!(stats.misses, 1);
    assert!(
        stats.hit_ratio() >= 0.9,
        "steady-state hit ratio {:.3} below 0.9",
        stats.hit_ratio()
    );
}

#[test]
fn failed_builds_clear_the_slot_so_retries_can_succeed() {
    let engine = engine();
    let w = pruned_weight(64, 64, 40);
    let key = PlanKey::for_weight(engine.descriptor(64, 64), &w);
    let cache = PlanCache::new();

    let err = cache.try_get_or_plan(key, || Err::<Arc<dyn MatmulPlan>, _>("no kernel"));
    assert_eq!(err.unwrap_err(), "no kernel");
    assert!(
        cache.is_empty(),
        "failed build must not leave an empty slot"
    );

    let plan = cache
        .try_get_or_plan(key, || Ok::<_, &str>(build_plan(&engine, &w)))
        .expect("retry after failed build");
    assert_eq!(cache.stats().builds, 1);
    assert!(Arc::ptr_eq(&plan, &cache.get(&key).unwrap()));
}

#[test]
fn a_panicking_builder_does_not_wedge_its_key() {
    let engine = engine();
    let w = pruned_weight(64, 64, 45);
    let key = PlanKey::for_weight(engine.descriptor(64, 64), &w);
    let cache = Arc::new(PlanCache::new());
    let bound = Duration::from_secs(10);

    let (started_tx, started_rx) = mpsc::channel();
    let panicker = {
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || {
            cache.get_or_plan(key, || {
                started_tx.send(()).unwrap();
                // Hold the build open until the racer has found the
                // building slot, then give it time to block on it.
                let deadline = Instant::now() + Duration::from_secs(5);
                while cache.stats().hits == 0 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                std::thread::sleep(Duration::from_millis(50));
                panic!("builder failed mid-build");
            })
        })
    };
    let (tx, rx) = mpsc::channel();
    let spawn_caller = |cache: &Arc<PlanCache>| {
        let (cache, engine, w, tx) = (Arc::clone(cache), engine.clone(), w.clone(), tx.clone());
        std::thread::spawn(move || {
            let _ = tx.send(cache.get_or_plan(key, || build_plan(&engine, &w)));
        });
    };
    started_rx
        .recv_timeout(bound)
        .expect("the panicking build started");
    spawn_caller(&cache);
    assert!(
        panicker.join().is_err(),
        "the builder's panic must reach its caller"
    );
    let racer = rx
        .recv_timeout(bound)
        .expect("the racer stayed blocked on the panicked build");
    spawn_caller(&cache);
    let fresh = rx
        .recv_timeout(bound)
        .expect("a fresh caller stayed blocked on the panicked key");

    assert!(
        Arc::ptr_eq(&racer, &fresh),
        "the retried plan must be resident"
    );
    let stats = cache.stats();
    assert_eq!(stats.failed_builds, 1, "{stats:?}");
    assert_eq!(stats.builds, 1, "{stats:?}");
}

#[test]
fn a_panicking_deadline_build_reports_the_panic_message() {
    let engine = engine();
    let key = PlanKey::bare(engine.descriptor(64, 64));
    let cache = Arc::new(PlanCache::new());
    let err = cache
        .get_or_plan_deadline(
            key,
            || -> Result<Arc<dyn MatmulPlan>, String> { panic!("no kernel for this shape") },
            Duration::from_secs(10),
        )
        .unwrap_err();
    assert_eq!(
        err,
        PlanBuildError::Failed("builder panicked: no kernel for this shape".to_string())
    );
}

#[test]
fn distinct_weights_and_salts_occupy_distinct_cache_lines() {
    let engine = engine();
    let wa = pruned_weight(64, 64, 50);
    let wb = pruned_weight(64, 64, 51);
    let desc = engine.descriptor(64, 64);
    let ka = PlanKey::for_weight(desc, &wa);
    let kb = PlanKey::for_weight(desc, &wb);
    assert_ne!(ka, kb, "same shape, different weights must not alias");
    assert_ne!(ka, ka.with_salt(7), "salt must change the key");
    assert_eq!(PlanKey::bare(desc), PlanKey::bare(desc));

    let cache = PlanCache::new();
    let pa = cache.get_or_plan(ka, || build_plan(&engine, &wa));
    let pb = cache.get_or_plan(kb, || build_plan(&engine, &wb));
    assert!(!Arc::ptr_eq(&pa, &pb));
    assert_eq!(cache.stats().builds, 2);
}
