//! Exactly-once attention plan builds under racing callers. The test
//! enables span tracing, so it lives in a binary of its own: no other
//! test can add `attn_plan_build` spans while it counts them.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use venom_runtime::{attention_key, AttentionMask, AttentionPlan, AttnPlanCache};
use venom_sim::DeviceConfig;

#[test]
fn racing_callers_build_one_attention_plan_and_share_it() {
    venom_obs::trace::set_enabled(true);
    let cache = Arc::new(AttnPlanCache::new());
    let mask = AttentionMask::SlidingWindow { window: 16 };
    let key = attention_key(64, 128, 4, &mask);
    let racers = 8;
    let barrier = Arc::new(Barrier::new(racers));
    let plans: Vec<Arc<AttentionPlan>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..racers)
            .map(|_| {
                let (cache, barrier) = (Arc::clone(&cache), Arc::clone(&barrier));
                s.spawn(move || {
                    barrier.wait();
                    cache
                        .get_or_build(key, || {
                            // A slow build holds the window open for
                            // every racer to arrive mid-build.
                            std::thread::sleep(Duration::from_millis(20));
                            AttentionPlan::build(64, 128, 4, mask, &DeviceConfig::rtx3090())
                        })
                        .expect("valid plan")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    venom_obs::trace::set_enabled(false);

    let stats = cache.stats();
    assert_eq!(stats.builds, 1, "{stats:?}");
    assert_eq!(
        (stats.misses, stats.hits),
        (1, racers as u64 - 1),
        "{stats:?}"
    );
    assert!(
        plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])),
        "every racer must share the one built plan"
    );
    let spans = venom_obs::trace::drain()
        .into_iter()
        .filter(|e| e.name == "attn_plan_build")
        .count() as u64;
    assert_eq!(spans, stats.builds, "one build span per counted build");
}
