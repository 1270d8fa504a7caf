//! `serve-burst`: exact top-10 retrieval behind `RecommendService`
//! under open-loop bursts, then at saturation.
//!
//! A 20k-item, d=64 catalogue with an 8000-user universe is served by one
//! exact `QueryEngine` (no cache) behind a service with 2 workers. The
//! generator (the main thread) sends bursts of `try_recommend_batch` on a
//! seeded schedule at a fixed offered rate; a request's latency runs from
//! its burst's due time to the moment the batch hands its slot back, and
//! a failed slot counts as `+∞`. Between open-loop stretches, bursts go
//! back to back and measure the saturated rate.

use crate::host::HostSpeed;
use crate::sched::{burst_schedule, SplitMix64};
use crate::stats::{mean_percentile, median, ndcg_vs_exact, nearest_rank, FAILED};
use crate::trace::Tracer;
use crate::{layers, procfs, wait_until, Outcome, RunCfg};
use gb_eval::metrics::recall_vs_exact;
use gb_eval::topk::reference_topk;
use gb_models::EmbeddingSnapshot;
use gb_serve::{EngineConfig, QueryEngine, RecommendService, ServiceConfig};
use gb_tensor::init;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const N_ITEMS: usize = 20_000;
const N_USERS: usize = 8_000;
const DIM: usize = 64;
const WORKERS: usize = 2;
const K: usize = 10;
/// Offered load of the open-loop windows, requests per second: about half
/// of the saturated rate, which reads 700–990 req/s on a 2-vCPU x86-64
/// container. Fixed, so a faster program shows up as lower latency at the
/// same load rather than as a different load.
pub const OFFERED_RATE: f64 = 400.0;
/// Burst sizes of the open-loop phase (uniform, inclusive).
const BURST_SIZES: (u32, u32) = (8, 24);
/// Burst size of the saturation phase.
const SATURATION_BURST: usize = 64;
/// Timed windows per run; each is an open-loop stretch then a saturated
/// one. Open-loop percentiles pool every window's samples; saturated
/// ones are means over windows of each window's percentile, and the
/// saturated rate is the median over windows.
const WINDOWS: usize = 10;
/// Share of each window spent in open loop; the rest saturates.
const OPEN_SHARE: f64 = 0.7;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Every this many bursts, the first reply is checked against the
/// offline reference ranking.
const CHECK_EVERY: u64 = 4;

/// The seeded catalogue: Xavier-uniform user and item tables.
fn catalogue(seed: u64) -> EmbeddingSnapshot {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E_B025);
    EmbeddingSnapshot::new(
        0.6,
        init::xavier_uniform(N_USERS, DIM, &mut rng),
        init::xavier_uniform(N_ITEMS, DIM, &mut rng),
        init::xavier_uniform(N_USERS, DIM, &mut rng),
        init::xavier_uniform(N_ITEMS, DIM, &mut rng),
    )
    .to_shared()
}

fn start_service(snap: &EmbeddingSnapshot) -> RecommendService {
    RecommendService::with_config(
        QueryEngine::with_config(
            snap.clone(),
            EngineConfig {
                cache_capacity: 0,
                ..Default::default()
            },
        ),
        ServiceConfig {
            workers: WORKERS,
            queue_depth: 256,
            ..Default::default()
        },
    )
}

pub fn run(cfg: &RunCfg, tracer: &Tracer, host: &mut HostSpeed) -> Outcome {
    let mut out = Outcome {
        threads: vec![
            "main (generator)".into(),
            "gb-serve-0 (service worker)".into(),
            "gb-serve-1 (service worker)".into(),
        ],
        ..Default::default()
    };

    // --- set-up: catalogue, engine, service, first reply -------------
    let mut setups = Vec::new();
    let mut built = None;
    let mut answered = true;
    host.sample();
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        let snap = catalogue(cfg.seed);
        let service = start_service(&snap);
        answered &= service.try_recommend(0, K).is_ok();
        setups.push(t.elapsed().as_secs_f64());
        built = Some((snap, service));
    }
    out.check("service answers after every set-up", answered);
    let (snap, service) = built.expect("at least one set-up");
    let all_items: Vec<u32> = (0..N_ITEMS as u32).collect();

    // Warm-up, untimed: workers, allocator and caches reach steady state.
    let mut g = SplitMix64::derive(cfg.seed, 10);
    for _ in 0..20 {
        let users: Vec<u32> = (0..16).map(|_| g.below(N_USERS as u64) as u32).collect();
        std::hint::black_box(service.try_recommend_batch(&users, K));
    }
    service.latency_stopwatch(); // drop warm-up samples

    // --- timed phase: open-loop and saturated windows, interleaved ----
    // Neighbouring load on a shared host drifts over seconds; alternating
    // the two kinds of window spreads that drift over both phases alike.
    let window_s = cfg.seconds / WINDOWS as f64;
    let open_len = window_s * OPEN_SHARE;
    let sat_len = Duration::from_secs_f64(window_s * (1.0 - OPEN_SHARE));
    let schedule = burst_schedule(
        cfg.seed,
        open_len * WINDOWS as f64,
        OFFERED_RATE,
        BURST_SIZES,
        N_USERS as u32,
    );
    let mut open_latencies = Vec::new();
    let mut sat_latencies = Vec::new();
    let mut sat_qps = Vec::new();
    let mut late = Vec::new();
    let mut sampled: Vec<(u32, Vec<u32>)> = Vec::new();
    let mut enqueue_p95 = Vec::new();
    let (mut open_served, mut open_batches) = (0usize, 0usize);
    let pct = |s: &[f64], p: f64| nearest_rank(s, p).unwrap_or(FAILED);
    let mut req = 0u64;
    for w in 0..WINDOWS {
        host.sample();
        // Open loop: latency from each burst's due time to its replies.
        let (lo, hi) = (w as f64 * open_len, (w + 1) as f64 * open_len);
        let (served0, batches0) = (service.requests_served(), service.batches_served());
        let origin = Instant::now() + Duration::from_millis(2);
        for burst in schedule.iter().filter(|b| b.due_s >= lo && b.due_s < hi) {
            let due = origin + Duration::from_secs_f64(burst.due_s - lo);
            let sent = wait_until(due);
            late.push((sent - due).as_secs_f64());
            req += 1;
            let replies = tracer.request("serve.service.try_recommend_batch", req, || {
                service.try_recommend_batch(&burst.users, K)
            });
            let lat = due.elapsed().as_secs_f64();
            for r in &replies {
                out.attempted += 1;
                open_latencies.push(if r.is_ok() { lat } else { FAILED });
                out.failed += u64::from(r.is_err());
            }
            if req.is_multiple_of(CHECK_EVERY) {
                if let Ok(items) = &replies[0] {
                    sampled.push((burst.users[0], items.iter().map(|e| e.item).collect()));
                }
            }
        }
        open_served += service.requests_served() - served0;
        open_batches += service.batches_served() - batches0;
        enqueue_p95.push(service.latency_stopwatch().percentile_secs(95.0));

        // Saturation: bursts back to back.
        let mut latencies = Vec::new();
        let mut served = 0usize;
        let start = Instant::now();
        while start.elapsed() < sat_len {
            let users: Vec<u32> = (0..SATURATION_BURST)
                .map(|_| g.below(N_USERS as u64) as u32)
                .collect();
            let sent = Instant::now();
            req += 1;
            let replies =
                tracer.request("serve.service.try_recommend_batch.saturated", req, || {
                    service.try_recommend_batch(&users, K)
                });
            let lat = sent.elapsed().as_secs_f64();
            for r in &replies {
                out.attempted += 1;
                served += usize::from(r.is_ok());
                latencies.push(if r.is_ok() { lat } else { FAILED });
                out.failed += u64::from(r.is_err());
            }
            if req.is_multiple_of(CHECK_EVERY) {
                if let Ok(items) = &replies[0] {
                    sampled.push((users[0], items.iter().map(|e| e.item).collect()));
                }
            }
        }
        sat_qps.push(served as f64 / start.elapsed().as_secs_f64());
        sat_latencies.push(latencies);
        service.latency_stopwatch(); // saturated samples: not open-loop
    }
    let saturated_qps = median(&sat_qps).unwrap_or(0.0);

    // --- correctness: sampled replies == offline reference ranking ----
    let mut recall = Vec::new();
    let mut ndcg = Vec::new();
    let mut mismatches = 0;
    for (user, served) in &sampled {
        let exact: Vec<u32> = reference_topk(&snap, *user, &all_items, K)
            .iter()
            .map(|e| e.0)
            .collect();
        if &exact != served {
            mismatches += 1;
        }
        recall.push(f64::from(recall_vs_exact(&exact, served)));
        ndcg.push(ndcg_vs_exact(&exact, served));
    }
    out.check(
        format!(
            "sampled replies equal reference_topk item-for-item ({} of {} sampled)",
            sampled.len() - mismatches,
            sampled.len()
        ),
        mismatches == 0 && sampled.len() >= 10,
    );

    let med = |s: &[f64]| median(s).unwrap_or(FAILED);
    let e2e = [
        ("setup_s", median(&setups).unwrap_or(FAILED)),
        ("op_p50_s", pct(&open_latencies, 50.0)),
        ("op_p95_s", pct(&open_latencies, 95.0)),
        (
            "lag_p50_s",
            mean_percentile(&sat_latencies, 50.0).unwrap_or(FAILED),
        ),
        (
            "lag_p90_s",
            mean_percentile(&sat_latencies, 90.0).unwrap_or(FAILED),
        ),
        ("throughput_per_s", saturated_qps),
        ("recall_at_10", crate::stats::mean(&recall).unwrap_or(0.0)),
        ("ndcg_at_10", crate::stats::mean(&ndcg).unwrap_or(0.0)),
        ("peak_rss_mb", procfs::peak_rss_mib()),
    ];
    out.e2e.extend(e2e);
    out.named("setup_s", "s", "lower", out.e2e["setup_s"]);
    out.named("query_p50_s", "s", "lower", out.e2e["op_p50_s"]);
    out.named("query_p95_s", "s", "lower", out.e2e["op_p95_s"]);
    out.named("saturated_qps", "1/s", "higher", saturated_qps);
    out.named("saturated_query_p50_s", "s", "lower", out.e2e["lag_p50_s"]);
    out.named("saturated_query_p90_s", "s", "lower", out.e2e["lag_p90_s"]);
    out.named(
        "served_recall_at_10",
        "ratio",
        "higher",
        out.e2e["recall_at_10"],
    );
    out.named(
        "served_ndcg_at_10",
        "ratio",
        "higher",
        out.e2e["ndcg_at_10"],
    );
    out.named("peak_rss_mb", "MiB", "lower", out.e2e["peak_rss_mb"]);
    out.named("offered_rate", "1/s", "info", OFFERED_RATE);
    out.named(
        "open_loop_samples",
        "count",
        "info",
        open_latencies.len() as f64,
    );

    // --- per-layer numbers --------------------------------------------
    let layer = &mut out.layer;
    layer.insert("bench.generator_late_p95_s", pct(&late, 95.0));
    layer.insert(
        "serve.service.mean_group",
        open_served as f64 / open_batches.max(1) as f64,
    );
    layer.insert(
        "serve.service.largest_group",
        service.largest_group() as f64,
    );
    layer.insert("serve.service.enqueue_to_reply_p95_s", med(&enqueue_p95));
    if tracer.enabled() {
        layers::scoring(&snap, tracer, layer);
        let engine = service.engine();
        for (g_size, span, metric) in [
            (
                1,
                "serve.engine.recommend_many.g1",
                "serve.engine.recommend_many_s.g1",
            ),
            (
                8,
                "serve.engine.recommend_many.g8",
                "serve.engine.recommend_many_s.g8",
            ),
            (
                64,
                "serve.engine.recommend_many.g64",
                "serve.engine.recommend_many_s.g64",
            ),
        ] {
            for _ in 0..(256 / g_size).clamp(4, 64) {
                let users: Vec<u32> = (0..g_size)
                    .map(|_| g.below(N_USERS as u64) as u32)
                    .collect();
                tracer.span(span, || {
                    std::hint::black_box(engine.recommend_many(&users, K))
                });
            }
            layer.insert(metric, tracer.mean_s(span));
        }
    }
    out
}
