//! `deal-stream`: deal events written beside paced reads.
//!
//! A clustered 80k-item catalogue is saved with `save_mmap_snapshot`,
//! cold-opened with `open_mmap_snapshot`, and served by a 4-shard
//! `ShardedEngine` (per-shard IVF probing 1/16 of the cells, incremental
//! IVF updates, a response cache) behind `RecommendService`. A writer
//! thread runs a fixed tick schedule; each tick it appends the tick's deal
//! events to an `EventLog`, publishes the re-embedded users and items the
//! tick touched with `publish_delta`, installs `blocked_items_at` as the
//! deal filter, and issues one probe query. A reader thread sends paced
//! `try_recommend_versioned` calls for Zipf-skewed users.

use crate::sched::{deal_plan, paced_schedule, DealOp, Zipf};
use crate::stats::{mean, median, ndcg_vs_exact, nearest_rank, FAILED};
use crate::trace::Tracer;
use crate::{layers, procfs, wait_until, Outcome, RunCfg};
use gb_data::{DealPhase, EventLog};
use gb_eval::metrics::recall_vs_exact;
use gb_graph::BitMatrix;
use gb_models::{EmbeddingSnapshot, SnapshotDelta};
use gb_serve::{
    open_mmap_snapshot, save_mmap_snapshot, EngineConfig, QueryEngine, RecommendService, Retrieval,
    ServiceConfig, ShardedConfig, ShardedEngine,
};
use gb_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_ITEMS: usize = 80_000;
const N_USERS: usize = 2_000;
/// Own and social embedding width (64-wide concatenated item vectors).
const DIM: usize = 32;
/// Latent categories the catalogue clusters around.
const N_CATEGORIES: usize = 256;
const N_SHARDS: usize = 4;
/// IVF cells per shard and cells probed: 1/16 of each shard's catalogue.
const CLUSTERS_PER_SHARD: usize = 64;
const PROBES_PER_SHARD: usize = 4;
const CACHE_CAPACITY: usize = 4096;
const WORKERS: usize = 2;
const K: usize = 10;
/// Writer tick period.
const TICK_S: f64 = 0.1;
/// Reader pace, requests per second.
const READ_RATE: f64 = 200.0;
/// Zipf exponent of which users read.
const READ_ZIPF: f64 = 1.0;
/// Ticks of deal history replayed into the log before timing starts, so
/// the timed ticks begin with deals at every age.
const PREROLL_TICKS: usize = 60;
/// Ticks of the live stream run before timing starts (untimed,
/// untraced): the first ticks after start-up are slower and vary more.
const WARMUP_TICKS: usize = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Users whose final served top-10 is compared against exact retrieval.
const RECALL_USERS: u32 = 512;
/// Full and expired deals are blocked; live and expiring ones are served.
const ALLOWED: [DealPhase; 2] = [DealPhase::Live, DealPhase::Expiring];

/// The seeded catalogue: items around `N_CATEGORIES` centres plus 8%
/// noise (real catalogues cluster by category, which is what IVF
/// exploits), users unclustered. Tables are shared so clones alias.
fn catalogue(seed: u64) -> EmbeddingSnapshot {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEA1_57EA);
    let centres_own = init::xavier_uniform(N_CATEGORIES, DIM, &mut rng);
    let centres_social = init::xavier_uniform(N_CATEGORIES, DIM, &mut rng);
    let noise_own = init::xavier_uniform(N_ITEMS, DIM, &mut rng);
    let noise_social = init::xavier_uniform(N_ITEMS, DIM, &mut rng);
    let item = |centres: &Matrix, noise: &Matrix| {
        Matrix::from_fn(N_ITEMS, DIM, |r, c| {
            centres.get(r % N_CATEGORIES, c) + 0.08 * noise.get(r, c)
        })
    };
    EmbeddingSnapshot::new(
        0.6,
        init::xavier_uniform(N_USERS, DIM, &mut rng),
        item(&centres_own, &noise_own),
        init::xavier_uniform(N_USERS, DIM, &mut rng),
        item(&centres_social, &noise_social),
    )
    .to_shared()
}

fn sharded_config() -> ShardedConfig {
    ShardedConfig {
        n_shards: N_SHARDS,
        engine: EngineConfig {
            retrieval: Retrieval::Ivf {
                n_clusters: CLUSTERS_PER_SHARD,
                n_probe: PROBES_PER_SHARD,
            },
            ivf_incremental: true,
            cache_capacity: CACHE_CAPACITY,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Applies one tick's operations to the log.
fn append(log: &mut EventLog, ops: &[DealOp]) {
    for op in ops {
        match *op {
            DealOp::Open {
                item,
                initiator,
                threshold,
            } => {
                log.open(item, initiator, threshold);
            }
            DealOp::Join { deal, user } => log.join(deal, user),
            DealOp::Full { deal } => log.full(deal),
            DealOp::Expire { deal } => log.expire(deal),
        }
    }
}

/// Re-embeds what one tick touched: a user who launches or joins a deal
/// moves 10% toward the deal's item; a newly opened item moves 5% toward
/// its initiator; a clinched item grows 2%, an expired one shrinks 2%.
fn build_delta(snap: &EmbeddingSnapshot, log: &EventLog, ops: &[DealOp]) -> SnapshotDelta {
    type Rows = BTreeMap<u32, (Vec<f32>, Vec<f32>)>;
    let mut users: Rows = BTreeMap::new();
    let mut items: Rows = BTreeMap::new();
    let user_row = |rows: &mut Rows, u: u32| {
        rows.entry(u)
            .or_insert_with(|| {
                let u = u as usize;
                (
                    snap.user_own().row(u).to_vec(),
                    snap.user_social().row(u).to_vec(),
                )
            })
            .clone()
    };
    let item_row = |rows: &mut Rows, i: u32| {
        rows.entry(i)
            .or_insert_with(|| {
                let i = i as usize;
                (
                    snap.item_own().row(i).to_vec(),
                    snap.item_social().row(i).to_vec(),
                )
            })
            .clone()
    };
    let blend = |a: &[f32], b: &[f32], w: f32| -> Vec<f32> {
        a.iter()
            .zip(b)
            .map(|(x, y)| (1.0 - w) * x + w * y)
            .collect()
    };
    let scale = |a: &[f32], s: f32| -> Vec<f32> { a.iter().map(|x| x * s).collect() };
    for op in ops {
        match *op {
            DealOp::Open {
                item, initiator, ..
            } => {
                let (io, is) = item_row(&mut items, item);
                let (uo, us) = user_row(&mut users, initiator);
                items.insert(item, (blend(&io, &uo, 0.05), blend(&is, &us, 0.05)));
                users.insert(initiator, (blend(&uo, &io, 0.1), blend(&us, &is, 0.1)));
            }
            DealOp::Join { deal, user } => {
                let (io, is) = item_row(&mut items, log.deal_item(deal));
                let (uo, us) = user_row(&mut users, user);
                users.insert(user, (blend(&uo, &io, 0.1), blend(&us, &is, 0.1)));
            }
            DealOp::Full { deal } | DealOp::Expire { deal } => {
                let s = if matches!(op, DealOp::Full { .. }) {
                    1.02
                } else {
                    0.98
                };
                let item = log.deal_item(deal);
                let (io, is) = item_row(&mut items, item);
                items.insert(item, (scale(&io, s), scale(&is, s)));
            }
        }
    }
    let delta = users
        .into_iter()
        .fold(SnapshotDelta::new(), |d, (u, (o, s))| d.set_user(u, o, s));
    items
        .into_iter()
        .fold(delta, |d, (i, (o, s))| d.set_item(i, o, s))
}

fn blocked_filter(log: &EventLog) -> BitMatrix {
    log.blocked_items_at(log.len() as u64, u64::MAX, &ALLOWED, false, N_ITEMS)
}

/// `(shard mean, merge mean)` of the router's per-stage times recorded
/// between two `latency_breakdown()` reads: the stage totals and counts
/// are differenced, so samples from before the timed phase never count.
fn stage_means(
    before: &gb_eval::timing::LatencyBreakdown,
    after: &gb_eval::timing::LatencyBreakdown,
) -> (f64, f64) {
    let n = after.n_stages();
    let stage = |i: usize| {
        let count = after.stage(i).n_samples() - before.stage(i).n_samples();
        let total = after.stage(i).total_secs() - before.stage(i).total_secs();
        total / count.max(1) as f64
    };
    let shards: Vec<f64> = (0..n - 1).map(stage).collect();
    (mean(&shards).unwrap_or(0.0), stage(n - 1))
}

type Reply = Result<(u64, Arc<Vec<gb_serve::ScoredItem>>), gb_serve::ServeError>;

/// One writer tick: how late it began, due time → probe reply, begin →
/// probe reply, the version it published, the probe's reply, and the
/// delta and filter it installed.
struct TickRecord {
    late_s: f64,
    lag_s: f64,
    busy_s: f64,
    version: u64,
    probe: Reply,
    delta: SnapshotDelta,
    filter: BitMatrix,
}

/// One reader request: how late it was sent, due time → reply, and the
/// reply.
struct ReadRecord {
    late_s: f64,
    latency_s: f64,
    reply: Reply,
}

/// Runs the writer and the reader side by side: the writer plays
/// `plan` (ticks `first..first + plan.len()` after the pre-roll), one
/// tick every `TICK_S`; the reader sends `reads` (due times relative to
/// the phase's start).
fn stream(
    service: &RecommendService<ShardedEngine>,
    tracer: &Tracer,
    log: &mut EventLog,
    first: usize,
    plan: &[Vec<DealOp>],
    reads: &[(f64, u32)],
) -> (Vec<TickRecord>, Vec<ReadRecord>) {
    let engine = service.engine();
    let origin = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        let reader = std::thread::Builder::new()
            .name("reader".into())
            .spawn_scoped(s, || {
                let mut got = Vec::with_capacity(reads.len());
                for (i, &(due_s, user)) in reads.iter().enumerate() {
                    let due = origin + Duration::from_secs_f64(due_s);
                    let sent = wait_until(due);
                    let reply = tracer.request(
                        "serve.service.try_recommend_versioned",
                        i as u64 + 1,
                        || service.try_recommend_versioned(user, K),
                    );
                    got.push(ReadRecord {
                        late_s: (sent - due).as_secs_f64(),
                        latency_s: due.elapsed().as_secs_f64(),
                        reply,
                    });
                }
                got
            })
            .expect("spawn reader thread");
        let writer = std::thread::Builder::new()
            .name("writer".into())
            .spawn_scoped(s, || {
                let mut ticks = Vec::with_capacity(plan.len());
                for (i, ops) in plan.iter().enumerate() {
                    let t = first + i;
                    let due = origin + Duration::from_secs_f64(i as f64 * TICK_S);
                    let begun = wait_until(due);
                    let tick = tracer.request("bench.tick", 1_000_000 + t as u64, || {
                        tracer.span("data.events_append", || append(log, ops));
                        let cur = engine.handle().load();
                        let delta = tracer.span("models.delta_build", || {
                            build_delta(cur.snapshot(), log, ops)
                        });
                        let version = tracer.span("serve.router.publish_delta", || {
                            engine.publish_delta(&delta)
                        });
                        let filter = tracer.span("data.blocked_items_at", || blocked_filter(log));
                        tracer.span("serve.router.set_deal_filter", || {
                            engine.set_deal_filter(filter.clone())
                        });
                        let probe = tracer.span("serve.first_query", || {
                            service.try_recommend_versioned((t % N_USERS) as u32, K)
                        });
                        (version, probe, delta, filter)
                    });
                    let end = Instant::now();
                    ticks.push(TickRecord {
                        late_s: (begun - due).as_secs_f64(),
                        lag_s: (end - due).as_secs_f64(),
                        busy_s: (end - begun).as_secs_f64(),
                        version: tick.0,
                        probe: tick.1,
                        delta: tick.2,
                        filter: tick.3,
                    });
                }
                ticks
            })
            .expect("spawn writer thread");
        let reads = reader.join().expect("reader thread");
        (writer.join().expect("writer thread"), reads)
    })
}

/// Its times stay wall-clock seconds, not reference-host ones (see
/// host.rs): they are mostly waits on publishes, copies and the other
/// threads, which did not follow the host reference, and scaling them by
/// it widened the spread between runs.
pub fn run(cfg: &RunCfg, tracer: &Tracer) -> Outcome {
    let mut out = Outcome {
        threads: vec![
            "main (set-up, checks)".into(),
            "writer (deal ticks)".into(),
            "reader (paced queries)".into(),
            "gb-serve-0 (service worker)".into(),
            "gb-serve-1 (service worker)".into(),
        ],
        ..Default::default()
    };
    let path = cfg.scratch.join(format!(
        "deal-stream-{}-{}.gbsn2",
        cfg.seed,
        std::process::id()
    ));

    // --- set-up: catalogue, mmap save + cold open, engine, first query -
    let mut setups = Vec::new();
    let mut built = None;
    let (mut answered, mut round_trip) = (true, true);
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        let snap = catalogue(cfg.seed);
        let opened = std::fs::create_dir_all(&cfg.scratch)
            .and_then(|()| save_mmap_snapshot(&snap, &path))
            .and_then(|()| open_mmap_snapshot(&path));
        let opened = match opened {
            Ok(s) => s,
            Err(e) => {
                out.check(
                    format!("mmap snapshot round trip through {}: {e}", path.display()),
                    false,
                );
                snap.clone()
            }
        };
        let service = RecommendService::with_config(
            ShardedEngine::with_config(opened.clone(), sharded_config()),
            ServiceConfig {
                workers: WORKERS,
                ..Default::default()
            },
        );
        answered &= service.try_recommend(0, K).is_ok();
        setups.push(t.elapsed().as_secs_f64());
        round_trip &= opened == snap;
        built = Some((opened, service));
    }
    out.check("service answers after every set-up", answered);
    out.check("cold-opened snapshot equals the saved one", round_trip);
    std::fs::remove_file(&path).ok();
    let (initial, service) = built.expect("at least one set-up");
    let engine: &ShardedEngine = service.engine();

    // Deal history before timing: events only, one filter install.
    let n_ticks = (cfg.seconds / TICK_S).floor().max(1.0) as usize;
    let plan = deal_plan(
        cfg.seed,
        PREROLL_TICKS + WARMUP_TICKS + n_ticks,
        N_USERS as u32,
        N_ITEMS as u32,
    );
    let mut log = EventLog::new();
    for ops in &plan[..PREROLL_TICKS] {
        append(&mut log, ops);
    }
    let initial_filter = blocked_filter(&log);
    engine.set_deal_filter(initial_filter.clone());
    let v_start = engine.handle().version();

    let warm_s = WARMUP_TICKS as f64 * TICK_S;
    let schedule = paced_schedule(
        cfg.seed,
        warm_s + n_ticks as f64 * TICK_S,
        READ_RATE,
        &Zipf::new(N_USERS, READ_ZIPF),
    );
    let (warm_reads, timed_reads): (Vec<_>, Vec<_>) =
        schedule.into_iter().partition(|&(due, _)| due < warm_s);
    let timed_reads: Vec<(f64, u32)> = timed_reads
        .into_iter()
        .map(|(due, user)| (due - warm_s, user))
        .collect();

    // --- warm-up, untimed and untraced: the same stream -----------------
    let (mut ticks, mut reads) = stream(
        &service,
        &Tracer::new(false),
        &mut log,
        0,
        &plan[PREROLL_TICKS..PREROLL_TICKS + WARMUP_TICKS],
        &warm_reads,
    );

    // --- timed phase: writer and reader threads ----------------------
    let breakdown0 = engine.latency_breakdown();
    let cache0: Vec<(u64, u64)> = engine
        .shards()
        .iter()
        .map(QueryEngine::cache_stats)
        .collect();
    service.latency_stopwatch();
    let (served0, batches0) = (service.requests_served(), service.batches_served());
    let (timed_ticks, timed_reads) = stream(
        &service,
        tracer,
        &mut log,
        WARMUP_TICKS,
        &plan[PREROLL_TICKS + WARMUP_TICKS..],
        &timed_reads,
    );
    ticks.extend(timed_ticks);
    let n_warm_reads = reads.len();
    reads.extend(timed_reads);
    // Peak memory of the live tier, before the checks' replay adds its own.
    let peak_rss = procfs::peak_rss_mib();
    let enqueue_to_reply = service.latency_stopwatch();
    let (served1, batches1) = (service.requests_served(), service.batches_served());
    let breakdown1 = engine.latency_breakdown();
    let cache1: Vec<(u64, u64)> = engine
        .shards()
        .iter()
        .map(QueryEngine::cache_stats)
        .collect();

    // --- correctness ---------------------------------------------------
    // blocked_since[item]: index of the first filter that blocks it
    // (0 = the pre-roll filter, t + 1 = tick t's filter).
    let mut blocked_since = vec![usize::MAX; N_ITEMS];
    let mut monotone = true;
    let filters = ticks.iter().map(|t| &t.filter);
    for (idx, f) in std::iter::once(&initial_filter).chain(filters).enumerate() {
        for (item, since) in blocked_since.iter_mut().enumerate() {
            let b = f.contains(0, item);
            if *since != usize::MAX && !b {
                monotone = false;
            }
            if b && *since == usize::MAX {
                *since = idx;
            }
        }
    }
    out.check(
        "each tick's blocked set contains the previous tick's",
        monotone,
    );
    let clean = |items: &[gb_serve::ScoredItem], installed: usize| {
        items
            .iter()
            .all(|e| blocked_since[e.item as usize] > installed)
    };
    // Tick t published version v_start + t + 1 before installing its
    // filter, so a reply at that version is guaranteed tick t-1's filter
    // (index t); the probe, issued after the install, tick t's (t + 1).
    let installed_for = |version: u64| version.saturating_sub(v_start + 1) as usize;
    let mut probe_ok = true;
    for (t, tick) in ticks.iter().enumerate() {
        probe_ok &= tick.version == v_start + t as u64 + 1;
        match &tick.probe {
            Ok((v, items)) => probe_ok &= *v >= tick.version && clean(items, t + 1),
            Err(_) => out.failed += 1,
        }
        out.attempted += 1;
    }
    out.check(
        "every probe reply is at its tick's version or later and avoids its filter",
        probe_ok,
    );
    let mut last_version = 0;
    let mut versions_monotone = true;
    let mut reader_clean = true;
    for r in &reads {
        out.attempted += 1;
        match &r.reply {
            Ok((v, items)) => {
                versions_monotone &= *v >= last_version;
                last_version = *v;
                reader_clean &= clean(items, installed_for(*v));
            }
            Err(_) => out.failed += 1,
        }
    }
    out.check(
        "reply versions never go backwards for the reader",
        versions_monotone,
    );
    out.check(
        "no reply at version >= v holds an item blocked by the filter installed before v",
        reader_clean,
    );

    // Final served top-10 vs exact retrieval on the same snapshot and filter.
    let final_filter = ticks.last().map_or(&initial_filter, |t| &t.filter);
    let (recall, ndcg) = served_quality(&service, final_filter, &mut out);
    let largest_group = service.largest_group();
    let final_snapshot = engine.handle().load();
    drop(service); // the replay below builds a second tier; keep one alive
    let (replay_recall, replay_ndcg) = replay(&initial, &initial_filter, &ticks, &mut out);
    out.check(
        "served recall and ndcg bit-identical when the stream is replayed",
        recall.to_bits() == replay_recall.to_bits() && ndcg.to_bits() == replay_ndcg.to_bits(),
    );

    // --- metrics -------------------------------------------------------
    // Only the timed phase counts; a failed reply counts as +∞.
    let (ticks, reads) = (&ticks[WARMUP_TICKS..], &reads[n_warm_reads..]);
    let pct = |s: &[f64], p: f64| nearest_rank(s, p).unwrap_or(FAILED);
    let latencies: Vec<f64> = reads
        .iter()
        .map(|r| if r.reply.is_ok() { r.latency_s } else { FAILED })
        .collect();
    let lags: Vec<f64> = ticks
        .iter()
        .map(|t| if t.probe.is_ok() { t.lag_s } else { FAILED })
        .collect();
    let busy: Vec<f64> = ticks.iter().map(|t| t.busy_s).collect();
    let tick_busy = median(&busy).unwrap_or(FAILED);
    let e2e = [
        ("setup_s", median(&setups).unwrap_or(FAILED)),
        ("op_p50_s", pct(&latencies, 50.0)),
        ("op_p95_s", pct(&latencies, 95.0)),
        ("lag_p50_s", pct(&lags, 50.0)),
        ("lag_p90_s", pct(&lags, 90.0)),
        ("throughput_per_s", 1.0 / tick_busy),
        ("recall_at_10", recall),
        ("ndcg_at_10", ndcg),
        ("peak_rss_mb", peak_rss),
    ];
    out.e2e.extend(e2e);
    out.named("setup_s", "s", "lower", out.e2e["setup_s"]);
    out.named("query_p50_s", "s", "lower", out.e2e["op_p50_s"]);
    out.named("query_p95_s", "s", "lower", out.e2e["op_p95_s"]);
    out.named("fresh_lag_p50_s", "s", "lower", out.e2e["lag_p50_s"]);
    out.named("fresh_lag_p90_s", "s", "lower", out.e2e["lag_p90_s"]);
    out.named(
        "writer_ticks_per_s",
        "1/s",
        "higher",
        out.e2e["throughput_per_s"],
    );
    out.named("served_recall_at_10", "ratio", "higher", recall);
    out.named("served_ndcg_at_10", "ratio", "higher", ndcg);
    out.named("peak_rss_mb", "MiB", "lower", out.e2e["peak_rss_mb"]);
    out.named("ticks", "count", "info", ticks.len() as f64);
    out.named("reads", "count", "info", reads.len() as f64);

    let l = &mut out.layer;
    let (shard_mean, merge_mean) = stage_means(&breakdown0, &breakdown1);
    l.insert("serve.router.shard_mean_s", shard_mean);
    l.insert("serve.router.merge_mean_s", merge_mean);
    let (hits, lookups) = cache0.iter().zip(&cache1).fold((0, 0), |(h, n), (a, b)| {
        (h + b.0 - a.0, n + (b.0 - a.0) + (b.1 - a.1))
    });
    l.insert("serve.cache.hit_ratio", hits as f64 / lookups.max(1) as f64);
    l.insert(
        "serve.service.mean_group",
        (served1 - served0) as f64 / (batches1 - batches0).max(1) as f64,
    );
    l.insert("serve.service.largest_group", largest_group as f64);
    l.insert(
        "serve.service.enqueue_to_reply_p95_s",
        enqueue_to_reply.percentile_secs(95.0),
    );
    let reader_late: Vec<f64> = reads.iter().map(|r| r.late_s).collect();
    l.insert("bench.generator_late_p95_s", pct(&reader_late, 95.0));
    let writer_late: Vec<f64> = ticks.iter().map(|t| t.late_s).collect();
    l.insert("bench.writer_late_p95_s", pct(&writer_late, 95.0));
    l.insert("data.event_log_len", log.len() as f64);
    if tracer.enabled() {
        for (metric, span) in [
            ("data.events_append_s", "data.events_append"),
            ("models.delta_build_s", "models.delta_build"),
            ("serve.router.publish_delta_s", "serve.router.publish_delta"),
            (
                "serve.router.set_deal_filter_s",
                "serve.router.set_deal_filter",
            ),
            ("serve.first_query_s", "serve.first_query"),
        ] {
            l.insert(metric, tracer.mean_s(span));
        }
        let blocked = tracer.durations("data.blocked_items_at");
        let tenth = (blocked.len() / 10).max(1);
        l.insert(
            "data.blocked_items_at_s.first",
            mean(&blocked[..tenth]).unwrap_or(0.0),
        );
        l.insert(
            "data.blocked_items_at_s.last",
            mean(&blocked[blocked.len() - tenth..]).unwrap_or(0.0),
        );
        layers::scoring(final_snapshot.snapshot(), tracer, l);
    }
    out
}

/// Mean recall@10 and NDCG@10 of `serve`'s top-10 against an exact
/// engine over `snapshot` with the same deal filter, for a fixed user
/// set. A failed query scores 0.
fn quality(
    snapshot: &EmbeddingSnapshot,
    filter: &BitMatrix,
    out: &mut Outcome,
    mut serve: impl FnMut(u32) -> Option<Vec<u32>>,
) -> (f64, f64) {
    let exact = QueryEngine::new(snapshot.clone());
    exact.set_deal_filter(filter.clone());
    let (mut recall, mut ndcg) = (Vec::new(), Vec::new());
    for user in 0..RECALL_USERS {
        let want: Vec<u32> = exact.recommend(user, K).iter().map(|e| e.item).collect();
        out.attempted += 1;
        match serve(user) {
            Some(got) => {
                recall.push(f64::from(recall_vs_exact(&want, &got)));
                ndcg.push(ndcg_vs_exact(&want, &got));
            }
            None => {
                out.failed += 1;
                recall.push(0.0);
                ndcg.push(0.0);
            }
        }
    }
    (mean(&recall).unwrap_or(0.0), mean(&ndcg).unwrap_or(0.0))
}

fn item_ids(items: &[gb_serve::ScoredItem]) -> Vec<u32> {
    items.iter().map(|e| e.item).collect()
}

/// Served quality at the end of the live stream, through the service.
fn served_quality(
    service: &RecommendService<ShardedEngine>,
    filter: &BitMatrix,
    out: &mut Outcome,
) -> (f64, f64) {
    let cur = service.engine().handle().load();
    let mut stale = false;
    let q = quality(cur.snapshot(), filter, out, |u| {
        let (v, items) = service.try_recommend_versioned(u, K).ok()?;
        stale |= v != cur.version();
        Some(item_ids(&items))
    });
    out.check("final quality queries see the final version", !stale);
    q
}

/// Replays the stream's publishes and filter installs, with one query
/// after each (as the probe did), on a fresh engine over the cold-opened
/// snapshot, and measures the same served quality directly on it.
fn replay(
    initial: &EmbeddingSnapshot,
    initial_filter: &BitMatrix,
    ticks: &[TickRecord],
    out: &mut Outcome,
) -> (f64, f64) {
    let engine = ShardedEngine::with_config(initial.clone(), sharded_config());
    let first = engine.try_recommend(0, K).is_ok();
    engine.set_deal_filter(initial_filter.clone());
    let mut ok = first;
    for (t, tick) in ticks.iter().enumerate() {
        engine.publish_delta(&tick.delta);
        engine.set_deal_filter(tick.filter.clone());
        ok &= engine.try_recommend((t % N_USERS) as u32, K).is_ok();
    }
    out.check("replayed stream serves every probe", ok);
    let cur = engine.handle().load();
    let filter = ticks.last().map_or(initial_filter, |t| &t.filter);
    quality(cur.snapshot(), filter, out, |u| {
        engine.try_recommend(u, K).ok().map(|r| item_ids(&r.items))
    })
}
