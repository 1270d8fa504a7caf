//! `train-paper`: the paper's own job. Generate the paper-scale
//! Beibei-like data (1200 users, 300 items), split it leave-one-out, train
//! GBGCN with `fit_parallel` (tuned config, fixed reduced epoch budget,
//! 2 shards on 2 threads), export the serving snapshot, and evaluate
//! under the exhaustive leave-one-out protocol. After one untimed
//! warm-up fit, fits repeat until `--seconds` have passed (at least two);
//! every fit of one seed must give bit-identical quality.

use crate::host::HostSpeed;
use crate::stats::{mean_percentile, median, nearest_rank, FAILED};
use crate::trace::Tracer;
use crate::{procfs, Outcome, RunCfg};
use gb_autograd::{Adam, AdamConfig, ParamStore, Sgd, Tape};
use gb_core::batch::LossBatch;
use gb_core::propagation::{propagate, PropParams};
use gb_core::{GbgcnConfig, GbgcnModel, ParallelTrainConfig};
use gb_data::split::{leave_one_out, Split};
use gb_data::synth::{generate, SynthConfig};
use gb_data::{Dataset, NegativeSampler};
use gb_eval::{EvalProtocol, Scorer};
use gb_graph::HeteroGraphs;
use gb_models::common::shuffled_batches;
use gb_models::SnapshotSource;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::time::Instant;

const N_USERS: usize = 1200;
const N_ITEMS: usize = 300;
/// The fixed, reduced epoch budget (the tuned config trains 40 + 60).
const PRETRAIN_EPOCHS: usize = 4;
const FINETUNE_EPOCHS: usize = 2;
const SHARDS: usize = 2;
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Fits per run at the least, whatever `--seconds` says.
const MIN_FITS: usize = 2;
/// Propagation replays in the traced run.
const REPLAYS: usize = 3;
/// Users whose exported-snapshot scores are checked against the model.
const SNAPSHOT_CHECK_USERS: u32 = 16;

fn synth_config(seed: u64) -> SynthConfig {
    SynthConfig {
        n_users: N_USERS,
        n_items: N_ITEMS,
        ..SynthConfig::beibei_like()
    }
    .with_seed(seed)
}

fn model_config(seed: u64) -> GbgcnConfig {
    GbgcnConfig {
        pretrain_epochs: PRETRAIN_EPOCHS,
        finetune_epochs: FINETUNE_EPOCHS,
        ..gb_bench::tuned_gbgcn_config()
    }
    .with_seed(seed)
}

fn parallel() -> ParallelTrainConfig {
    ParallelTrainConfig {
        n_shards: SHARDS,
        n_threads: THREADS,
        refresh_every: 0,
    }
}

/// A [`Scorer`] that times every call into the model's scorer: the
/// per-user ranking latency of the testing pass.
struct TimedScorer<'a> {
    inner: &'a dyn Scorer,
    tracer: &'a Tracer,
    secs: RefCell<Vec<f64>>,
}

impl Scorer for TimedScorer<'_> {
    fn score_items(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let t = Instant::now();
        let out = self
            .tracer
            .span("eval.score_items", || self.inner.score_items(user, items));
        self.secs.borrow_mut().push(t.elapsed().as_secs_f64());
        out
    }
}

struct Prepared {
    split: Split,
    graphs: HeteroGraphs,
    sampler: NegativeSampler,
    model: GbgcnModel,
}

/// Data generation, split, graphs, sampler and an untrained model.
fn prepare(seed: u64, tracer: &Tracer) -> Prepared {
    let data: Dataset = tracer.span("data.generate", || generate(&synth_config(seed)));
    let split = tracer.span("data.leave_one_out", || leave_one_out(&data, seed));
    let graphs = tracer.span("graph.build_hetero", || split.train.build_hetero());
    let sampler = NegativeSampler::from_dataset(&split.train);
    let model = tracer.span("core.model_new", || {
        GbgcnModel::new(model_config(seed), &split.train)
    });
    Prepared {
        split,
        graphs,
        sampler,
        model,
    }
}

pub fn run(cfg: &RunCfg, tracer: &Tracer, host: &mut HostSpeed) -> Outcome {
    let mut out = Outcome {
        threads: vec![
            "main (batches, shared forward, optimizer, evaluation)".into(),
            "gb-shard-0 (shard gradients)".into(),
            "gb-shard-1 (shard gradients)".into(),
        ],
        ..Default::default()
    };
    let mut setups = Vec::new();
    let mut prepared = None;
    host.sample();
    for _ in 0..SETUPS {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(prepare(cfg.seed, tracer));
        setups.push(t.elapsed().as_secs_f64());
    }
    let Prepared {
        split,
        graphs,
        sampler,
        model,
    } = prepared.expect("at least one set-up");
    let train = &split.train;
    let protocol = EvalProtocol::exhaustive();
    let par = parallel();

    let mut fit_s = Vec::new();
    let mut lag_s = Vec::new();
    let mut score_s = Vec::new();
    let mut quality: Vec<(f64, f64)> = Vec::new();
    let mut snapshot = None;
    // Warm-up, untimed and untraced: one fit and one testing pass of the
    // set-up's model, so the timed fits start with the allocator, the
    // caches and the shard threads' code warm.
    let mut warm = model;
    warm.fit_parallel(train, &par, None);
    std::hint::black_box(protocol.evaluate(&warm, &split.test, &sampler, train.n_items()));
    drop(warm);
    let start = Instant::now();
    while fit_s.len() < MIN_FITS || start.elapsed().as_secs_f64() < cfg.seconds {
        host.sample();
        let t = Instant::now();
        let mut model = tracer.span("core.model_new", || {
            GbgcnModel::new(model_config(cfg.seed), train)
        });
        let fit_start = Instant::now();
        tracer.span("core.fit_parallel", || {
            model.fit_parallel(train, &par, None)
        });
        fit_s.push(fit_start.elapsed().as_secs_f64());
        let snap = tracer.span("models.export_snapshot", || model.export_snapshot());
        lag_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;

        let timed = TimedScorer {
            inner: &model,
            tracer,
            secs: RefCell::new(Vec::new()),
        };
        let m = tracer.span("eval.evaluate", || {
            protocol.evaluate(&timed, &split.test, &sampler, train.n_items())
        });
        out.attempted += 1;
        score_s.push(timed.secs.into_inner());
        quality.push((m.recall_at(10), m.ndcg_at(10)));

        let items: Vec<u32> = (0..train.n_items() as u32).collect();
        let same = (0..SNAPSHOT_CHECK_USERS).all(|u| {
            let a = snap.score_items(u, &items);
            let b = model.score_items(u, &items);
            a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits())
        });
        out.check(
            format!(
                "fit {}: exported snapshot scores equal the model's bit for bit",
                fit_s.len()
            ),
            same,
        );
        snapshot = Some((snap, model));
    }

    let (recall, ndcg) = quality[0];
    out.check(
        format!(
            "recall_at_10 and ndcg_at_10 bit-identical across {} fits of one seed",
            quality.len()
        ),
        quality
            .iter()
            .all(|&(r, n)| r.to_bits() == recall.to_bits() && n.to_bits() == ndcg.to_bits()),
    );
    // Random ranking of ~300 candidates gives recall@10 ≈ 0.034.
    out.check(
        "trained recall_at_10 beats a random ranking 3x",
        recall > 0.1,
    );

    let pct = |s: &[f64], p: f64| nearest_rank(s, p).unwrap_or(FAILED);
    let behaviors_per_fit = (train.behaviors().len() * (PRETRAIN_EPOCHS + FINETUNE_EPOCHS)) as f64;
    let train_s = median(&fit_s).unwrap_or(FAILED);
    let e2e = [
        ("setup_s", median(&setups).unwrap_or(FAILED)),
        (
            "op_p50_s",
            mean_percentile(&score_s, 50.0).unwrap_or(FAILED),
        ),
        (
            "op_p95_s",
            mean_percentile(&score_s, 95.0).unwrap_or(FAILED),
        ),
        ("lag_p50_s", pct(&lag_s, 50.0)),
        ("lag_p90_s", pct(&lag_s, 90.0)),
        ("throughput_per_s", behaviors_per_fit / train_s),
        ("recall_at_10", recall),
        ("ndcg_at_10", ndcg),
        ("peak_rss_mb", procfs::peak_rss_mib()),
    ];
    out.e2e.extend(e2e);
    out.named("setup_s", "s", "lower", out.e2e["setup_s"]);
    out.named("train_s", "s", "lower", train_s);
    out.named("recall_at_10", "ratio", "higher", recall);
    out.named("ndcg_at_10", "ratio", "higher", ndcg);
    out.named("test_user_rank_p50_s", "s", "lower", out.e2e["op_p50_s"]);
    out.named("test_user_rank_p95_s", "s", "lower", out.e2e["op_p95_s"]);
    out.named("fit_to_snapshot_p50_s", "s", "lower", out.e2e["lag_p50_s"]);
    out.named("fit_to_snapshot_p90_s", "s", "lower", out.e2e["lag_p90_s"]);
    out.named(
        "train_behaviors_per_s",
        "1/s",
        "higher",
        out.e2e["throughput_per_s"],
    );
    out.named("peak_rss_mb", "MiB", "lower", out.e2e["peak_rss_mb"]);
    out.named("fits", "count", "info", fit_s.len() as f64);

    if tracer.enabled() {
        let (_, model) = snapshot.as_mut().expect("at least one fit");
        replay_layers(cfg.seed, train, &graphs, &sampler, model, tracer, &mut out);
    }
    out
}

/// Replays the training layers on the workload's own graphs and config,
/// one public call per span, and derives the per-layer metrics.
fn replay_layers(
    seed: u64,
    train: &Dataset,
    graphs: &HeteroGraphs,
    sampler: &NegativeSampler,
    model: &mut GbgcnModel,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let mcfg = model_config(seed);
    let par = parallel();

    // One epoch of mini-batch assembly, as the trainer does it.
    let mut rng = StdRng::seed_from_u64(seed);
    let idx = shuffled_batches(train.behaviors().len(), mcfg.batch_size, &mut rng);
    let batches = tracer.span("data.loss_batch_build", || {
        idx.iter()
            .map(|b| LossBatch::build(train, b, mcfg.neg_ratio, sampler, &mut rng))
            .collect::<Vec<_>>()
    });
    let n_batches = batches.len() as f64;

    // Full propagation forward, its backward, and one step of each
    // optimizer, on a fresh parameter store of the same shapes.
    let mut store = ParamStore::new();
    let mut init_rng = StdRng::seed_from_u64(seed);
    let params = PropParams::init(
        &mut store,
        &mcfg,
        train.n_users(),
        train.n_items(),
        &mut init_rng,
    );
    let sgd = Sgd::new(mcfg.finetune_lr).with_clip_norm(10.0);
    let mut adam = Adam::new(AdamConfig::with_lr(mcfg.pretrain_lr), &store);
    for _ in 0..REPLAYS {
        let mut tape = Tape::new();
        let ve = tracer.span("core.propagate_fwd", || {
            propagate(&store, &params, &mut tape, graphs, &mcfg)
        });
        let parts = [ve.u_hat_i, ve.u_hat_p, ve.v_hat_i, ve.v_hat_p].map(|v| tape.mean_all(v));
        let loss = parts[1..].iter().fold(parts[0], |acc, &p| tape.add(acc, p));
        let grads = tracer.span("autograd.backward", || tape.backward(loss, &store));
        tracer.span("autograd.sgd_step", || sgd.step(&mut store, &grads));
        tracer.span("autograd.adam_step", || adam.step(&mut store, &grads));
    }

    // Whole epochs through the real trainer.
    let mut pre = GbgcnModel::new(
        GbgcnConfig {
            pretrain_epochs: 1,
            finetune_epochs: 0,
            ..mcfg.clone()
        },
        train,
    );
    tracer.span("train.pretrain_epoch", || {
        pre.fit_parallel(train, &par, None)
    });
    let fwd0 = model.propagation_forward_count();
    tracer.span("train.finetune_epoch", || {
        model.measure_epoch_secs_parallel(1, &par)
    });
    let fwd_per_batch = (model.propagation_forward_count() - fwd0) as f64 / n_batches;

    let l = &mut out.layer;
    for (metric, span) in [
        ("data.generate_s", "data.generate"),
        ("data.leave_one_out_s", "data.leave_one_out"),
        ("graph.build_hetero_s", "graph.build_hetero"),
        ("core.model_new_s", "core.model_new"),
        ("data.loss_batch_build_s", "data.loss_batch_build"),
        ("core.propagate_fwd_s", "core.propagate_fwd"),
        ("autograd.backward_s", "autograd.backward"),
        ("autograd.sgd_step_s", "autograd.sgd_step"),
        ("autograd.adam_step_s", "autograd.adam_step"),
        ("train.pretrain_epoch_s", "train.pretrain_epoch"),
        ("train.finetune_epoch_s", "train.finetune_epoch"),
        ("eval.evaluate_s", "eval.evaluate"),
        ("eval.score_items_s", "eval.score_items"),
        ("models.export_snapshot_s", "models.export_snapshot"),
    ] {
        l.insert(metric, tracer.mean_s(span));
    }
    l.insert("data.batches", n_batches);
    l.insert("core.propagate_per_batch", fwd_per_batch);
    let replayed_steps = n_batches
        * (l["core.propagate_fwd_s"] + l["autograd.backward_s"] + l["autograd.sgd_step_s"])
        + l["data.loss_batch_build_s"];
    l.insert(
        "train.shard_residual_s",
        l["train.finetune_epoch_s"] - replayed_steps,
    );
    out.check(
        "propagation forward runs once per batch",
        fwd_per_batch == 1.0,
    );
}
