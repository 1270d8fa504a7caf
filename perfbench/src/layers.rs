//! Replays of the scoring layers on a workload's own catalogue, for the
//! traced run: each call into the layer's public function runs inside a
//! span, and the metric is the mean span time per call.

use crate::trace::Tracer;
use gb_models::EmbeddingSnapshot;
use gb_serve::TopK;
use gb_tensor::kernels;
use std::collections::BTreeMap;

/// Items per kernel call: the serving engine's default block.
pub const BLOCK: usize = 512;
/// Users per batched block: the serving engine's default `user_block`.
const USER_BLOCK: usize = 8;
/// Catalogue passes replayed per layer.
const PASSES: usize = 8;

/// Times one catalogue pass per user of `users` through
/// `kernels::blend_dot_block` and `EmbeddingSnapshot::score_block_multi`
/// (per 512-item block), and `TopK` selection of 10 over a full pass of
/// scores. Also reports the bytes of item tables one pass streams.
pub fn scoring(snap: &EmbeddingSnapshot, tracer: &Tracer, out: &mut BTreeMap<&'static str, f64>) {
    let n_items = snap.n_items();
    let n_users = snap.n_users() as u32;
    let mut block = vec![0.0f32; BLOCK];
    let mut scores = vec![0.0f32; n_items];
    for p in 0..PASSES {
        let user = (p as u32 * 97) % n_users;
        let own = snap.user_own().row(user as usize);
        let social = snap.user_social().row(user as usize);
        let mut start = 0;
        while start < n_items {
            let len = BLOCK.min(n_items - start);
            tracer.span("tensor.blend_dot_block", || {
                kernels::blend_dot_block(
                    own,
                    snap.item_own(),
                    social,
                    snap.item_social(),
                    snap.alpha(),
                    start,
                    &mut block[..len],
                )
            });
            scores[start..start + len].copy_from_slice(&block[..len]);
            start += len;
        }
        let top = tracer.span("serve.topk", || {
            let mut top = TopK::new(10);
            for (i, &s) in scores.iter().enumerate() {
                top.push(i as u32, s);
            }
            top.into_sorted()
        });
        std::hint::black_box(top);
    }
    let users: Vec<u32> = (0..USER_BLOCK as u32)
        .map(|u| (u * 131) % n_users)
        .collect();
    let mut multi = vec![0.0f32; USER_BLOCK * BLOCK];
    for _ in 0..PASSES / 2 {
        let mut start = 0;
        while start < n_items {
            let len = BLOCK.min(n_items - start);
            tracer.span("models.score_block_multi", || {
                snap.score_block_multi(&users, start, len, &mut multi[..USER_BLOCK * len])
            });
            start += len;
        }
    }
    std::hint::black_box((&block, &multi));
    out.insert(
        "tensor.blend_dot_block_s",
        tracer.mean_s("tensor.blend_dot_block"),
    );
    out.insert(
        "models.score_block_multi_s",
        tracer.mean_s("models.score_block_multi"),
    );
    out.insert("serve.topk_s", tracer.mean_s("serve.topk"));
    out.insert("tensor.bytes_per_pass", bytes_per_pass(snap) as f64);
}

/// Bytes of item embeddings one exhaustive catalogue pass reads: every
/// row of both item tables, 4 bytes per `f32`.
pub fn bytes_per_pass(snap: &EmbeddingSnapshot) -> usize {
    snap.n_items() * (snap.own_dim() + snap.social_dim()) * std::mem::size_of::<f32>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_tensor::Matrix;

    #[test]
    fn bytes_per_pass_counts_both_item_tables() {
        let snap = EmbeddingSnapshot::new(
            0.5,
            Matrix::full(3, 4, 0.1),
            Matrix::full(10, 4, 0.2),
            Matrix::full(3, 2, 0.3),
            Matrix::full(10, 2, 0.4),
        );
        assert_eq!(bytes_per_pass(&snap), 10 * (4 + 2) * 4);
        let tracer = Tracer::new(true);
        let mut out = BTreeMap::new();
        scoring(&snap, &tracer, &mut out);
        assert!(out["tensor.blend_dot_block_s"] > 0.0);
        assert_eq!(tracer.durations("tensor.blend_dot_block").len(), PASSES);
    }
}
