//! Seeded input generators: request schedules and the deal event stream.
//!
//! Everything here is a pure function of the seed and the sizes passed
//! in, so the same seed always yields the same schedule and the same
//! stream; the timed code only replays them.

/// SplitMix64: a small, fast, well-mixed generator. The benchmark's
/// schedules use it rather than the workspace's `rand` stand-in so that
/// its inputs stay fixed whatever happens to that crate.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for `label`, derived from `seed`.
    pub fn derive(seed: u64, label: u64) -> Self {
        let mut g = Self(seed ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` and negative powers are safe).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Poisson with the given (small) mean, by Knuth's product method.
    pub fn poisson(&mut self, mean: f64) -> u32 {
        let limit = (-mean).exp();
        let mut k = 0;
        let mut p = self.unit();
        while p > limit {
            k += 1;
            p *= self.unit();
        }
        k
    }
}

/// Zipf-distributed ids over `0..n` with exponent `s` (id 0 most
/// popular), sampled by inverting the cumulative table.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, g: &mut SplitMix64) -> u32 {
        let u = g.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u32
    }
}

/// One burst of an open-loop schedule: when it is due (seconds after the
/// phase starts) and the users it asks for.
#[derive(Clone, Debug, PartialEq)]
pub struct Burst {
    pub due_s: f64,
    pub users: Vec<u32>,
}

/// Open-loop bursts over `duration_s` at an offered rate of exactly
/// `rate` requests per second: burst sizes uniform in `sizes`, each burst
/// due `size / rate` seconds after the previous one, users uniform over
/// `0..n_users`.
pub fn burst_schedule(
    seed: u64,
    duration_s: f64,
    rate: f64,
    sizes: (u32, u32),
    n_users: u32,
) -> Vec<Burst> {
    let mut g = SplitMix64::derive(seed, 1);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        let size = sizes.0 + g.below(u64::from(sizes.1 - sizes.0 + 1)) as u32;
        t += f64::from(size) / rate;
        if t >= duration_s {
            return out;
        }
        let users = (0..size)
            .map(|_| g.below(u64::from(n_users)) as u32)
            .collect();
        out.push(Burst { due_s: t, users });
    }
}

/// A paced schedule: one request every `1 / rate` seconds over
/// `duration_s`, users drawn from `zipf`. Returns `(due_s, user)`.
pub fn paced_schedule(seed: u64, duration_s: f64, rate: f64, zipf: &Zipf) -> Vec<(f64, u32)> {
    let mut g = SplitMix64::derive(seed, 2);
    let n = (duration_s * rate).floor() as usize;
    (0..n)
        .map(|i| (i as f64 / rate, zipf.sample(&mut g)))
        .collect()
}

/// One deal-lifecycle operation, in the vocabulary of
/// `gb_data::EventLog`. Deal ids are dense in open order, exactly as
/// `EventLog::open` assigns them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DealOp {
    Open {
        item: u32,
        initiator: u32,
        threshold: u32,
    },
    Join {
        deal: u32,
        user: u32,
    },
    Full {
        deal: u32,
    },
    Expire {
        deal: u32,
    },
}

// Shape of the synthetic deal stream.
//
// The shape follows Ye, Wang, Aperjis, Huberman and Sandholm,
// *Collective Attention and the Dynamics of Group Deals*
// (arXiv:1107.4588): the attention a deal draws is heavy-tailed across
// deals (most draw a few buyers, a few draw very many), and a deal's
// purchases come in a burst right after launch and then decay as a power
// law of its age. The numbers below give that shape at this benchmark's
// scale; they are chosen, not fitted to the paper's data.

/// Mean deals opened per tick (Poisson).
const OPENS_PER_TICK: f64 = 8.0;
/// Pareto exponent of the would-be joiners a deal attracts
/// (`P(size >= s) = s^-alpha`).
const SIZE_ALPHA: f64 = 1.0;
/// Largest number of would-be joiners of one deal.
const SIZE_CAP: u32 = 64;
/// Lomax scale of a join's delay after launch, in ticks.
const JOIN_SCALE_TICKS: f64 = 2.0;
/// Lomax shape: the delay's tail falls off as `age^-JOIN_SHAPE`.
const JOIN_SHAPE: f64 = 1.5;
/// A deal still open this many ticks after launch expires.
const HORIZON_TICKS: usize = 40;
/// Deal thresholds are uniform in `1..=MAX_THRESHOLD` (Beibei-like).
const MAX_THRESHOLD: u32 = 3;
/// Zipf exponent of which users launch and join deals.
const USER_ZIPF: f64 = 0.8;

/// A join's delay after its deal's launch, in ticks (Lomax).
fn join_delay(g: &mut SplitMix64) -> f64 {
    JOIN_SCALE_TICKS * (g.unit().powf(-1.0 / JOIN_SHAPE) - 1.0)
}

/// The deal stream, one list of operations per tick. Within a tick,
/// opens come first, then joins, then closes. Every deal opens on an item
/// that never had a deal before, so an item, once blocked as full or
/// expired, stays blocked: each tick's blocked set contains the previous
/// tick's.
pub fn deal_plan(seed: u64, n_ticks: usize, n_users: u32, n_items: u32) -> Vec<Vec<DealOp>> {
    struct Live {
        deal: u32,
        opened: usize,
        threshold: u32,
        joined: u32,
        /// Ticks at which its would-be joiners arrive, with who they are.
        joins: Vec<(usize, u32)>,
    }
    let mut g = SplitMix64::derive(seed, 3);
    let zipf = Zipf::new(n_users as usize, USER_ZIPF);
    let mut used = vec![false; n_items as usize];
    let mut live: Vec<Live> = Vec::new();
    let mut next_deal = 0u32;
    let mut plan = Vec::with_capacity(n_ticks);
    for tick in 0..n_ticks {
        let mut ops = Vec::new();
        for _ in 0..g.poisson(OPENS_PER_TICK) {
            let item = loop {
                let i = g.below(u64::from(n_items)) as u32;
                if !used[i as usize] {
                    used[i as usize] = true;
                    break i;
                }
            };
            let initiator = zipf.sample(&mut g);
            let threshold = 1 + g.below(u64::from(MAX_THRESHOLD)) as u32;
            let size = (g.unit().powf(-1.0 / SIZE_ALPHA).floor() as u32).min(SIZE_CAP);
            let mut joins: Vec<(usize, u32)> = (0..size)
                .map(|_| {
                    let delay = join_delay(&mut g);
                    (tick + 1 + delay.floor() as usize, zipf.sample(&mut g))
                })
                .collect();
            joins.sort_by_key(|&(t, _)| t);
            ops.push(DealOp::Open {
                item,
                initiator,
                threshold,
            });
            live.push(Live {
                deal: next_deal,
                opened: tick,
                threshold,
                joined: 0,
                joins,
            });
            next_deal += 1;
        }
        let mut closes = Vec::new();
        live.retain_mut(|d| {
            while d.joined < d.threshold && d.joins.first().is_some_and(|&(t, _)| t <= tick) {
                let (_, user) = d.joins.remove(0);
                ops.push(DealOp::Join { deal: d.deal, user });
                d.joined += 1;
            }
            if d.joined == d.threshold {
                closes.push(DealOp::Full { deal: d.deal });
                false
            } else if tick + 1 - d.opened >= HORIZON_TICKS {
                closes.push(DealOp::Expire { deal: d.deal });
                false
            } else {
                true
            }
        });
        ops.extend(closes);
        plan.push(ops);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_request_schedule() {
        let a = burst_schedule(7, 5.0, 700.0, (8, 24), 8000);
        let b = burst_schedule(7, 5.0, 700.0, (8, 24), 8000);
        assert_eq!(a, b);
        assert_ne!(a, burst_schedule(8, 5.0, 700.0, (8, 24), 8000));
        let offered: usize = a.iter().map(|b| b.users.len()).sum();
        assert!((2800..4200).contains(&offered), "offered {offered}");
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(a.iter().all(|b| b.users.iter().all(|&u| u < 8000)));

        let z = Zipf::new(2000, 0.8);
        assert_eq!(
            paced_schedule(3, 2.0, 100.0, &z),
            paced_schedule(3, 2.0, 100.0, &z)
        );
        assert_ne!(
            paced_schedule(3, 2.0, 100.0, &z),
            paced_schedule(4, 2.0, 100.0, &z)
        );
    }

    #[test]
    fn same_seed_same_event_stream() {
        let a = deal_plan(11, 120, 2000, 80_000);
        assert_eq!(a, deal_plan(11, 120, 2000, 80_000));
        assert_ne!(a, deal_plan(12, 120, 2000, 80_000));
    }

    #[test]
    fn event_stream_is_a_valid_lifecycle() {
        // Replaying the plan through the real log must never panic (the
        // log validates every transition), every item is dealt at most
        // once, and both outcomes occur.
        let plan = deal_plan(5, 150, 2000, 80_000);
        let mut log = gb_data::EventLog::new();
        let (mut full, mut expired) = (0, 0);
        let mut items = std::collections::BTreeSet::new();
        for ops in &plan {
            for op in ops {
                match *op {
                    DealOp::Open {
                        item,
                        initiator,
                        threshold,
                    } => {
                        assert!(items.insert(item), "item {item} dealt twice");
                        let d = log.open(item, initiator, threshold);
                        assert_eq!(d as usize + 1, log.n_deals());
                    }
                    DealOp::Join { deal, user } => log.join(deal, user),
                    DealOp::Full { deal } => {
                        full += 1;
                        log.full(deal)
                    }
                    DealOp::Expire { deal } => {
                        expired += 1;
                        log.expire(deal)
                    }
                }
            }
        }
        assert!(full > 100 && expired > 100, "full {full} expired {expired}");
    }

    #[test]
    fn joins_come_in_an_early_burst() {
        // Most joins land within a few ticks of launch; a tail is later.
        let mut g = SplitMix64::derive(1, 0);
        let delays: Vec<f64> = (0..10_000).map(|_| join_delay(&mut g)).collect();
        let early = delays.iter().filter(|&&d| d < 3.0).count();
        let late = delays.iter().filter(|&&d| d >= 20.0).count();
        assert!(early > 6_000 && late > 50, "early {early} late {late}");
    }

    #[test]
    fn zipf_favours_low_ids() {
        let z = Zipf::new(1000, 1.0);
        let mut g = SplitMix64::derive(9, 0);
        let draws: Vec<u32> = (0..20_000).map(|_| z.sample(&mut g)).collect();
        let top = draws.iter().filter(|&&u| u < 10).count();
        assert!(top > 4_000, "top-10 ids drew {top} of 20000");
        assert!(draws.iter().all(|&u| u < 1000));
    }
}
