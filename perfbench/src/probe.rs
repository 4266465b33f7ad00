//! The traced run's cost-plane probe: a [`FleetCost`] wrapper that
//! forwards every query to the wrapped oracle and times it from outside.
//! The composite `job_serial_on` and `first_token_on` keep the trait's
//! default bodies, so they reach the oracle through the probe's own
//! `prefill_on` and `decode_on` and every underlying query is keyed.
//!
//! The probe cannot see the oracle's memo, so it keeps its own set of
//! the keys the oracle memoizes by — (executor configuration, request
//! class, length or context bucket) — and counts a query as a miss the
//! first time its key is seen. Only misses get a trace span; hits are
//! counted and timed in aggregate.

use std::cell::RefCell;
use std::time::Instant;

use spatten_core::StepCost;
use spatten_serve::{FleetCost, Job, CTX_BUCKET};
use spatten_workloads::fleet::LinkSpec;
use spatten_workloads::Workload;

/// The query families the per-layer metrics split misses by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Prefill,
    Decode,
    /// KV footprint, raw planning peak and swap pricing.
    Kv,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Prefill, Kind::Decode, Kind::Kv];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Prefill => "prefill",
            Kind::Decode => "decode",
            Kind::Kv => "kv",
        }
    }
}

/// One first-sighting query, kept for its trace span.
#[derive(Debug, Clone, Copy)]
pub struct Miss {
    pub kind: Kind,
    pub executor: usize,
    pub len: usize,
    pub start: Instant,
    pub ns: u64,
}

/// Hits and unkeyed queries are timed one in `SAMPLE`; misses always.
/// Timing every hit would put two clock reads around a query that costs
/// a few nanoseconds, hundreds of times per simulated request.
const SAMPLE: u64 = 32;

/// What the probe saw over one or more simulations.
#[derive(Debug)]
pub struct CostStats {
    /// Queries of every trait method.
    pub calls: u64,
    /// `prefill_on` queries alone.
    pub prefill_calls: u64,
    /// Keyed queries whose key had been seen before.
    pub hits: u64,
    hit_samples: u64,
    hit_sample_ns: u64,
    /// Queries the oracles do not memoize (budget, byte-count swaps,
    /// handoffs, batch hints).
    others: u64,
    other_samples: u64,
    other_sample_ns: u64,
    /// Per-[`Kind`] miss count and time.
    pub misses: [u64; 3],
    pub miss_ns: [u64; 3],
    pub miss_log: Vec<Miss>,
    /// What one empty timed region reads, subtracted from sampled hits.
    timer_ns: f64,
    /// `seen[(class * SLOTS + slot) * TAGS + tag][len]`: whether that key
    /// has been queried. Dense, so the probe's bookkeeping stays small
    /// next to the queries it times.
    seen: Vec<Vec<bool>>,
    classes: Vec<Workload>,
    last_class: usize,
}

impl Default for CostStats {
    fn default() -> Self {
        let mut reads: Vec<u64> = (0..10_000)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(());
                t.elapsed().as_nanos() as u64
            })
            .collect();
        reads.sort_unstable();
        Self {
            calls: 0,
            prefill_calls: 0,
            hits: 0,
            hit_samples: 0,
            hit_sample_ns: 0,
            others: 0,
            other_samples: 0,
            other_sample_ns: 0,
            misses: [0; 3],
            miss_ns: [0; 3],
            miss_log: Vec::new(),
            timer_ns: reads[reads.len() / 2] as f64,
            seen: Vec::new(),
            classes: Vec::new(),
            last_class: 0,
        }
    }
}

impl CostStats {
    /// Dense id of `w`'s class: the fields the oracles key classes by
    /// (everything timing-relevant except lengths and seed).
    fn class_id(&mut self, w: &Workload) -> usize {
        let same = |c: &Workload| {
            c.pruning == w.pruning && c.quant == w.quant && c.model == w.model && c.name == w.name
        };
        if self.classes.get(self.last_class).is_some_and(same) {
            return self.last_class;
        }
        self.last_class = match self.classes.iter().position(same) {
            Some(i) => i,
            None => {
                self.classes.push(w.clone());
                self.classes.len() - 1
            }
        };
        self.last_class
    }

    /// Forgets which keys were seen, so the next simulation on a fresh
    /// oracle counts its own misses. Counters keep accumulating.
    pub fn forget_keys(&mut self) {
        self.seen.clear();
    }

    /// Marks a key seen; returns whether it was new.
    fn first_sighting(&mut self, tag: u8, slot: usize, w: &Workload, len: usize) -> bool {
        let class = self.class_id(w);
        let row = (class * SLOTS + slot) * TAGS + usize::from(tag);
        if self.seen.len() <= row {
            self.seen.resize(row + 1, Vec::new());
        }
        let row = &mut self.seen[row];
        if row.len() <= len {
            row.resize(len + 1, false);
        }
        !std::mem::replace(&mut row[len], true)
    }

    pub fn miss_total(&self) -> u64 {
        self.misses.iter().sum()
    }

    pub fn miss_ns_total(&self) -> u64 {
        self.miss_ns.iter().sum()
    }

    /// Mean time of a hit, clock overhead removed.
    pub fn hit_ns(&self) -> f64 {
        (self.hit_sample_ns as f64 / self.hit_samples.max(1) as f64 - self.timer_ns).max(0.0)
    }

    fn other_ns(&self) -> f64 {
        (self.other_sample_ns as f64 / self.other_samples.max(1) as f64 - self.timer_ns).max(0.0)
    }

    /// Estimated time inside the oracle: every miss as timed, plus hits
    /// and unkeyed queries at their sampled means.
    pub fn seam_ns(&self) -> f64 {
        self.miss_ns_total() as f64
            + self.hits as f64 * self.hit_ns()
            + self.others as f64 * self.other_ns()
    }

    /// Counts one query and says how to time it: every miss, one in
    /// [`SAMPLE`] of the rest.
    fn classify(&mut self, key: Option<(Kind, u8, usize, &Workload, usize)>) -> Timing {
        self.calls += 1;
        match key {
            Some((kind, tag, slot, w, len)) if self.first_sighting(tag, slot, w, len) => {
                Timing::Miss(kind, len)
            }
            Some(_) => {
                self.hits += 1;
                if self.hits.is_multiple_of(SAMPLE) {
                    Timing::Hit
                } else {
                    Timing::Untimed
                }
            }
            None => {
                self.others += 1;
                if self.others.is_multiple_of(SAMPLE) {
                    Timing::Other
                } else {
                    Timing::Untimed
                }
            }
        }
    }

    fn record(&mut self, timing: Timing, executor: usize, start: Instant, ns: u64) {
        match timing {
            Timing::Miss(kind, len) => {
                self.misses[kind as usize] += 1;
                self.miss_ns[kind as usize] += ns;
                self.miss_log.push(Miss {
                    kind,
                    executor,
                    len,
                    start,
                    ns,
                });
            }
            Timing::Hit => {
                self.hit_samples += 1;
                self.hit_sample_ns += ns;
            }
            Timing::Other => {
                self.other_samples += 1;
                self.other_sample_ns += ns;
            }
            Timing::Untimed => {}
        }
    }
}

#[derive(Clone, Copy)]
enum Timing {
    Miss(Kind, usize),
    Hit,
    Other,
    Untimed,
}

/// Executor slots and query tags the dense key table has room for.
const SLOTS: usize = 16;
const TAGS: usize = 5;

/// The wrapper. `slots[i]` names executor `i`'s configuration: executors
/// with equal slots share memo entries in the wrapped oracle.
pub struct Probe<'a, C> {
    inner: &'a mut C,
    slots: &'a [usize],
    stats: &'a RefCell<CostStats>,
}

impl<'a, C: FleetCost> Probe<'a, C> {
    pub fn new(inner: &'a mut C, slots: &'a [usize], stats: &'a RefCell<CostStats>) -> Self {
        assert!(
            slots.iter().all(|&s| s < SLOTS),
            "at most {SLOTS} executor configurations"
        );
        Self {
            inner,
            slots,
            stats,
        }
    }

    /// Forwards one query, timing it as [`CostStats::classify`] says.
    /// `key` is `(kind, query tag, workload, length or bucket)` for
    /// memoized queries, `None` for unmemoized ones.
    fn timed<T>(
        &mut self,
        chip: usize,
        key: Option<(Kind, u8, &Workload, usize)>,
        f: impl FnOnce(&mut C) -> T,
    ) -> T {
        let slot = self.slots[chip];
        let timing = self
            .stats
            .borrow_mut()
            .classify(key.map(|(kind, tag, w, len)| (kind, tag, slot, w, len)));
        if let Timing::Untimed = timing {
            return f(self.inner);
        }
        let start = Instant::now();
        let out = f(self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        self.stats.borrow_mut().record(timing, chip, start, ns);
        out
    }
}

fn bucket(tokens: usize) -> usize {
    tokens.max(1).div_ceil(CTX_BUCKET)
}

impl<C: FleetCost> FleetCost for Probe<'_, C> {
    fn prefill_on(&mut self, chip: usize, w: &Workload) -> StepCost {
        self.stats.borrow_mut().prefill_calls += 1;
        let key = (Kind::Prefill, 0, w, w.seq_len);
        self.timed(chip, Some(key), |c| c.prefill_on(chip, w))
    }

    fn decode_on(&mut self, chip: usize, w: &Workload, context: usize) -> StepCost {
        let key = (Kind::Decode, 1, w, bucket(context));
        self.timed(chip, Some(key), |c| c.decode_on(chip, w, context))
    }

    fn footprint_on(&mut self, chip: usize, w: &Workload) -> u64 {
        let key = (Kind::Kv, 2, w, w.seq_len + w.gen_steps);
        self.timed(chip, Some(key), |c| c.footprint_on(chip, w))
    }

    fn budget_on(&self, chip: usize) -> u64 {
        let timing = self.stats.borrow_mut().classify(None);
        if let Timing::Untimed = timing {
            return self.inner.budget_on(chip);
        }
        let start = Instant::now();
        let out = self.inner.budget_on(chip);
        let ns = start.elapsed().as_nanos() as u64;
        self.stats.borrow_mut().record(timing, chip, start, ns);
        out
    }

    fn swap_cycles_on(&mut self, chip: usize, w: &Workload, tokens: usize) -> u64 {
        let key = (Kind::Kv, 3, w, bucket(tokens));
        self.timed(chip, Some(key), |c| c.swap_cycles_on(chip, w, tokens))
    }

    fn job_footprint_on(&mut self, chip: usize, job: &Job) -> u64 {
        // Both oracles price this through their `footprint_on` memo.
        let w = &job.workload;
        let key = (Kind::Kv, 2, w, w.seq_len + w.gen_steps);
        self.timed(chip, Some(key), |c| c.job_footprint_on(chip, job))
    }

    fn raw_kv_bytes_on(&mut self, chip: usize, w: &Workload, tokens: usize) -> u64 {
        let key = (Kind::Kv, 4, w, tokens);
        self.timed(chip, Some(key), |c| c.raw_kv_bytes_on(chip, w, tokens))
    }

    fn swap_bytes_cycles_on(&mut self, chip: usize, w: &Workload, bytes: u64) -> u64 {
        self.timed(chip, None, |c| c.swap_bytes_cycles_on(chip, w, bytes))
    }

    fn weight_load_cycles_on(&mut self, chip: usize, w: &Workload) -> u64 {
        self.timed(chip, None, |c| c.weight_load_cycles_on(chip, w))
    }

    fn handoff_cycles_on(
        &mut self,
        src: usize,
        dst: usize,
        w: &Workload,
        bytes: u64,
        hops: u64,
        link: &LinkSpec,
    ) -> u64 {
        self.timed(src, None, |c| {
            c.handoff_cycles_on(src, dst, w, bytes, hops, link)
        })
    }

    fn note_batch(&mut self, chip: usize, resident: usize) {
        self.timed(chip, None, |c| c.note_batch(chip, resident))
    }

    fn prewarm(&mut self, jobs: &mut dyn Iterator<Item = &Workload>, threads: usize) {
        self.timed(0, None, |c| c.prewarm(jobs, threads))
    }
}
