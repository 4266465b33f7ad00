//! The offline workloads: `fleet-disagg` (one long open-loop replay on a
//! disaggregated fleet) and `fleet-sweep` (a policy-study sweep of short
//! simulations, each on a fresh cost model).
//!
//! The untraced run calls only `simulate_fleet` and `simulate_cluster`.
//! The traced run lowers the same configurations by hand onto
//! `simulate_fleet_policy` with the [`Probe`] around the cost model, and
//! demands reports bit-identical to the untraced ones.

use std::cell::RefCell;
use std::time::Instant;

use spatten_cluster::{simulate_cluster, ClusterConfig, ClusterCostModel, ShardStrategy};
use spatten_core::SpAttenConfig;
use spatten_serve::json::JsonObject;
use spatten_serve::{
    simulate_fleet, simulate_fleet_policy, CfgKey, CostModel, FleetConfig, FleetCost, FleetReport,
    KvSpec, Policy, PoolSpec, RouteSpec,
};
use spatten_workloads::fleet::FleetSpec;
use spatten_workloads::{ArrivalSpec, Benchmark, Trace, TraceRequest, TraceSpec};

use crate::probe::{CostStats, Kind, Probe};
use crate::util::{median, Outcome};
use crate::Ctx;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 15;

type Mix = fn(ArrivalSpec, u64) -> TraceSpec;

/// The hardware side of a cell.
enum Fleet {
    Chips(FleetConfig),
    Cluster(ClusterConfig),
}

/// One simulation of a workload: a fleet, a request mix, a fixed
/// open-loop rate and a request count.
struct CellSpec {
    name: &'static str,
    fleet: fn() -> Fleet,
    mix: Mix,
    rate_rps: f64,
    requests: usize,
}

/// 4 Table-I chips split 2 prefill + 2 decode, paged KV, pool-aware
/// routing: the `disagg` shape of `sim_bench`.
fn disagg_fleet() -> Fleet {
    let mut cfg = FleetConfig::with_chips(
        vec![SpAttenConfig::default(); 4],
        Policy::ContinuousBatching,
    );
    cfg.max_batch = 64;
    cfg.sched.kv = KvSpec::paged();
    cfg.sched.route = RouteSpec::PoolAware;
    cfg.pools = Some(PoolSpec::split(2, 2));
    Fleet::Chips(cfg)
}

/// 2 Table-I + 2 eighth-scale chips behind fastest-chip routing.
fn hetero_fleet() -> Fleet {
    let chips = vec![
        SpAttenConfig::default(),
        SpAttenConfig::default(),
        SpAttenConfig::eighth(),
        SpAttenConfig::eighth(),
    ];
    let mut cfg = FleetConfig::with_chips(chips, Policy::ContinuousBatching);
    cfg.sched.route = RouteSpec::FastestChip;
    Fleet::Chips(cfg)
}

/// The same four chips carved into two 2-way tensor-parallel groups.
fn tp_cluster() -> Fleet {
    let w = Benchmark::gpt2_small_wikitext2().workload();
    let cfg = ClusterConfig::carve(
        &FleetSpec::mixed(2, 2),
        &ShardStrategy::tensor(2),
        &w,
        Policy::ContinuousBatching,
    )
    .expect("a 2+2 fleet hosts two 2-way groups");
    Fleet::Cluster(cfg)
}

/// Rates are fixed near 90% of each shape's capacity, measured once with
/// a closed-loop probe (see README); they are not re-probed per run.
const DISAGG: [CellSpec; 1] = [CellSpec {
    name: "disagg-chat",
    fleet: disagg_fleet,
    mix: TraceSpec::disagg_chat,
    rate_rps: 53.5,
    requests: 100_000,
}];

/// The longest cell runs first: a round's first report sets the sweep's
/// `ttft_p50_ms`, and a longer call averages out more of the machine's
/// short-term noise.
const SWEEP: [CellSpec; 6] = [
    CellSpec {
        name: "hetero-disagg-chat",
        fleet: hetero_fleet,
        mix: TraceSpec::disagg_chat,
        rate_rps: 26.5,
        requests: 1_000,
    },
    CellSpec {
        name: "hetero-mixed",
        fleet: hetero_fleet,
        mix: TraceSpec::mixed,
        rate_rps: 142.0,
        requests: 1_000,
    },
    CellSpec {
        name: "hetero-chat",
        fleet: hetero_fleet,
        mix: TraceSpec::chat,
        rate_rps: 67.0,
        requests: 1_000,
    },
    CellSpec {
        name: "tp2-disagg-chat",
        fleet: tp_cluster,
        mix: TraceSpec::disagg_chat,
        rate_rps: 23.0,
        requests: 1_000,
    },
    CellSpec {
        name: "tp2-mixed",
        fleet: tp_cluster,
        mix: TraceSpec::mixed,
        rate_rps: 108.0,
        requests: 1_000,
    },
    CellSpec {
        name: "tp2-chat",
        fleet: tp_cluster,
        mix: TraceSpec::chat,
        rate_rps: 56.0,
        requests: 1_000,
    },
];

/// A cell ready to simulate.
struct Cell {
    spec: &'static CellSpec,
    fleet: Fleet,
    trace: Trace,
}

/// Draws every cell's trace and lowers every fleet. Cell `i` draws from
/// `seed + i` so cells of one sweep differ.
fn set_up(specs: &'static [CellSpec], seed: u64) -> (Vec<Cell>, f64, f64) {
    let start = Instant::now();
    let mut gen_s = 0.0;
    let cells = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let g = Instant::now();
            let trace = (spec.mix)(
                ArrivalSpec::OpenPoisson {
                    rate_rps: spec.rate_rps,
                    requests: spec.requests,
                },
                seed.wrapping_add(i as u64),
            )
            .generate();
            gen_s += g.elapsed().as_secs_f64();
            Cell {
                spec,
                fleet: (spec.fleet)(),
                trace,
            }
        })
        .collect();
    (cells, start.elapsed().as_secs_f64(), gen_s)
}

impl Cell {
    fn requests(&self) -> &[TraceRequest] {
        match &self.trace {
            Trace::Open { requests } => requests,
            Trace::Closed { .. } => unreachable!("cells draw open-loop traces"),
        }
    }

    /// The untraced run's entry points.
    fn simulate(&self) -> FleetReport {
        match &self.fleet {
            Fleet::Chips(cfg) => simulate_fleet(cfg, &self.trace),
            Fleet::Cluster(cfg) => simulate_cluster(cfg, &self.trace),
        }
    }

    fn clock_ghz(&self) -> f64 {
        match &self.fleet {
            Fleet::Chips(cfg) => cfg.accel.clock_ghz,
            Fleet::Cluster(cfg) => cfg.clock_ghz(),
        }
    }

    fn fresh_model(&self) -> Model {
        match &self.fleet {
            Fleet::Chips(cfg) => {
                assert!(
                    cfg.elastic.is_none(),
                    "probed lowering covers fixed fleets only"
                );
                let (model, cfgs) = match (&cfg.chip_configs, cfg.fc_weight_bits) {
                    (Some(cfgs), bits) => {
                        (CostModel::heterogeneous(cfgs.clone(), bits), cfgs.clone())
                    }
                    (None, Some(bits)) => (
                        CostModel::end_to_end(cfg.accel, bits),
                        vec![cfg.accel; cfg.chips],
                    ),
                    (None, None) => (
                        CostModel::attention_only(cfg.accel),
                        vec![cfg.accel; cfg.chips],
                    ),
                };
                let keys: Vec<CfgKey> = cfgs.iter().map(CfgKey::of).collect();
                Model::Chips(model, first_equal(&keys))
            }
            Fleet::Cluster(cfg) => Model::Cluster(
                ClusterCostModel::new(cfg.groups.clone(), cfg.fc_weight_bits),
                first_equal(&cfg.groups),
            ),
        }
    }

    /// The traced run's lowering: the same simulation as
    /// [`Cell::simulate`], with `model` behind the probe.
    fn simulate_probed(&self, model: &mut Model, stats: &RefCell<CostStats>) -> FleetReport {
        fn run<C: FleetCost>(cell: &Cell, cost: Probe<'_, C>, chips: usize) -> FleetReport {
            match &cell.fleet {
                Fleet::Chips(cfg) => simulate_fleet_policy(
                    cost,
                    chips,
                    cfg.policy,
                    &cfg.sched,
                    cfg.pools.clone(),
                    None,
                    cfg.max_batch,
                    cfg.accel.clock_ghz,
                    &cell.trace,
                ),
                Fleet::Cluster(cfg) => simulate_fleet_policy(
                    cost,
                    chips,
                    cfg.policy,
                    &cfg.sched,
                    cfg.pools.clone(),
                    cfg.elastic.clone(),
                    cfg.max_batch,
                    cfg.clock_ghz(),
                    &cell.trace,
                ),
            }
        }
        match model {
            Model::Chips(m, slots) => run(self, Probe::new(m, slots, stats), slots.len()),
            Model::Cluster(m, slots) => run(self, Probe::new(m, slots, stats), slots.len()),
        }
    }

    fn is_cluster(&self) -> bool {
        matches!(self.fleet, Fleet::Cluster(_))
    }
}

/// A cost model plus its executor → memo-slot map.
enum Model {
    Chips(CostModel, Vec<usize>),
    Cluster(ClusterCostModel, Vec<usize>),
}

/// `out[i]` = index of the first element equal to `xs[i]`.
fn first_equal<T: PartialEq>(xs: &[T]) -> Vec<usize> {
    (0..xs.len())
        .map(|i| xs.iter().position(|x| *x == xs[i]).unwrap_or(i))
        .collect()
}

/// Checks one report against the trace it replayed: every request
/// completes exactly once with the tokens it asked for, at its own
/// arrival time, with arrival ≤ start ≤ first token ≤ finish.
fn check_report(cell: &Cell, report: &FleetReport, out: &mut Outcome) {
    let name = cell.spec.name;
    let n = cell.requests().len();
    out.check(report.rejected == 0, || {
        format!(
            "{name}: {} requests rejected with no SLO set",
            report.rejected
        )
    });
    out.check(report.completed == n, || {
        format!("{name}: {} of {n} requests completed", report.completed)
    });
    let clock = cell.clock_ghz();
    let mut seen = vec![false; n];
    for c in &report.completions {
        let Some(req) = usize::try_from(c.id)
            .ok()
            .and_then(|i| cell.requests().get(i))
            .filter(|r| r.id == c.id)
        else {
            out.check(false, || {
                format!("{name}: completion for unknown request {}", c.id)
            });
            continue;
        };
        let idx = c.id as usize;
        out.check(!seen[idx], || {
            format!("{name}: request {} completed twice", c.id)
        });
        seen[idx] = true;
        out.check(c.generated_tokens == req.workload.gen_steps, || {
            format!(
                "{name}: request {} generated {} tokens, asked for {}",
                c.id, c.generated_tokens, req.workload.gen_steps
            )
        });
        let arrival = (req.arrival_ns as f64 * clock).round() as u64;
        out.check(c.arrival_cycles == arrival, || {
            format!(
                "{name}: request {} arrived at cycle {}, trace says {arrival}",
                c.id, c.arrival_cycles
            )
        });
        out.check(
            c.arrival_cycles <= c.start_cycles
                && c.start_cycles <= c.first_token_cycles
                && c.first_token_cycles <= c.finish_cycles,
            || {
                format!(
                    "{name}: request {} out of order: arrival {} start {} first token {} finish {}",
                    c.id, c.arrival_cycles, c.start_cycles, c.first_token_cycles, c.finish_cycles
                )
            },
        );
    }
}

fn same_report(a: &FleetReport, b: &FleetReport) -> bool {
    a == b && a.to_json() == b.to_json()
}

/// One round as the caller saw it: the wall time until its first
/// report and until its last.
struct Round {
    first_s: f64,
    wall_s: f64,
    completed: u64,
}

pub fn fleet_disagg(ctx: &mut Ctx) -> Outcome {
    run(ctx, &DISAGG, false)
}

/// The sweep also checks, once per untraced run, that every cell rerun
/// on its warm cost model reproduces the cold run.
pub fn fleet_sweep(ctx: &mut Ctx) -> Outcome {
    run(ctx, &SWEEP, true)
}

fn run(ctx: &mut Ctx, specs: &'static [CellSpec], warm_check: bool) -> Outcome {
    let mut out = Outcome::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut gens = Vec::with_capacity(SETUPS);
    let mut cells = Vec::new();
    for _ in 0..SETUPS {
        let (c, setup_s, gen_s) = set_up(specs, ctx.seed);
        setups.push(setup_s);
        gens.push(gen_s);
        cells = c;
    }
    let cell_info: Vec<String> = cells
        .iter()
        .map(|c| {
            JsonObject::new()
                .str("cell", c.spec.name)
                .f64("rate_rps", c.spec.rate_rps)
                .u64("requests", c.spec.requests as u64)
                .build()
        })
        .collect();
    out.detail(|d| d.raw("cells", &spatten_serve::json::array(cell_info)));
    if ctx.trace {
        traced(ctx, &cells, &mut out);
        out.metric("workloads.trace_gen_ms", median(&gens) * 1e3, "ms");
    } else {
        untraced(ctx, &cells, warm_check, &mut out);
        out.metric("setup_s", median(&setups), "s");
        out.detail(|d| {
            d.raw(
                "setup_s_samples",
                &spatten_serve::json::array(setups.iter().map(|s| s.to_string())),
            )
        });
    }
    out
}

/// Whole rounds of every cell until the window closes; then, with
/// `warm_check`, one cold run and one warm rerun of each cell on a fresh
/// cost model.
fn untraced(ctx: &Ctx, cells: &[Cell], warm_check: bool, out: &mut Outcome) {
    let window = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut first_reports: Vec<FleetReport> = Vec::new();
    loop {
        let mut round = Round {
            first_s: 0.0,
            wall_s: 0.0,
            completed: 0,
        };
        for (i, cell) in cells.iter().enumerate() {
            let t = Instant::now();
            let report = cell.simulate();
            round.wall_s += t.elapsed().as_secs_f64();
            if i == 0 {
                round.first_s = round.wall_s;
            }
            check_report(cell, &report, out);
            out.attempted += cell.requests().len() as u64;
            out.failed += cell.requests().len().saturating_sub(report.completed) as u64;
            round.completed += report.completed as u64;
            if warm_check && first_reports.len() <= i {
                first_reports.push(report);
            }
        }
        rounds.push(round);
        if window.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    // Memo entries are pure functions of their keys, so a rerun on the
    // already-warm oracle must reproduce the cold run bit for bit (and
    // the hand-lowered cold run must match the entry point's).
    if warm_check {
        for (cell, untraced) in cells.iter().zip(&first_reports) {
            let stats = RefCell::new(CostStats::default());
            let mut model = cell.fresh_model();
            let cold = cell.simulate_probed(&mut model, &stats);
            let warm = cell.simulate_probed(&mut model, &stats);
            out.check(same_report(&cold, untraced), || {
                format!(
                    "{}: probed run differs from the entry point's",
                    cell.spec.name
                )
            });
            out.check(same_report(&warm, &cold), || {
                format!("{}: rerun on a warm cost model differs", cell.spec.name)
            });
        }
    }
    let rps: Vec<f64> = rounds
        .iter()
        .map(|r| r.completed as f64 / r.wall_s)
        .collect();
    let first_ms: Vec<f64> = rounds.iter().map(|r| r.first_s * 1e3).collect();
    let wall_ms: Vec<f64> = rounds.iter().map(|r| r.wall_s * 1e3).collect();
    // Rounds run at one of a few speeds, set by neighbour load on the
    // memory system; all requests over all simulation time weighs each
    // speed by the time spent at it, where a median of a few rounds
    // jumps between them.
    let completed: u64 = rounds.iter().map(|r| r.completed).sum();
    let sim_s: f64 = rounds.iter().map(|r| r.wall_s).sum();
    out.metric("requests_per_s", completed as f64 / sim_s, "req/s");
    out.metric(
        "peak_rss_mb",
        crate::util::peak_rss_mb("self").unwrap_or(0.0),
        "MB",
    );
    // A simulation call returns its whole report at once, so a round's
    // "first token" is its first report and its "done" its last.
    out.metric("ttft_p50_ms", median(&first_ms), "ms");
    out.metric("e2e_p50_ms", median(&wall_ms), "ms");
    out.detail(|d| {
        d.u64("rounds", rounds.len() as u64)
            .u64("latency_samples", rounds.len() as u64)
            .raw(
                "round_requests_per_s",
                &spatten_serve::json::array(rps.iter().map(|r| r.to_string())),
            )
    });
}

/// Rounds of (untraced, traced cold, traced warm) simulations of every
/// cell until the window closes.
fn traced(ctx: &mut Ctx, cells: &[Cell], out: &mut Outcome) {
    let window = Instant::now();
    let cost = RefCell::new(CostStats::default());
    let cluster = RefCell::new(CostStats::default());
    let warm_stats = RefCell::new(CostStats::default());
    let (mut untraced_s, mut traced_s, mut warm_s) = (0.0, 0.0, 0.0);
    let (mut requests, mut events) = (0u64, 0u64);
    let mut sim = SimStats::default();
    let mut rounds = 0u64;
    loop {
        for cell in cells {
            let t = Instant::now();
            let plain = cell.simulate();
            untraced_s += t.elapsed().as_secs_f64();
            check_report(cell, &plain, out);

            let stats = if cell.is_cluster() { &cluster } else { &cost };
            stats.borrow_mut().forget_keys();
            let before = stats.borrow().miss_log.len();
            let mut model = cell.fresh_model();
            let t0 = Instant::now();
            let probed = cell.simulate_probed(&mut model, stats);
            let t1 = Instant::now();
            traced_s += (t1 - t0).as_secs_f64();
            out.check(same_report(&probed, &plain), || {
                format!(
                    "{}: traced report differs from the untraced one",
                    cell.spec.name
                )
            });

            let t = Instant::now();
            let warm = cell.simulate_probed(&mut model, &warm_stats);
            warm_s += t.elapsed().as_secs_f64();
            out.check(same_report(&warm, &plain), || {
                format!("{}: rerun on a warm cost model differs", cell.spec.name)
            });

            let s = stats.borrow();
            let args = JsonObject::new()
                .str("cell", cell.spec.name)
                .u64("requests", cell.requests().len() as u64)
                .u64("misses", (s.miss_log.len() - before) as u64)
                .build();
            ctx.spans.span(
                &format!("simulate {}", cell.spec.name),
                "sim",
                1,
                t0,
                t1,
                &args,
            );
            for m in &s.miss_log[before..] {
                let end = m.start + std::time::Duration::from_nanos(m.ns);
                let args = JsonObject::new()
                    .u64("executor", m.executor as u64)
                    .u64("len", m.len as u64)
                    .build();
                ctx.spans.span(
                    &format!("miss {}", m.kind.name()),
                    "cost",
                    1,
                    m.start,
                    end,
                    &args,
                );
            }
            drop(s);
            requests += cell.requests().len() as u64;
            events += plain.sim_events;
            sim.add(&plain);
            out.attempted += cell.requests().len() as u64;
            out.failed += cell.requests().len().saturating_sub(plain.completed) as u64;
        }
        rounds += 1;
        if window.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    let (c, k) = (cost.borrow(), cluster.borrow());
    let per_request = |n: u64| n as f64 / requests as f64;
    out.metric(
        "cost.calls_per_request",
        per_request(c.calls + k.calls),
        "count",
    );
    out.metric(
        "cost.prefill_calls_per_request",
        per_request(c.prefill_calls + k.prefill_calls),
        "count",
    );
    let hits = (c.hits + k.hits).max(1) as f64;
    out.metric(
        "cost.hit_ns",
        (c.hit_ns() * c.hits as f64 + k.hit_ns() * k.hits as f64) / hits,
        "ns",
    );
    for kind in Kind::ALL {
        let i = kind as usize;
        let misses = c.misses[i] + k.misses[i];
        out.metric(
            &format!("cost.{}.misses", kind.name()),
            misses as f64 / rounds as f64,
            "count",
        );
        out.metric(
            &format!("cost.{}.miss_us", kind.name()),
            (c.miss_ns[i] + k.miss_ns[i]) as f64 / 1e3 / misses.max(1) as f64,
            "us",
        );
    }
    // The seam estimate comes from the traced runs; the share is taken
    // of the untraced simulation time it explains.
    let seam_s = (c.seam_ns() + k.seam_ns()) / 1e9;
    out.metric("cost.cold_s", (traced_s - warm_s) / rounds as f64, "s");
    out.metric("cost.seam_s", seam_s / rounds as f64, "s");
    out.metric("cost.share", seam_s / untraced_s, "ratio");
    out.metric(
        "cluster.miss_us",
        k.miss_ns_total() as f64 / 1e3 / k.miss_total().max(1) as f64,
        "us",
    );
    out.metric("engine.events_per_request", per_request(events), "count");
    out.metric(
        "engine.ns_per_event",
        ((untraced_s - seam_s) * 1e9 / events as f64).max(0.0),
        "ns",
    );
    sim.metrics(rounds, out);
    out.metric("sim.host_s", untraced_s / rounds as f64, "s");
    out.metric("trace.untraced_s", untraced_s / rounds as f64, "s");
    out.metric("trace.traced_s", traced_s / rounds as f64, "s");
    out.metric(
        "trace.overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
        "%",
    );
    out.detail(|d| {
        d.u64("rounds", rounds).u64(
            "misses_spanned",
            (c.miss_log.len() + k.miss_log.len()) as u64,
        )
    });
}

/// Simulated statistics summed over a round's reports. These are exact:
/// a host-only change leaves them identical.
#[derive(Default)]
struct SimStats {
    rounds: u64,
    occupancy_busy: f64,
    busy: f64,
    makespan_s: f64,
    ttft_p99_ms: f64,
    shared_hits: u64,
    reclaimed: u64,
    handoffs: u64,
    handoff_bytes: u64,
}

impl SimStats {
    fn add(&mut self, r: &FleetReport) {
        for c in &r.chip_stats {
            self.rounds += c.rounds;
            self.occupancy_busy += c.mean_occupancy * c.busy_cycles as f64;
            self.busy += c.busy_cycles as f64;
            self.shared_hits += c.kv.shared_hits;
            self.reclaimed += c.kv.blocks_reclaimed;
            self.handoffs += c.handoffs;
            self.handoff_bytes += c.handoff_bytes;
        }
        self.makespan_s += r.makespan_cycles as f64 / (r.clock_ghz * 1e9);
        self.ttft_p99_ms = self.ttft_p99_ms.max(r.ttft.p99 * 1e3);
    }

    /// Per-round values (every round simulates the same cells).
    fn metrics(&self, rounds: u64, out: &mut Outcome) {
        let n = rounds as f64;
        out.metric("sim.rounds", self.rounds as f64 / n, "count");
        out.metric(
            "sim.mean_batch",
            self.occupancy_busy / self.busy.max(1.0),
            "jobs",
        );
        out.metric("sim.makespan_s", self.makespan_s / n, "s");
        out.metric("sim.ttft_p99_ms", self.ttft_p99_ms, "ms");
        out.metric("kv.shared_hits", self.shared_hits as f64 / n, "count");
        out.metric("kv.reclaimed_blocks", self.reclaimed as f64 / n, "count");
        out.metric("disagg.handoffs", self.handoffs as f64 / n, "count");
        out.metric(
            "disagg.handoff_mb",
            self.handoff_bytes as f64 / 1e6 / n,
            "MB",
        );
    }
}
