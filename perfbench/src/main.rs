//! `spatten-perfbench` — the repository's end-to-end and per-layer
//! benchmark. See `perfbench/README.md` for the workloads, the metrics
//! and what each layer metric should move.
//!
//! ```text
//! spatten-perfbench --workload fleet-disagg|fleet-sweep|live-chat
//!                   --seed N --seconds S --trace 0|1
//!                   [--frontd PATH]
//! ```
//!
//! Run it through `perfbench/run.sh`, which builds this package and the
//! `spatten-frontd` binary first. The last stdout line is the result:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`); the
//! line before it records the machine, the seed and the sample counts.
//! The exit code is non-zero if any check on the program's output fails.

mod live;
mod micro;
mod offline;
mod probe;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use spatten_serve::json::{self, JsonObject};
use util::{Machine, Spans};

/// Metrics a user of the system sees; printed by `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("requests_per_s", "req/s"),
    ("peak_rss_mb", "MB"),
    ("ttft_p50_ms", "ms"),
    ("e2e_p50_ms", "ms"),
];

/// Metrics of single layers; printed by `--trace 1`. A workload that
/// never exercises a layer reports it as 0 and lists it under
/// `not_exercised` on the detail line.
const PER_LAYER: [(&str, &str); 46] = [
    ("workloads.trace_gen_ms", "ms"),
    ("cost.calls_per_request", "count"),
    ("cost.prefill_calls_per_request", "count"),
    ("cost.hit_ns", "ns"),
    ("cost.prefill.misses", "count"),
    ("cost.decode.misses", "count"),
    ("cost.kv.misses", "count"),
    ("cost.prefill.miss_us", "us"),
    ("cost.decode.miss_us", "us"),
    ("cost.kv.miss_us", "us"),
    ("cost.cold_s", "s"),
    ("cost.seam_s", "s"),
    ("cost.share", "ratio"),
    ("cluster.miss_us", "us"),
    ("perf.prefill_us.gpt2-256", "us"),
    ("perf.prefill_us.gpt2-256.min", "us"),
    ("perf.prefill_us.gpt2-1024", "us"),
    ("perf.prefill_us.gpt2-1024.min", "us"),
    ("perf.decode_us.gpt2-1024", "us"),
    ("perf.decode_us.gpt2-1024.min", "us"),
    ("perf.paper_sweep_ms", "ms"),
    ("perf.paper_sweep_ms.min", "ms"),
    ("engine.events_per_request", "count"),
    ("engine.ns_per_event", "ns"),
    ("sim.host_s", "s"),
    ("sim.rounds", "count"),
    ("sim.mean_batch", "jobs"),
    ("sim.makespan_s", "s"),
    ("sim.ttft_p99_ms", "ms"),
    ("kv.shared_hits", "count"),
    ("kv.reclaimed_blocks", "count"),
    ("disagg.handoffs", "count"),
    ("disagg.handoff_mb", "MB"),
    ("live.ttft_p99_ms", "ms"),
    ("live.e2e_p99_ms", "ms"),
    ("live.tbt_p99_ms", "ms"),
    ("http.connect_ms", "ms"),
    ("http.verdict_ms", "ms"),
    ("frontd.overhead_p50_ms", "ms"),
    ("frontd.overhead_p99_ms", "ms"),
    ("frontd.cold_prompts", "count"),
    ("frontd.bridge_lag_ms", "ms"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub frontd: Option<PathBuf>,
    pub spans: Spans,
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut frontd) =
        (None, None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--frontd" => frontd = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            frontd,
            spans: Spans::new(Instant::now()),
        },
    })
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: spatten-perfbench --workload fleet-disagg|fleet-sweep|live-chat --seed N --seconds S --trace 0|1 [--frontd PATH]");
            return ExitCode::from(2);
        }
    };
    let ctx = &mut args.ctx;
    let machine = Machine::probe();
    let started = Instant::now();
    let ticks_before = util::cpu_ticks();
    let mut out = match args.workload.as_str() {
        "fleet-disagg" => offline::fleet_disagg(ctx),
        "fleet-sweep" => offline::fleet_sweep(ctx),
        "live-chat" => live::live_chat(ctx),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if ctx.trace {
        micro::run(&mut ctx.spans, &mut out);
        out.metric("trace.spans", ctx.spans.len() as f64, "count");
    }
    let steal_pct = match (ticks_before, util::cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0,
        _ => 0.0,
    };
    let missing = out.keep_only(if ctx.trace { &PER_LAYER } else { &END_TO_END });
    let header = JsonObject::new()
        .str("workload", &args.workload)
        .u64("seed", ctx.seed)
        .f64("seconds", ctx.seconds)
        .bool("trace", ctx.trace)
        .f64("run_wall_s", started.elapsed().as_secs_f64())
        .f64("host_steal_pct", steal_pct)
        .raw("machine", &machine.json().build())
        .raw(
            "not_exercised",
            &json::array(missing.iter().map(|m| json::quote(m))),
        )
        .build();
    if ctx.trace {
        let path = PathBuf::from(format!(
            "perfbench/out/{}-seed{}.trace.json",
            args.workload, ctx.seed
        ));
        match ctx.spans.write(&path, &header) {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
        }
    }
    let detail = std::mem::take(&mut out.detail).build();
    println!(
        "{}",
        JsonObject::new()
            .raw("run", &header)
            .raw("detail", &detail)
            .build()
    );
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", out.result_line());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
