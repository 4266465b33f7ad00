//! Cost-plane microbenchmarks: direct, repeated calls into `core::perf`,
//! reported as the minimum and median of the repetitions.

use std::hint::black_box;
use std::time::Instant;

use spatten_core::{decode_step_cost, prefill_cost, Accelerator, SpAttenConfig};
use spatten_serve::representative;
use spatten_workloads::Benchmark;

use crate::util::{median, Outcome, Spans};

/// Repetitions of each single-query microbenchmark.
const REPS: usize = 15;
/// Repetitions of the paper sweep.
const SWEEP_REPS: usize = 3;

fn timed(spans: &mut Spans, name: &str, reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            let end = Instant::now();
            spans.span(name, "perf", 2, t, end, "{}");
            (end - t).as_secs_f64()
        })
        .collect()
}

fn report(out: &mut Outcome, name: &str, samples: &[f64], scale: f64, unit: &'static str) {
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    out.metric(name, median(samples) * scale, unit);
    out.metric(&format!("{name}.min"), min * scale, unit);
}

pub fn run(spans: &mut Spans, out: &mut Outcome) {
    let cfg = SpAttenConfig::default();
    let gpt2 = Benchmark::gpt2_small_wikitext2().workload();
    let w256 = representative(&gpt2, 256);
    let w1024 = representative(&gpt2, 1024);
    let s = timed(spans, "perf prefill gpt2-256", REPS, || {
        black_box(prefill_cost(black_box(&cfg), black_box(&w256)));
    });
    report(out, "perf.prefill_us.gpt2-256", &s, 1e6, "us");
    let s = timed(spans, "perf prefill gpt2-1024", REPS, || {
        black_box(prefill_cost(black_box(&cfg), black_box(&w1024)));
    });
    report(out, "perf.prefill_us.gpt2-1024", &s, 1e6, "us");
    let s = timed(spans, "perf decode gpt2-1024", REPS, || {
        black_box(decode_step_cost(black_box(&cfg), black_box(&w1024), 1024));
    });
    report(out, "perf.decode_us.gpt2-1024", &s, 1e6, "us");
    let accel = Accelerator::new(cfg);
    let registry: Vec<_> = Benchmark::all().iter().map(Benchmark::workload).collect();
    let s = timed(spans, "perf paper sweep", SWEEP_REPS, || {
        for w in &registry {
            black_box(accel.run(black_box(w)));
        }
    });
    report(out, "perf.paper_sweep_ms", &s, 1e3, "ms");
}
