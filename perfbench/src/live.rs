//! The `live-chat` workload: `spatten-frontd` as a separate process on
//! loopback with a compressed clock, driven by closed-loop clients that
//! each wait for their whole reply before sending the next request.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spatten_core::SpAttenConfig;
use spatten_serve::json::{self, JsonObject, JsonValue};
use spatten_serve::{CostModel, FleetCost};
use spatten_workloads::Benchmark;

use crate::util::{median, peak_rss_mb, percentile, Outcome};
use crate::Ctx;

/// Virtual nanoseconds per wall nanosecond. At 100 a small request's
/// simulated first token is a few percent of its wall TTFT, so client
/// latency is mostly the server's own host time.
const TIME_SCALE: f64 = 100.0;
/// Closed-loop clients, one thread each.
const CLIENTS: usize = 2;
/// Requests per client round: `ROUND - 1` small prompts, then one long.
const ROUND: usize = 10;
/// Small prompts and every generation length are drawn from these.
const SMALL_PROMPT: (usize, usize) = (16, 128);
const GEN: (usize, usize) = (8, 32);
/// Long prompts take fresh lengths from this range (GPT-2's context is
/// 1024), in a seeded order, until the range is used up.
const LONG_PROMPT: (usize, usize) = (513, 1024);
/// Generous enough that SLO admission never sheds.
const SLO_MS: u64 = 60_000;
/// Server spawns per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// `peak_rss_mb` is the server's VmHWM once this many requests have
/// been answered, and clients keep going until it has been read. The
/// server retains every completion, so a reading at the end of the
/// window would grow with throughput and a faster server would look
/// bigger.
const RSS_AT: usize = 4_000;
/// Relative slack on the uncontended first-token floor: round
/// co-scheduling lets simulated TTFT undercut the solo price by a few
/// parts per million.
const FLOOR_SLACK: f64 = 1e-4;

/// SplitMix64: the request schedule's generator.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn draw(h: u64, (lo, hi): (usize, usize)) -> usize {
    lo + (h % (hi - lo + 1) as u64) as usize
}

/// Request `k` of client `c`: `(prompt_tokens, gen_tokens)`.
fn request(seed: u64, long_order: &[usize], c: usize, k: usize) -> (usize, usize) {
    let h = mix(seed ^ mix(((c as u64) << 32) | k as u64));
    let gen = draw(mix(h), GEN);
    if k % ROUND == ROUND - 1 {
        let nth = (k / ROUND) * CLIENTS + c;
        (long_order[nth % long_order.len()], gen)
    } else {
        (draw(h, SMALL_PROMPT), gen)
    }
}

/// The long-prompt lengths in a seeded order (Fisher–Yates).
fn long_order(seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (LONG_PROMPT.0..=LONG_PROMPT.1).collect();
    for i in (1..v.len()).rev() {
        let j = (mix(seed ^ 0x1046 ^ i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Linux's lowest scheduling class: such a thread runs only when no
/// other thread wants its CPU, and any waking thread preempts it.
const SCHED_IDLE: i32 = 5;

/// Keeps every vCPU out of its idle halt while alive, with one spinning
/// `SCHED_IDLE` thread pinned to each. On a virtual machine a halted
/// vCPU that is woken (by a socket write or a timer) waits for the host
/// to schedule it again; under host load that wait, counted as steal,
/// took 5–30% of a run and set the server's latencies. The spinners
/// yield to the server and the clients at once, so only the host's
/// wake-up delay is taken out. A thread that cannot enter `SCHED_IDLE`
/// exits instead of spinning.
struct Awake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<bool>>,
}

impl Awake {
    fn new() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let vcpus = std::thread::available_parallelism().map_or(1, |n| n.get().min(64));
        let threads = (0..vcpus)
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut mask = [0u64; 16];
                    mask[cpu / 64] = 1 << (cpu % 64);
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: both calls act on the calling thread (pid
                    // 0) and read only the live values passed to them.
                    let idle = unsafe {
                        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
                        sched_setscheduler(0, SCHED_IDLE, &param) == 0
                    };
                    while idle && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    idle
                })
            })
            .collect();
        Self { stop, threads }
    }

    /// Stops and joins the spinners; returns how many were spinning.
    fn stop(mut self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        std::mem::take(&mut self.threads)
            .into_iter()
            .map(|t| t.join().unwrap_or(false))
            .filter(|&idle| idle)
            .count()
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The server process; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    // Held open so the server's stderr never hits a closed pipe.
    _stderr: BufReader<std::process::ChildStderr>,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns the server and returns it once `/healthz` answers 200, with
/// the spawn-to-healthy time.
fn spawn(bin: &Path) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let mut child = Command::new(bin)
        .args(["--bind", "127.0.0.1:0", "--workers", &CLIENTS.to_string()])
        .args(["--time-scale", &TIME_SCALE.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
    let mut addr = None;
    let mut line = String::new();
    while addr.is_none() {
        line.clear();
        if stderr.read_line(&mut line).unwrap_or(0) == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server exited before listening".into());
        }
        addr = line
            .split("listening on http://")
            .nth(1)
            .and_then(|a| a.trim().parse::<SocketAddr>().ok());
    }
    let server = Server {
        child,
        addr: addr.expect("loop ends on an address"),
        _stderr: stderr,
    };
    loop {
        if get(server.addr, "/healthz").is_ok_and(|(code, _)| code == 200) {
            return Ok((server, t.elapsed().as_secs_f64()));
        }
        if t.elapsed() > Duration::from_secs(30) {
            return Err("server never became healthy".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A plain GET; returns the status code and body.
fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )?;
    let mut resp = String::new();
    s.read_to_string(&mut resp)?;
    let code = resp
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = resp
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((code, body))
}

/// One `POST /v1/generate` exchange as the client saw it.
struct Exchange {
    prompt: usize,
    gen: usize,
    status: u16,
    start: Instant,
    connected: Instant,
    /// First byte of the request written.
    written: Instant,
    /// Status line read.
    verdict: Instant,
    /// Each JSON-lines record with the instant it was read.
    records: Vec<(Instant, JsonValue)>,
    error: Option<String>,
}

impl Exchange {
    fn tokens(&self) -> impl Iterator<Item = &(Instant, JsonValue)> {
        self.records.iter().filter(|(_, r)| event(r) == "tokens")
    }

    fn first_token(&self) -> Option<Instant> {
        self.tokens().next().map(|(t, _)| *t)
    }

    fn done(&self) -> Option<Instant> {
        self.records
            .iter()
            .find(|(_, r)| event(r) == "done")
            .map(|(t, _)| *t)
    }
}

fn event(r: &JsonValue) -> &str {
    r.get("event").and_then(JsonValue::as_str).unwrap_or("")
}

fn count(r: &JsonValue, key: &str) -> u64 {
    r.get(key).and_then(JsonValue::as_u64).unwrap_or(u64::MAX)
}

fn generate(addr: SocketAddr, prompt: usize, gen: usize) -> Exchange {
    let start = Instant::now();
    let mut ex = Exchange {
        prompt,
        gen,
        status: 0,
        start,
        connected: start,
        written: start,
        verdict: start,
        records: Vec::new(),
        error: None,
    };
    if let Err(e) = exchange(addr, &mut ex) {
        ex.error = Some(e.to_string());
    }
    ex
}

fn exchange(addr: SocketAddr, ex: &mut Exchange) -> std::io::Result<()> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut stream = TcpStream::connect(addr)?;
    ex.connected = Instant::now();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let body = JsonObject::new()
        .u64("prompt_tokens", ex.prompt as u64)
        .u64("gen_tokens", ex.gen as u64)
        .u64("slo_ms", SLO_MS)
        .build();
    let req = format!(
        "POST /v1/generate HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    ex.written = Instant::now();
    stream.write_all(req.as_bytes())?;
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    r.read_line(&mut line)?;
    ex.verdict = Instant::now();
    ex.status = line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut chunked = false;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 || line.trim().is_empty() {
            break;
        }
        chunked |= line
            .to_ascii_lowercase()
            .starts_with("transfer-encoding: chunked");
    }
    if !chunked {
        return Ok(());
    }
    loop {
        line.clear();
        r.read_line(&mut line)?;
        let size = usize::from_str_radix(line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
        if size == 0 {
            return Ok(());
        }
        let mut chunk = vec![0; size + 2];
        r.read_exact(&mut chunk)?;
        let at = Instant::now();
        let text = std::str::from_utf8(&chunk[..size]).map_err(|_| bad("chunk is not UTF-8"))?;
        let record = json::parse(text.trim()).map_err(|e| bad(&e))?;
        ex.records.push((at, record));
    }
}

/// What the clients of one server share: how many exchanges have ended,
/// and the server's peak RSS once `RSS_AT` of them have.
struct Shared {
    pid: String,
    answered: AtomicUsize,
    rss_mb: OnceLock<Option<f64>>,
}

/// One closed-loop client: whole rounds until `deadline` has passed and
/// the RSS reading has been taken.
fn client(
    addr: SocketAddr,
    seed: u64,
    long: &[usize],
    c: usize,
    deadline: Instant,
    shared: &Shared,
) -> Vec<Exchange> {
    let mut out = Vec::new();
    let mut k = 0;
    loop {
        let (prompt, gen) = request(seed, long, c, k);
        out.push(generate(addr, prompt, gen));
        if shared.answered.fetch_add(1, Ordering::SeqCst) + 1 == RSS_AT {
            let _ = shared.rss_mb.set(peak_rss_mb(&shared.pid));
        }
        k += 1;
        if k % ROUND == 0 && Instant::now() >= deadline && shared.rss_mb.get().is_some() {
            return out;
        }
    }
}

/// Checks one exchange against the request it made.
fn check_exchange(ex: &Exchange, out: &mut Outcome) -> bool {
    let what = format!("request (prompt {}, gen {})", ex.prompt, ex.gen);
    if let Some(e) = &ex.error {
        out.check(false, || format!("{what}: {e}"));
        return false;
    }
    if ex.status != 200 {
        out.check(false, || format!("{what}: status {}", ex.status));
        return false;
    }
    let ok_open = ex
        .records
        .first()
        .is_some_and(|(_, r)| event(r) == "accepted");
    out.check(ok_open, || {
        format!("{what}: stream does not open with `accepted`")
    });
    let mut next = 0u64;
    let mut contiguous = true;
    for (_, r) in ex.tokens() {
        contiguous &= count(r, "first") == next;
        next += count(r, "count");
    }
    out.check(contiguous, || {
        format!("{what}: token offsets are not contiguous")
    });
    out.check(next == ex.gen as u64, || {
        format!("{what}: streamed {next} tokens")
    });
    let done = ex.records.last().filter(|(_, r)| event(r) == "done");
    let total = done.map(|(_, r)| count(r, "total_tokens"));
    out.check(total == Some(ex.gen as u64), || {
        format!("{what}: done record reports {total:?} tokens")
    });
    ok_open && contiguous && next == ex.gen as u64 && total == Some(ex.gen as u64)
}

/// The uncontended first-token time of a `(prompt, gen)` request in
/// wall ns, priced apart through the same oracle the server builds.
struct Floor {
    cost: CostModel,
    clock_ghz: f64,
}

impl Floor {
    fn new() -> Self {
        let accel = SpAttenConfig::default();
        Self {
            cost: CostModel::end_to_end(accel, 8),
            clock_ghz: accel.clock_ghz,
        }
    }

    fn wall_ns(&mut self, prompt: usize, gen: usize) -> f64 {
        let mut w = Benchmark::gpt2_small_wikitext2().workload();
        w.seq_len = prompt.max(1);
        w.gen_steps = gen;
        self.cost.first_token_on(0, &w) as f64 / self.clock_ghz / TIME_SCALE
    }
}

pub fn live_chat(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::new();
    let Some(bin) = ctx.frontd.clone() else {
        out.check(false, || {
            "live-chat needs --frontd <path to spatten-frontd>".into()
        });
        return out;
    };
    let awake = Awake::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        // Each earlier server is stopped before the next one starts.
        drop(server.take());
        match spawn(&bin) {
            Ok((s, t)) => {
                setups.push(t);
                server = Some(s);
            }
            Err(e) => {
                out.check(false, || e);
                return out;
            }
        }
    }
    let server = server.expect("SETUPS > 0");
    let long = long_order(ctx.seed);
    let shared = Shared {
        pid: server.child.id().to_string(),
        answered: AtomicUsize::new(0),
        rss_mb: OnceLock::new(),
    };
    let window = Instant::now();
    let deadline = window + Duration::from_secs_f64(ctx.seconds);
    let exchanges: Vec<Vec<Exchange>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (long, shared) = (&long, &shared);
                let (addr, seed) = (server.addr, ctx.seed);
                s.spawn(move || client(addr, seed, long, c, deadline, shared))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = window.elapsed().as_secs_f64();
    let snapshot = get(server.addr, "/metrics");
    drop(server);
    let spinners = awake.stop();

    let all: Vec<&Exchange> = exchanges.iter().flatten().collect();
    out.attempted = all.len() as u64;
    let mut good = Vec::with_capacity(all.len());
    for ex in &all {
        if check_exchange(ex, &mut out) {
            good.push(*ex);
        } else {
            out.failed += 1;
        }
    }
    let streamed: u64 = good.iter().map(|e| e.gen as u64).sum();
    let mut lag_ms = 0.0;
    match snapshot
        .as_ref()
        .map(|(code, body)| (*code, json::parse(body)))
    {
        Ok((200, Ok(snap))) => {
            let field = |k: &str| snap.get(k).and_then(JsonValue::as_u64).unwrap_or(u64::MAX);
            out.check(field("accepted") == all.len() as u64, || {
                format!(
                    "/metrics accepted {} of {} sent",
                    field("accepted"),
                    all.len()
                )
            });
            out.check(field("completed") == good.len() as u64, || {
                format!(
                    "/metrics completed {} vs {} at the client",
                    field("completed"),
                    good.len()
                )
            });
            out.check(field("tokens_streamed") == streamed, || {
                format!(
                    "/metrics streamed {} tokens vs {streamed} at the client",
                    field("tokens_streamed")
                )
            });
            let vns = field("vtime_cycles") as f64 / SpAttenConfig::default().clock_ghz;
            lag_ms = (field("wall_elapsed_ns") as f64 * TIME_SCALE - vns) / TIME_SCALE / 1e6;
        }
        other => out.check(false, || {
            format!("GET /metrics failed: {:?}", other.map(|(c, _)| c))
        }),
    }

    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    let ttft: Vec<f64> = good
        .iter()
        .filter_map(|e| e.first_token().map(|t| ms(e.written, t)))
        .collect();
    let e2e: Vec<f64> = good
        .iter()
        .filter_map(|e| e.done().map(|t| ms(e.written, t)))
        .collect();
    let tbt: Vec<f64> = good
        .iter()
        .flat_map(|e| {
            let t: Vec<Instant> = e.tokens().map(|(t, _)| *t).collect();
            t.windows(2).map(|w| ms(w[0], w[1])).collect::<Vec<_>>()
        })
        .collect();

    // No first token may beat the request's uncontended priced time.
    let mut floor = Floor::new();
    let mut overhead = Vec::with_capacity(good.len());
    for e in &good {
        let Some(first) = e.first_token() else {
            continue;
        };
        let floor_ms = floor.wall_ns(e.prompt, e.gen) / 1e6;
        let got = ms(e.written, first);
        out.check(got >= floor_ms * (1.0 - FLOOR_SLACK), || {
            format!(
                "prompt {} gen {}: first token after {got} ms, priced floor {floor_ms} ms",
                e.prompt, e.gen
            )
        });
        overhead.push(got - floor_ms);
    }

    let samples = |v: &[f64]| JsonObject::new().u64("samples", v.len() as u64);
    out.detail(|d| {
        d.f64("time_scale", TIME_SCALE)
            .u64("clients", CLIENTS as u64)
            .f64("window_s", window_s)
            .u64("rss_at_requests", RSS_AT as u64)
            .u64("idle_spinners", spinners as u64)
            .raw("ttft", &samples(&ttft).build())
            .raw("e2e", &samples(&e2e).build())
            .raw("tbt", &samples(&tbt).build())
            .raw(
                "setup_s_samples",
                &json::array(setups.iter().map(|s| s.to_string())),
            )
    });
    if ctx.trace {
        let built = Instant::now();
        for (i, e) in all.iter().enumerate() {
            let tid = 10 + i as u64 % CLIENTS as u64;
            let end = e
                .done()
                .or(e.records.last().map(|(t, _)| *t))
                .unwrap_or(e.verdict);
            let args = JsonObject::new()
                .u64("prompt", e.prompt as u64)
                .u64("gen", e.gen as u64)
                .u64("status", u64::from(e.status))
                .build();
            ctx.spans.span("request", "http", tid, e.start, end, &args);
            ctx.spans
                .span("connect", "http", tid, e.start, e.connected, "{}");
            ctx.spans
                .span("verdict", "http", tid, e.written, e.verdict, "{}");
            if let Some(t) = e.first_token() {
                ctx.spans
                    .span("first token", "http", tid, e.written, t, "{}");
            }
            if let Some(t) = e.done() {
                ctx.spans.span("done", "http", tid, e.written, t, "{}");
            }
        }
        let span_s = built.elapsed().as_secs_f64();
        let connect: Vec<f64> = all.iter().map(|e| ms(e.start, e.connected)).collect();
        let verdict: Vec<f64> = all.iter().map(|e| ms(e.written, e.verdict)).collect();
        let cold: HashSet<usize> = all.iter().map(|e| e.prompt).collect();
        out.metric("http.connect_ms", median(&connect), "ms");
        out.metric("http.verdict_ms", median(&verdict), "ms");
        out.metric("frontd.overhead_p50_ms", percentile(&overhead, 50.0), "ms");
        out.metric("frontd.overhead_p99_ms", percentile(&overhead, 99.0), "ms");
        out.metric("frontd.cold_prompts", cold.len() as f64, "count");
        out.metric("frontd.bridge_lag_ms", lag_ms, "ms");
        out.metric("live.ttft_p99_ms", percentile(&ttft, 99.0), "ms");
        out.metric("live.e2e_p99_ms", percentile(&e2e, 99.0), "ms");
        out.metric("live.tbt_p99_ms", percentile(&tbt, 99.0), "ms");
        // The spans are built from timestamps the untraced run takes
        // too, so tracing adds only the span building after the window.
        out.metric("trace.untraced_s", window_s, "s");
        out.metric("trace.traced_s", window_s + span_s, "s");
        out.metric("trace.overhead_pct", span_s / window_s * 100.0, "%");
    } else {
        out.metric("setup_s", median(&setups), "s");
        out.metric("requests_per_s", good.len() as f64 / window_s, "req/s");
        let rss = shared.rss_mb.get().copied().flatten();
        out.metric("peak_rss_mb", rss.unwrap_or(0.0), "MB");
        out.metric("ttft_p50_ms", percentile(&ttft, 50.0), "ms");
        out.metric("e2e_p50_ms", percentile(&e2e, 50.0), "ms");
    }
    out
}
