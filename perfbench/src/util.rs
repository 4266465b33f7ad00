//! Statistics, the result line, machine identification and the Chrome
//! trace-event writer shared by every workload.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use spatten_serve::json::{self, JsonObject};

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `v`; 0 when empty. With fewer
/// than `100 / (100 - p)` samples this is the maximum.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[idx.clamp(1, s.len()) - 1]
}

/// The benchmark's last output line plus the context printed before it.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Free-form context (sample counts, seeds, raw timings), printed as
    /// one JSON line before the result line.
    pub detail: JsonObject,
    /// Check failures, printed to stderr.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            detail: JsonObject::new(),
            errors: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Orders the metrics as `wanted` lists them and drops any other. A
    /// wanted metric the workload did not produce is reported as 0 and
    /// its name returned.
    pub fn keep_only(&mut self, wanted: &[(&str, &'static str)]) -> Vec<String> {
        let have = std::mem::take(&mut self.metrics);
        let mut missing = Vec::new();
        for &(name, unit) in wanted {
            let value = match have.iter().find(|(n, _, _)| n == name) {
                Some(&(_, v, _)) => v,
                None => {
                    missing.push(name.to_string());
                    0.0
                }
            };
            self.metric(name, value, unit);
        }
        missing
    }

    /// Records a failed check on the program's output.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    pub fn detail(&mut self, f: impl FnOnce(JsonObject) -> JsonObject) {
        let d = std::mem::take(&mut self.detail);
        self.detail = f(d);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = JsonObject::new();
        for (name, value, unit) in &self.metrics {
            metrics = metrics.raw(
                name,
                &JsonObject::new()
                    .f64("value", *value)
                    .str("unit", unit)
                    .build(),
            );
        }
        JsonObject::new()
            .bool("correct", self.correct)
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics.build())
            .build()
    }
}

/// What a number is tied to: the machine, the toolchain and the source.
pub struct Machine {
    pub cpu: String,
    pub vcpus: usize,
    pub rustc: String,
    pub commit: String,
    pub source_fnv: String,
}

impl Machine {
    pub fn probe() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let vcpus = std::thread::available_parallelism().map_or(1, usize::from);
        let rustc = std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
        Self {
            cpu,
            vcpus,
            rustc,
            commit: git_head(Path::new(".")).unwrap_or_else(|| "unknown".into()),
            source_fnv: source_fingerprint(),
        }
    }

    pub fn json(&self) -> JsonObject {
        JsonObject::new()
            .str("cpu", &self.cpu)
            .u64("vcpus", self.vcpus as u64)
            .str("rustc", &self.rustc)
            .str("commit", &self.commit)
            .str("source_fnv1a64", &self.source_fnv)
    }
}

/// The commit `.git/HEAD` names, read without leaving the checkout;
/// `None` outside a git work tree (benchmark checkouts are plain copies,
/// which the source fingerprint identifies instead).
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| {
            let (id, name) = l.split_once(' ')?;
            (name == reference).then(|| id.to_string())
        })
}

/// FNV-1a over the program's sources (`Cargo.toml`, `Cargo.lock`, `src/`
/// and `crates/`, in path order), so two runs can tell whether they
/// measured the same code even in a checkout without git metadata.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            match e.file_type() {
                Ok(t) if t.is_dir() => walk(&p, out),
                Ok(t) if t.is_file() => out.push(p),
                _ => {}
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

/// VmHWM (peak resident set) of process `pid` (`"self"` for this one), MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The machine's CPU time so far, in ticks summed over vCPUs: `(steal,
/// total)` from the first line of `/proc/stat`. Steal is time the
/// hypervisor ran something else on a vCPU that wanted to run; it
/// stretches every wall-clock figure, so each run records its share.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Spans kept in memory and written out once, as Chrome trace-event
/// JSON (opens in Perfetto and `chrome://tracing`).
pub struct Spans {
    epoch: Instant,
    events: Vec<String>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            events: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_nanos() as f64 / 1e3
    }

    /// A complete span on track `tid`. Children nest by time inside their
    /// parent on the same track; `args` is a JSON object.
    pub fn span(
        &mut self,
        name: &str,
        cat: &str,
        tid: u64,
        start: Instant,
        end: Instant,
        args: &str,
    ) {
        let ts = self.us(start);
        let dur = (self.us(end) - ts).max(0.0);
        let mut e = String::with_capacity(128);
        let _ = write!(
            e,
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{args}}}",
            json::quote(name),
            json::quote(cat),
        );
        self.events.push(e);
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn write(&self, path: &Path, meta: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out =
            String::with_capacity(self.events.iter().map(|e| e.len() + 2).sum::<usize>() + 256);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":");
        out.push_str(meta);
        out.push_str(",\"traceEvents\":[\n");
        out.push_str(&self.events.join(",\n"));
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
