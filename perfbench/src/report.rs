//! Metrics, the result line, the host fingerprint and the side-by-side
//! comparison of two result files.

use dismastd_core::ThreadPolicy;
use serde::Value;
use std::process::Command;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a single measurement).
    pub samples: usize,
}

/// What one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Streaming steps attempted (cold starts and warm steps, both sessions).
    pub attempted: u64,
    /// Steps that returned an error or failed a correctness check.
    pub failed: u64,
    /// The first failures, for the log.
    pub failures: Vec<String>,
    /// Whole-run checks outside any step (trace nesting) that failed.
    pub run_failures: Vec<String>,
    /// The reported metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts a failed step, keeping the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// True when every step and every whole-run check passed and every
    /// metric is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.run_failures.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::F64(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).unwrap_or_default()
    }
}

/// Median of `xs` (mean of the middle two for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host a result was measured on.  Results with different
/// fingerprints are shown side by side and never compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Cores the process may use.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `unknown` outside git.
    pub git_rev: String,
    /// How the pinned thread policy resolves: kernel lanes per `dist2`
    /// rank.  The serial path runs on one thread whatever the policy.
    pub threads: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this host for a `ThreadPolicy::Fixed(nproc)`
    /// run.
    pub fn detect(nproc: usize) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = command_line("rustc", &["-V"], None);
        // Stop git at the checkout: a checkout that is not a repository
        // must not report the revision of some enclosing one.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(|p| p.display().to_string()));
        let git_rev = command_line("git", &["rev-parse", "HEAD"], ceiling.as_deref());
        let per_rank = ThreadPolicy::Fixed(nproc).resolve_for_world(crate::RANKS);
        Fingerprint {
            nproc,
            cpu,
            rustc,
            git_rev,
            threads: format!("Fixed({nproc}): {per_rank} lane(s) per dist2 rank"),
        }
    }

    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("nproc".into(), Value::U64(self.nproc as u64)),
            ("cpu".into(), Value::Str(self.cpu.clone())),
            ("rustc".into(), Value::Str(self.rustc.clone())),
            ("git_rev".into(), Value::Str(self.git_rev.clone())),
            ("threads".into(), Value::Str(self.threads.clone())),
        ])
    }

    fn from_json(v: &Value) -> Option<Self> {
        let text = |k: &str| Some(field(v, k)?.as_str()?.to_string());
        Some(Fingerprint {
            nproc: field(v, "nproc")?.as_u64()? as usize,
            cpu: text("cpu")?,
            rustc: text("rustc")?,
            git_rev: text("git_rev")?,
            threads: text("threads")?,
        })
    }

    /// Same host and toolchain: the git revision is what a comparison
    /// varies, so it is left out.
    pub fn comparable(&self, other: &Fingerprint) -> bool {
        self.nproc == other.nproc
            && self.cpu == other.cpu
            && self.rustc == other.rustc
            && self.threads == other.threads
    }
}

/// First line of a command's standard output, or `unknown`.  The child is
/// waited for.
fn command_line(program: &str, args: &[&str], git_ceiling: Option<&str>) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args).stdin(std::process::Stdio::null());
    if let Some(c) = git_ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", c);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The result file written next to the benchmark: fingerprint, run
/// identity, verdict and every metric with its unit and sample count.
pub fn result_file(
    fp: &Fingerprint,
    workload: &str,
    seed: u64,
    trace: bool,
    out: &Outcome,
) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            Value::Object(vec![
                ("name".into(), Value::Str(m.name.into())),
                ("value".into(), Value::F64(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
                ("samples".into(), Value::U64(m.samples as u64)),
            ])
        })
        .collect();
    let v = Value::Object(vec![
        ("fingerprint".into(), fp.to_json()),
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::U64(seed)),
        ("trace".into(), Value::Bool(trace)),
        ("correct".into(), Value::Bool(out.correct())),
        ("attempted".into(), Value::U64(out.attempted)),
        ("failed".into(), Value::U64(out.failed)),
        ("metrics".into(), Value::Array(metrics)),
    ]);
    serde_json::to_string(&v).unwrap_or_default()
}

/// Field `key` of a JSON object.
fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(n, _)| n == key)
        .map(|(_, v)| v)
}

/// What [`compare`] reads back from a result file.
struct Saved {
    fingerprint: Fingerprint,
    workload: String,
    /// `(name, value, unit)` per metric.
    metrics: Vec<(String, f64, String)>,
}

fn load(path: &str) -> Result<Saved, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let fingerprint = field(&v, "fingerprint")
        .and_then(Fingerprint::from_json)
        .ok_or_else(|| format!("{path}: no fingerprint"))?;
    let workload = field(&v, "workload")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{path}: no workload"))?
        .to_string();
    let metrics = field(&v, "metrics")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no metrics"))?
        .iter()
        .filter_map(|m| {
            Some((
                field(m, "name")?.as_str()?.to_string(),
                field(m, "value")?.as_f64()?,
                field(m, "unit")?.as_str()?.to_string(),
            ))
        })
        .collect();
    Ok(Saved {
        fingerprint,
        workload,
        metrics,
    })
}

/// Prints two result files side by side.  With matching fingerprints each
/// metric gets the ratio new/old; otherwise both fingerprints are printed
/// and nothing is compared.
///
/// # Errors
/// A file could not be read or is not a result file.
pub fn compare(old_path: &str, new_path: &str) -> Result<String, String> {
    let (a, b) = (load(old_path)?, load(new_path)?);
    let (fa, fb) = (&a.fingerprint, &b.fingerprint);
    let comparable = fa.comparable(fb) && a.workload == b.workload;
    let mut out = String::new();
    out.push_str(&format!("{:<28} {:<44} {:<44}\n", "", old_path, new_path));
    for (label, x, y) in [
        ("workload", a.workload.clone(), b.workload.clone()),
        ("nproc", fa.nproc.to_string(), fb.nproc.to_string()),
        ("cpu", fa.cpu.clone(), fb.cpu.clone()),
        ("rustc", fa.rustc.clone(), fb.rustc.clone()),
        ("git_rev", fa.git_rev.clone(), fb.git_rev.clone()),
        ("threads", fa.threads.clone(), fb.threads.clone()),
    ] {
        out.push_str(&format!("{label:<28} {x:<44} {y:<44}\n"));
    }
    if !comparable {
        out.push_str("fingerprints or workloads differ: rows shown side by side, not compared\n");
    }
    for (name, va, unit) in &a.metrics {
        let vb = b
            .metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v);
        let shown = vb.map_or("-".to_string(), |v| format!("{v:.6}"));
        let ratio = match vb {
            Some(v) if comparable && *va != 0.0 => format!("{:.3}x", v / va),
            _ => String::new(),
        };
        out.push_str(&format!(
            "{name:<28} {:<44} {shown:<44} {unit:<14} {ratio}\n",
            format!("{va:.6}")
        ));
    }
    Ok(out)
}
