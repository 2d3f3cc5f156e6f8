//! The benchmark's inputs: which traces each workload generates, from
//! which seed, and in which on-disk formats.
//!
//! Every trace comes from the program's own generator,
//! `mcs_trace::workload::generate`, configured exactly as
//! `dpg generate --taxis N --steps S --seed X` configures it, and is
//! written with the program's writers (`TraceFile::write_to` for JSON,
//! `TraceFile::write_binary_to` for DPGB). Line streams for `dpg serve` use
//! the protocol's `hello`/`req` frames with shortest-round-trip times.

use std::path::Path;

use dp_greedy_suite::engine::RunContext;
use dp_greedy_suite::model::defaults::{default_model, DEFAULT_SEED, DEFAULT_THETA};
use dp_greedy_suite::model::json::Json;
use dp_greedy_suite::model::{Request, RequestSeq, RequestSeqBuilder};
use dp_greedy_suite::trace::io::TraceFile;
use dp_greedy_suite::trace::workload::{generate, WorkloadConfig};

/// Seed of the `offline_taxi` scale probe. It does not follow `--seed`:
/// the probe is an operation that fails on every run today, and it must
/// fail on the same inputs whatever seed a run is given.
pub const PROBE_SEED: u64 = 20_190_601;

/// Epoch length of the `serve_stream` daemon run. Every epoch boundary
/// rewrites the checkpoint and opens a new WAL file. On the disk the
/// benchmark's checkout lives on, that filesystem work (about 1.3 ms per
/// boundary when the disk is quiet, several times that when it is not)
/// swamps the settle solve at the daemon's default of 64 and swings with
/// the host's I/O, so the benchmark settles every 1024 requests.
pub const SERVE_EPOCH_LEN: usize = 1024;

/// An on-disk rendering of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Pretty JSON, the default `dpg generate` output.
    Json,
    /// The compact binary `DPGB` format.
    Dpgb,
    /// A `dpg serve` line stream (`hello` + one `req` per request).
    Lines,
}

impl Format {
    fn extension(self) -> &'static str {
        match self {
            Format::Json => "json",
            Format::Dpgb => "dpgb",
            Format::Lines => "txt",
        }
    }
}

/// One generated trace of a workload.
#[derive(Debug, Clone)]
pub struct InputSpec {
    /// File stem inside the work directory.
    pub name: &'static str,
    /// Taxis, which are the catalog's items.
    pub taxis: usize,
    /// Simulation steps.
    pub steps: usize,
    /// Generator seed.
    pub seed: u64,
    /// Formats the trace is written in.
    pub formats: &'static [Format],
}

impl InputSpec {
    /// The generator configuration, as `dpg generate --taxis` builds it.
    pub fn config(&self) -> WorkloadConfig {
        let mut cfg = WorkloadConfig::paper_like(self.seed);
        cfg.steps = self.steps;
        cfg.taxis = self.taxis;
        let pairs = self.taxis / 2;
        cfg.pair_affinity = (0..pairs)
            .map(|p| 0.95 - 0.9 * p as f64 / pairs.max(1) as f64)
            .collect();
        cfg
    }

    /// Generates the trace.
    pub fn generate(&self) -> RequestSeq {
        generate(&self.config())
    }

    /// The file this trace is written to in `format`.
    pub fn file(&self, format: Format) -> String {
        format!("{}.{}", self.name, format.extension())
    }
}

/// Every trace a workload generates from `seed`.
pub fn specs(workload: &str, seed: u64) -> Result<Vec<InputSpec>, String> {
    use Format::*;
    let derived = |k: u64| seed.wrapping_mul(0x9E37_79B9).wrapping_add(k);
    let spec = |name, taxis, steps, seed, formats| InputSpec {
        name,
        taxis,
        steps,
        seed,
        formats,
    };
    Ok(match workload {
        "offline_taxi" => vec![
            spec("main", 24, 16_000, derived(1), &[Dpgb]),
            spec("small", 24, 1_000, derived(2), &[Json, Dpgb]),
            spec("probe", 24, 64_000, PROBE_SEED, &[Dpgb]),
        ],
        "wide_catalog" => vec![spec("wide", 1_000, 1_000, derived(3), &[Dpgb])],
        "serve_stream" => vec![
            spec("stream", 24, 16_000, derived(4), &[Lines]),
            spec("fill", 24, 64_000, derived(5), &[Lines]),
        ],
        other => return Err(format!("unknown workload {other}")),
    })
}

/// The context `dpg serve` settles its epochs under, before
/// `RunContext::for_epoch` derives each epoch's own.
pub fn serve_ctx() -> RunContext {
    RunContext::new(default_model())
        .with_theta(DEFAULT_THETA)
        .with_seed(DEFAULT_SEED)
}

/// A sequence over `seq`'s servers and items made of `requests`, each
/// time shifted back by `origin`.
pub fn subsequence(
    seq: &RequestSeq,
    requests: &[Request],
    origin: f64,
) -> Result<RequestSeq, String> {
    let mut b = RequestSeqBuilder::new(seq.servers(), seq.items());
    for r in requests {
        b = b.push(r.server, r.time - origin, r.items.iter().map(|i| i.0));
    }
    b.build().map_err(|e| e.to_string())
}

/// The slices of `seq` that a daemon settling every `epoch_len` requests
/// prices, one per whole epoch. With `rebase` false each slice keeps its
/// absolute request times, as `dpg serve` builds them today. With
/// `rebase` true each slice's times start from its epoch's start: the
/// time of the previous epoch's last request, or 0 for the first epoch.
pub fn epoch_slices(
    seq: &RequestSeq,
    epoch_len: usize,
    rebase: bool,
) -> Result<Vec<RequestSeq>, String> {
    let mut origin = 0.0;
    let mut slices = Vec::new();
    for chunk in seq.requests().chunks_exact(epoch_len) {
        slices.push(subsequence(seq, chunk, if rebase { origin } else { 0.0 })?);
        origin = chunk[epoch_len - 1].time;
    }
    Ok(slices)
}

/// Renders `seq` as a `dpg serve` line stream: a `hello` handshake, then
/// one `req` frame per request.
pub fn lines(seq: &RequestSeq) -> String {
    use std::fmt::Write as _;
    let mut out = format!("hello {} {}\n", seq.servers(), seq.items());
    for r in seq.requests() {
        let _ = write!(out, "req {:?} {} ", r.time, r.server.0);
        for (i, item) in r.items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", item.0);
        }
        out.push('\n');
    }
    out
}

/// Renders one generated trace in every format of its spec with the
/// program's writers: `(file name, bytes)` per format.
pub fn render(spec: &InputSpec, seq: RequestSeq) -> Result<Vec<(String, Vec<u8>)>, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", spec.name);
    let mut out = Vec::new();
    if spec.formats.contains(&Format::Lines) {
        out.push((spec.file(Format::Lines), lines(&seq).into_bytes()));
    }
    let file = TraceFile::synthetic(spec.config(), seq);
    for &format in spec.formats {
        let mut bytes = Vec::new();
        match format {
            Format::Json => file.write_to(&mut bytes).map_err(|e| err(&e))?,
            Format::Dpgb => file.write_binary_to(&mut bytes).map_err(|e| err(&e))?,
            Format::Lines => continue,
        }
        out.push((spec.file(format), bytes));
    }
    Ok(out)
}

/// The make-up of one trace, computed from the generated sequence by the
/// benchmark itself (not by the program's accessors): the expected
/// values the output checks compare against.
pub fn facts(spec: &InputSpec, seq: &RequestSeq, dir: &Path) -> Json {
    let mut per_item = vec![0u64; seq.items() as usize];
    let mut accesses = 0u64;
    for r in seq.requests() {
        accesses += r.items.len() as u64;
        for item in &r.items {
            per_item[item.0 as usize] += 1;
        }
    }
    let sum_n2: f64 = per_item.iter().map(|&n| (n as f64) * (n as f64)).sum();
    let files = spec
        .formats
        .iter()
        .map(|&f| {
            let name = spec.file(f);
            let bytes = std::fs::metadata(dir.join(&name)).map_or(0, |m| m.len());
            (name, Json::Num(bytes as f64))
        })
        .collect();
    Json::Obj(vec![
        ("seed".into(), Json::Str(spec.seed.to_string())),
        ("items".into(), Json::Num(seq.items() as f64)),
        ("servers".into(), Json::Num(seq.servers() as f64)),
        ("steps".into(), Json::Num(spec.steps as f64)),
        ("requests".into(), Json::Num(seq.requests().len() as f64)),
        ("accesses".into(), Json::Num(accesses as f64)),
        ("sum_n2".into(), Json::Num(sum_n2)),
        ("bytes".into(), Json::Obj(files)),
    ])
}
