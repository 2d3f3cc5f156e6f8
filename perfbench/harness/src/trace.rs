//! `perfbench trace`: per-layer numbers from in-process calls.
//!
//! Each iteration has two parts, both timed with spans kept in memory
//! (name, start, end, parent) and written to `spans.jsonl` at the end:
//!
//! * the **mirror**: the workload's `dpg` commands re-enacted through
//!   the same public functions the CLI calls (load, solve, reconcile,
//!   ledger, JSONL, `serve_stream`, `Daemon::recover`). Each command's
//!   span is the time attributed to layers for that command; its CLI
//!   wall time minus that span is its share of `cli.unattributed_s`.
//! * the **breakdown**: each layer's public functions called one by one
//!   on the workload's primary trace, so a layer that the solvers call
//!   internally (Phase 1, subsequence scans, per-item DPs) gets its own
//!   number.
//!
//! One invocation is one iteration; `perfbench/run.py --trace 1`
//! alternates it with timed CLI passes and reports medians.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dp_greedy_suite::correlation::{
    greedy_matching, JaccardMatrix, Phase1Stats, StreamingCooccurrence,
};
use dp_greedy_suite::dp_greedy::two_phase::{dp_greedy_pair, DpGreedyConfig};
use dp_greedy_suite::engine::{find, RunContext, Solution};
use dp_greedy_suite::model::defaults::{default_model, DEFAULT_THETA};
use dp_greedy_suite::model::json::{self, Json};
use dp_greedy_suite::model::{ItemId, RequestSeq};
use dp_greedy_suite::offline::{greedy::greedy, optimal};
use dp_greedy_suite::online::ski_rental;
use dp_greedy_suite::serve::protocol::parse_line;
use dp_greedy_suite::serve::{serve_stream, Admission, Daemon, Frame, ServeConfig};
use dp_greedy_suite::trace::io::TraceFile;

use crate::inputs::{self, InputSpec, SERVE_EPOCH_LEN};

/// Every solver the workloads run; each gets `engine.solve_s.<name>`
/// and `engine.reconcile_gap.<name>`.
const SOLVERS: [&str; 7] = [
    "dp_greedy",
    "optimal",
    "greedy",
    "package_served",
    "ski_rental",
    "dpg_k",
    "multi",
];
/// `dpg_k`'s package cap, as the `wide_catalog` command passes it.
const DPG_K_MAX_GROUP: usize = 4;
/// The fill's epoch length: longer than any stream, so nothing settles.
const FILL_EPOCH_LEN: usize = 1_000_000;
/// Requests of the primary trace written as JSON for the JSON layer on
/// workloads whose commands never parse a JSON trace (the parser is
/// quadratic; a whole wide trace would take minutes).
const JSON_PROBE_REQUESTS: usize = 2_048;
/// Requests of the wide trace driven through the epoch-by-epoch daemon:
/// eight epochs. Each settle runs Phase 1 over the 1000-item catalog and
/// each checkpoint holds its ~500k observed pairs, so the whole trace
/// would take minutes.
const WIDE_SERVE_REQUESTS: usize = 8 * SERVE_EPOCH_LEN;

/// One recorded span; times are seconds since the tracer started.
struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Spans kept in memory and written out once, at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; returns its value and the
    /// span's duration in seconds.
    fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let idx = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans[idx].end = end;
        (out, end - start)
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
            let line = Json::Obj(vec![
                ("id".into(), Json::Num(id as f64)),
                ("name".into(), Json::Str(s.name.clone())),
                ("start_s".into(), Json::Num(s.start)),
                ("end_s".into(), Json::Num(s.end)),
                ("parent".into(), parent),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

type Metrics = BTreeMap<String, f64>;

fn put(m: &mut Metrics, name: &str, value: f64) {
    m.insert(name.to_string(), value);
}

fn ctx(max_group: usize) -> RunContext {
    RunContext::new(default_model())
        .with_theta(DEFAULT_THETA)
        .with_max_group(max_group)
}

fn max_group(solver: &str) -> usize {
    if solver == "dpg_k" {
        DPG_K_MAX_GROUP
    } else {
        2
    }
}

fn load(path: &Path) -> Result<RequestSeq, String> {
    TraceFile::load(path)
        .map(|f| f.sequence)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn load_span(path: &Path) -> &'static str {
    if path.extension().is_some_and(|e| e == "json") {
        "trace.load_json"
    } else {
        "trace.load_dpgb"
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank - 1]
}

fn serve_cfg(dir: &Path, epoch_len: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(dir.to_path_buf());
    cfg.quiet = true;
    cfg.epoch_len = epoch_len;
    cfg
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())
}

/// What one iteration learns about the primary trace from the mirror,
/// so the breakdown does not solve it twice.
#[derive(Default)]
struct Primary {
    /// Solve seconds per solver on the primary trace.
    solved: BTreeMap<&'static str, f64>,
    /// (ledger seconds, events, JSONL seconds, JSONL bytes) of the
    /// dp_greedy ledger, when the mirror exported it.
    ledger: Option<(f64, usize, f64, u64)>,
    /// (recover seconds, replayed) of the mirror's restarts.
    recover: Vec<(f64, u64)>,
}

/// The workload's inputs, as the traced run sees them.
struct Workload {
    name: String,
    dir: PathBuf,
    /// Spec of the primary trace, the one the breakdown runs on.
    primary: InputSpec,
    /// The primary trace as DPGB.
    primary_dpgb: PathBuf,
    /// The JSON file of the JSON layer.
    json: PathBuf,
    /// Requests of the primary trace driven through the daemon.
    serve_requests: usize,
}

/// Re-enacts `dpg run --algo SOLVER FILE`: load, solve, reconcile.
fn mirror_run(
    tr: &mut Tracer,
    m: &mut Metrics,
    p: &mut Primary,
    w: &Workload,
    solver: &'static str,
    file: &str,
) -> Result<f64, String> {
    let path = w.dir.join(file);
    let (res, secs) = tr.span(format!("cli.run.{solver}.{file}"), |tr| {
        let seq = tr.span(load_span(&path), |_| load(&path)).0?;
        let (sol, solve_s) = tr.span(format!("engine.solve.{solver}"), |_| {
            find(solver)
                .expect("registered solver")
                .solve(&seq, &ctx(max_group(solver)))
        });
        let gap = tr.span("engine.reconcile", |_| sol.reconciliation_gap()).0;
        note_gap(m, solver, gap);
        if path == w.primary_dpgb {
            p.solved.insert(solver, solve_s);
        }
        Ok::<_, String>(())
    });
    res.map(|()| secs)
}

fn note_gap(m: &mut Metrics, solver: &str, gap: f64) {
    let slot = m
        .entry(format!("engine.reconcile_gap.{solver}"))
        .or_insert(0.0);
    *slot = slot.max(gap);
}

/// Derives, checks, and exports a solution's ledger, as `dpg trace solve`
/// does. Returns (ledger seconds, events, JSONL seconds, JSONL bytes).
fn export_ledger(
    tr: &mut Tracer,
    sol: &Solution,
    out: &Path,
) -> Result<(f64, usize, f64, u64), String> {
    let (ledger, ledger_s) = tr.span("engine.ledger", |_| sol.ledger());
    let derived = ledger.total_cost();
    if (derived - sol.total_cost).abs() > 1e-6 {
        return Err(format!(
            "ledger does not reconcile: {derived} vs {}",
            sol.total_cost
        ));
    }
    let (written, jsonl_s) = tr.span("obs.jsonl", |_| {
        std::fs::write(out, ledger.to_jsonl_string())
    });
    written.map_err(|e| e.to_string())?;
    Ok((ledger_s, ledger.len(), jsonl_s, file_len(out)))
}

/// Re-enacts `dpg trace solve FILE --algo dp_greedy --out OUT`.
fn mirror_trace_solve(tr: &mut Tracer, p: &mut Primary, w: &Workload) -> Result<f64, String> {
    let path = w.primary_dpgb.clone();
    let out = w.dir.join("trace_ledger.jsonl");
    let (res, secs) = tr.span("cli.trace_solve.dp_greedy", |tr| {
        let seq = tr.span(load_span(&path), |_| load(&path)).0?;
        let sol = tr
            .span("engine.solve.dp_greedy", |_| {
                find("dp_greedy").expect("registered").solve(&seq, &ctx(2))
            })
            .0;
        export_ledger(tr, &sol, &out)
    });
    p.ledger = Some(res?);
    Ok(secs)
}

/// Re-enacts `dpg serve --dir DIR --input FILE` (from a fresh DIR).
fn mirror_serve(
    tr: &mut Tracer,
    w: &Workload,
    input: &str,
    dir: &str,
    epoch_len: usize,
) -> Result<f64, String> {
    let dir = w.dir.join(dir);
    fresh_dir(&dir)?;
    let path = w.dir.join(input);
    let (res, secs) = tr.span(format!("cli.serve.{input}"), |tr| {
        let file = std::fs::File::open(&path).map_err(|e| e.to_string())?;
        tr.span("serve.stream", |_| {
            serve_stream(serve_cfg(&dir, epoch_len), BufReader::new(file))
        })
        .0
        .map_err(|e| e.to_string())
    });
    res.map(|_| secs)
}

/// Re-enacts `dpg serve --dir DIR --dump-state`: a full recovery, then
/// the canonical state rendered.
fn mirror_dump(
    tr: &mut Tracer,
    p: &mut Primary,
    w: &Workload,
    dir: &str,
    epoch_len: usize,
) -> Result<f64, String> {
    let (res, secs) = tr.span(format!("cli.dump_state.{dir}"), |tr| {
        let dir = w.dir.join(dir);
        let (daemon, recover_s) = tr.span("serve.recover", |_| {
            Daemon::recover(serve_cfg(&dir, epoch_len))
        });
        let daemon = daemon
            .map_err(|e| e.to_string())?
            .ok_or("no serving state to recover")?;
        black_box(daemon.current_state().canonical_json());
        Ok::<_, String>((recover_s, daemon.summary().replayed))
    });
    let (recover_s, replayed) = res?;
    if epoch_len == FILL_EPOCH_LEN {
        p.recover.push((recover_s, replayed));
    }
    Ok(secs)
}

/// The workload's `dpg` commands, in `perfbench/run.py`'s order. Returns
/// each command's mirror span in seconds, under run.py's command name.
fn mirror(
    tr: &mut Tracer,
    m: &mut Metrics,
    p: &mut Primary,
    w: &Workload,
) -> Result<BTreeMap<String, f64>, String> {
    let mut cmds = BTreeMap::new();
    match w.name.as_str() {
        "offline_taxi" => {
            for solver in ["dp_greedy", "optimal", "greedy", "package_served"] {
                let secs = mirror_run(tr, m, p, w, solver, "main.dpgb")?;
                cmds.insert(format!("main_{solver}"), secs);
            }
            cmds.insert("main_trace_solve".into(), mirror_trace_solve(tr, p, w)?);
            for format in ["json", "dpgb"] {
                let secs = mirror_run(tr, m, p, w, "dp_greedy", &format!("small.{format}"))?;
                cmds.insert(format!("small_{format}"), secs);
            }
            for solver in ["greedy", "ski_rental"] {
                let secs = mirror_run(tr, m, p, w, solver, "probe.dpgb")?;
                cmds.insert(format!("probe_{solver}"), secs);
            }
        }
        "wide_catalog" => {
            for solver in ["dp_greedy", "dpg_k", "multi", "optimal"] {
                let secs = mirror_run(tr, m, p, w, solver, "wide.dpgb")?;
                cmds.insert(format!("wide_{solver}"), secs);
            }
        }
        "serve_stream" => {
            let secs = mirror_serve(tr, w, "stream.txt", "trace_served", SERVE_EPOCH_LEN)?;
            cmds.insert("serve_stream".into(), secs);
            let secs = mirror_dump(tr, p, w, "trace_served", SERVE_EPOCH_LEN)?;
            cmds.insert("serve_dump".into(), secs);
            let secs = mirror_serve(tr, w, "fill.txt", "trace_filled", FILL_EPOCH_LEN)?;
            cmds.insert("serve_fill".into(), secs);
            for i in 1..=2 {
                let secs = mirror_dump(tr, p, w, "trace_filled", FILL_EPOCH_LEN)?;
                cmds.insert(format!("serve_restart{i}"), secs);
            }
        }
        other => return Err(format!("unknown workload {other}")),
    }
    Ok(cmds)
}

/// Each layer's public functions, called one by one on the primary trace.
fn breakdown(tr: &mut Tracer, m: &mut Metrics, p: &Primary, w: &Workload) -> Result<(), String> {
    let model = default_model();
    let theta = DEFAULT_THETA;

    // trace
    let (_, s) = tr.span("trace.generate", |_| black_box(w.primary.generate()));
    put(m, "trace.generate_s", s);
    let (seq, s) = tr.span("trace.load_dpgb", |_| load(&w.primary_dpgb));
    let seq = seq?;
    put(m, "trace.load_dpgb_s", s);
    let (loaded, s) = tr.span("trace.load_json", |_| load(&w.json));
    loaded?;
    put(m, "trace.load_json_s", s);

    // model: JSON parse alone, then the per-item and per-pair scans.
    let text = std::fs::read_to_string(&w.json).map_err(|e| e.to_string())?;
    let (parsed, s) = tr.span("model.json_parse", |_| json::parse(&text));
    parsed.map_err(|e| e.msg)?;
    put(m, "model.json_parse_s", s);
    put(m, "model.json_mb_per_s", text.len() as f64 / 1e6 / s);

    // correlation: Phase 1 as dp_greedy runs it, then K-grouping.
    let (matrix, s) = tr.span("correlation.jaccard", |_| {
        JaccardMatrix::from_sequence(&seq)
    });
    put(m, "correlation.jaccard_s", s);
    let (packing, s) = tr.span("correlation.match", |_| greedy_matching(&matrix, theta));
    put(m, "correlation.match_s", s);
    let observed = matrix.pairs().iter().filter(|p| p.2 > 0.0).count();
    put(m, "correlation.pairs_observed", observed as f64);
    put(m, "correlation.pairs_packed", packing.pairs.len() as f64);
    let (_, s) = tr.span("correlation.group", |_| {
        black_box(Phase1Stats::from_sequence(&seq).k_packages(theta, DPG_K_MAX_GROUP))
    });
    put(m, "correlation.group_s", s);

    let items: Vec<ItemId> = (0..seq.items()).map(ItemId).collect();
    let (traces, s) = tr.span("model.item_traces", |_| {
        items.iter().map(|&i| seq.item_trace(i)).collect::<Vec<_>>()
    });
    put(m, "model.item_traces_s", s);
    let (_, s) = tr.span("model.pair_views", |_| {
        for &(a, b) in &packing.pairs {
            black_box(seq.pair_view(a, b));
            black_box(seq.package_trace(a, b));
        }
    });
    put(m, "model.pair_views_s", s);
    let n = seq.requests().len() as f64;
    put(
        m,
        "model.requests_scanned",
        n * (items.len() + 2 * packing.pairs.len()) as f64,
    );

    // offline / online: the per-item algorithms over prebuilt traces.
    let (_, s) = tr.span("offline.optimal", |_| {
        traces.iter().map(|t| optimal(t, &model).cost).sum::<f64>()
    });
    put(m, "offline.optimal_s", s);
    put(
        m,
        "offline.optimal_points",
        traces.iter().map(|t| t.len()).sum::<usize>() as f64,
    );
    let (_, s) = tr.span("offline.greedy", |_| {
        traces.iter().map(|t| greedy(t, &model).cost).sum::<f64>()
    });
    put(m, "offline.greedy_s", s);
    let (_, s) = tr.span("online.ski_rental", |_| {
        traces
            .iter()
            .map(|t| ski_rental(t, &model).cost)
            .sum::<f64>()
    });
    put(m, "online.ski_rental_s", s);

    // core: DP_Greedy's Phase 2 over Phase 1's packing.
    let config = DpGreedyConfig::new(model).with_theta(theta);
    let (_, s) = tr.span("core.phase2_pairs", |_| {
        for &(a, b) in &packing.pairs {
            black_box(dp_greedy_pair(&seq, a, b, &config));
        }
    });
    put(m, "core.phase2_pairs_s", s);
    let (_, s) = tr.span("core.phase2_singletons", |_| {
        for &item in &packing.singletons {
            black_box(optimal(&seq.item_trace(item), &model));
        }
    });
    put(m, "core.phase2_singletons_s", s);

    // engine: every solver on the primary trace (reusing the mirror's
    // solves), then the dp_greedy ledger and its JSONL export.
    let mut dpg_solution = None;
    for solver in SOLVERS {
        let secs = match p.solved.get(solver) {
            Some(&secs) => secs,
            None => {
                let (sol, secs) = tr.span(format!("engine.solve.{solver}"), |_| {
                    find(solver)
                        .expect("registered solver")
                        .solve(&seq, &ctx(max_group(solver)))
                });
                note_gap(m, solver, sol.reconciliation_gap());
                if solver == "dp_greedy" {
                    dpg_solution = Some(sol);
                }
                secs
            }
        };
        put(m, &format!("engine.solve_s.{solver}"), secs);
    }
    let (ledger_s, events, jsonl_s, bytes) = match p.ledger {
        Some(l) => l,
        None => {
            let sol = dpg_solution
                .unwrap_or_else(|| find("dp_greedy").expect("registered").solve(&seq, &ctx(2)));
            export_ledger(tr, &sol, &w.dir.join("layer_ledger.jsonl"))?
        }
    };
    put(m, "engine.ledger_s", ledger_s);
    put(m, "engine.ledger_events", events as f64);
    put(m, "obs.jsonl_s", jsonl_s);
    put(m, "obs.jsonl_mb", bytes as f64 / 1e6);

    // correlation: the daemon's per-request streaming update.
    let mut observe = Vec::with_capacity(seq.requests().len());
    tr.span("correlation.observe", |_| {
        let mut stream = StreamingCooccurrence::new(1.0);
        for r in seq.requests() {
            let t0 = Instant::now();
            stream.observe(r);
            observe.push(micros(t0.elapsed()));
        }
    });
    put(
        m,
        "correlation.observe_us.p50",
        percentile(&mut observe, 50.0),
    );

    serve_layer(tr, m, p, w, &seq)
}

/// The serving layer: protocol parse, admissions through a daemon that
/// settles every `SERVE_EPOCH_LEN` requests, settle solves, checkpoints, WAL bytes, and a restart.
fn serve_layer(
    tr: &mut Tracer,
    m: &mut Metrics,
    p: &Primary,
    w: &Workload,
    seq: &RequestSeq,
) -> Result<(), String> {
    let stream_text = inputs::lines(seq);
    let (frames, s) = tr.span("serve.parse", |_| {
        stream_text
            .lines()
            .enumerate()
            .map(|(i, line)| parse_line(line, i + 1))
            .collect::<Result<Vec<_>, _>>()
    });
    let frames = frames.map_err(|e| e.to_string())?;
    put(m, "serve.parse_s", s);
    let reqs: Vec<(f64, u32, Vec<ItemId>)> = frames
        .into_iter()
        .filter_map(|f| match f {
            Some(Frame::Req {
                time,
                server,
                items,
            }) => Some((time, server.0, items)),
            _ => None,
        })
        .collect();

    let dir = w.dir.join("trace_daemon");
    let ckpt_dir = w.dir.join("trace_checkpoints");
    fresh_dir(&dir)?;
    fresh_dir(&ckpt_dir)?;
    let (mut admit, mut close, mut ckpt) = (Vec::new(), Vec::new(), Vec::new());
    // The admitted requests, which the daemon's epochs are cut from; the
    // daemon turns away item sets above its admission cap.
    let mut settled = Vec::new();
    let driven = &reqs[..w.serve_requests.min(reqs.len())];
    let res = tr.span("serve.admit", |_| {
        let mut d = Daemon::fresh(serve_cfg(&dir, SERVE_EPOCH_LEN), seq.servers(), seq.items())
            .map_err(|e| e.to_string())?;
        let mut admitted = 0usize;
        for ((time, server, items), request) in driven.iter().zip(seq.requests()) {
            let t0 = Instant::now();
            let admission = d
                .admit(*time, (*server).into(), items.clone())
                .map_err(|e| e.to_string())?;
            let us = micros(t0.elapsed());
            if admission != Admission::Admitted {
                continue;
            }
            settled.push(request.clone());
            admitted += 1;
            if admitted.is_multiple_of(SERVE_EPOCH_LEN) {
                close.push(us);
                let state = d.current_state();
                let t0 = Instant::now();
                state.save(&ckpt_dir).map_err(|e| e.to_string())?;
                ckpt.push(micros(t0.elapsed()));
            } else {
                admit.push(us);
            }
        }
        Ok::<_, String>(())
    });
    res.0?;
    put(m, "serve.admit_us.p50", percentile(&mut admit, 50.0));
    put(m, "serve.admit_us.p99", percentile(&mut admit, 99.0));
    put(m, "serve.epoch_close_us.p50", percentile(&mut close, 50.0));
    put(m, "serve.epoch_close_us.p99", percentile(&mut close, 99.0));
    put(m, "serve.checkpoint_us.p50", percentile(&mut ckpt, 50.0));
    put(
        m,
        "serve.checkpoint_kb",
        file_len(&dir.join("checkpoint.json")) as f64 / 1024.0,
    );
    let wal: u64 = std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .map(|e| e.metadata().map_or(0, |m| m.len()))
        .sum();
    put(m, "serve.wal_mb", wal as f64 / 1e6);

    // The settle solves alone, on the same epoch slices.
    let solver = find("dp_greedy").expect("registered");
    let base = inputs::serve_ctx();
    let settled = inputs::subsequence(seq, &settled, 0.0)?;
    let slices = inputs::epoch_slices(&settled, SERVE_EPOCH_LEN, false)?;
    let mut settle = Vec::new();
    tr.span("serve.settle_solve", |_| {
        for (epoch, slice) in slices.iter().enumerate() {
            let ctx = base.for_epoch(epoch as u64);
            let t0 = Instant::now();
            black_box(solver.solve(slice, &ctx));
            settle.push(micros(t0.elapsed()));
        }
    });
    put(
        m,
        "serve.settle_solve_us.p50",
        percentile(&mut settle, 50.0),
    );

    // A restart replaying a WAL tail: the mirror's, or a fill of the
    // primary trace into one never-settled epoch.
    let (recover_s, replayed) = if p.recover.is_empty() {
        let fill = w.dir.join("trace_fill");
        fresh_dir(&fill)?;
        tr.span("serve.fill", |_| {
            let mut d = Daemon::fresh(serve_cfg(&fill, FILL_EPOCH_LEN), seq.servers(), seq.items())
                .map_err(|e| e.to_string())?;
            for (time, server, items) in &reqs {
                d.admit(*time, (*server).into(), items.clone())
                    .map_err(|e| e.to_string())?;
            }
            Ok::<_, String>(())
        })
        .0?;
        let (d, s) = tr.span("serve.recover", |_| {
            Daemon::recover(serve_cfg(&fill, FILL_EPOCH_LEN))
        });
        let d = d.map_err(|e| e.to_string())?.ok_or("fill left no state")?;
        (s, d.summary().replayed)
    } else {
        let mut times: Vec<f64> = p.recover.iter().map(|r| r.0).collect();
        (percentile(&mut times, 50.0), p.recover[0].1)
    };
    put(m, "serve.recover_s", recover_s);
    put(m, "serve.replayed", replayed as f64);
    Ok(())
}

/// Prepares the traced run's extra inputs: the primary trace as DPGB
/// and the JSON layer's file, where the workload has none of its own.
fn prepare(workload: &str, seed: u64, dir: &Path) -> Result<Workload, String> {
    let specs = inputs::specs(workload, seed)?;
    let primary_name = match workload {
        "offline_taxi" => "main",
        "wide_catalog" => "wide",
        _ => "stream",
    };
    let primary = specs
        .into_iter()
        .find(|s| s.name == primary_name)
        .ok_or("no primary trace")?;
    let primary_dpgb = dir.join(format!("{primary_name}.dpgb"));
    let seq = primary.generate();
    if !primary_dpgb.exists() {
        TraceFile::synthetic(primary.config(), seq.clone())
            .save_binary(&primary_dpgb)
            .map_err(|e| e.to_string())?;
    }
    let json = if workload == "offline_taxi" {
        dir.join("small.json")
    } else {
        let head = &seq.requests()[..JSON_PROBE_REQUESTS.min(seq.requests().len())];
        let prefix = inputs::subsequence(&seq, head, 0.0)?;
        let path = dir.join("json_probe.json");
        TraceFile::external(prefix)
            .save(&path)
            .map_err(|e| e.to_string())?;
        path
    };
    let serve_requests = if workload == "wide_catalog" {
        WIDE_SERVE_REQUESTS
    } else {
        seq.requests().len()
    };
    Ok(Workload {
        name: workload.to_string(),
        dir: dir.to_path_buf(),
        primary,
        primary_dpgb,
        json,
        serve_requests,
    })
}

/// The `trace` subcommand: one iteration (mirror, then breakdown). Prints
/// every metric, each command's mirror span in seconds, and the spans file.
pub fn run(workload: &str, seed: u64, dir: &Path) -> Result<Json, String> {
    let w = prepare(workload, seed, dir)?;
    let mut tr = Tracer::new();
    let mut m = Metrics::new();
    let mut p = Primary::default();
    let commands = tr.span("mirror", |tr| mirror(tr, &mut m, &mut p, &w)).0?;
    tr.span("breakdown", |tr| breakdown(tr, &mut m, &p, &w)).0?;
    let spans_file = dir.join("spans.jsonl");
    tr.write_jsonl(&spans_file).map_err(|e| e.to_string())?;
    let metrics = m.into_iter().map(|(k, v)| (k, Json::Num(v))).collect();
    Ok(Json::Obj(vec![
        ("metrics".into(), Json::Obj(metrics)),
        (
            "commands".into(),
            Json::Obj(
                commands
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v)))
                    .collect(),
            ),
        ),
        (
            "spans_file".into(),
            Json::Str(spans_file.display().to_string()),
        ),
    ]))
}
