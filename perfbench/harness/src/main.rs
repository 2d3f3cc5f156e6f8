//! `perfbench` — the compiled half of the dpg end-to-end benchmark.
//!
//! ```text
//! perfbench gen    --workload W --seed N --dir D   # time one set-up, write the inputs
//! perfbench expect --workload W --seed N --dir D   # independent expected values
//! perfbench trace  --workload W --seed N --dir D   # one iteration of in-process layer timings
//! perfbench exec   REPORT -- PROGRAM ARGS...       # run one command, report time and peak RSS
//! ```
//!
//! `perfbench/run.py` drives it; the end-to-end numbers come from the
//! `dpg` release binary, never from this process.

mod exec;
mod inputs;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dp_greedy_suite::engine::find;
use dp_greedy_suite::model::json::Json;

struct Args {
    cmd: String,
    workload: String,
    seed: u64,
    dir: PathBuf,
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().cloned().ok_or("missing subcommand")?;
    let workload = flag(&args, "--workload").ok_or("missing --workload")?;
    let seed = flag(&args, "--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let dir = PathBuf::from(flag(&args, "--dir").ok_or("missing --dir")?);
    Ok(Args {
        cmd,
        workload,
        seed,
        dir,
    })
}

/// Generates every input of the workload and renders it with the
/// program's writers into memory, timing that round as `setup_s`, so
/// the figure times the program's generator and writers, not process
/// start-up or the disk. Then writes each input missing from the work
/// directory, and `manifest.json`. Prints the inputs' make-up and
/// `setup_s`. The inputs are a function of the seed, so a second call
/// finds them all written and only times another round.
fn gen(args: &Args) -> Result<Json, String> {
    std::fs::create_dir_all(&args.dir).map_err(|e| e.to_string())?;
    let specs = inputs::specs(&args.workload, args.seed)?;
    let t0 = Instant::now();
    let (mut seqs, mut files) = (Vec::new(), Vec::new());
    for spec in &specs {
        let seq = spec.generate();
        files.extend(inputs::render(spec, seq.clone())?);
        seqs.push(seq);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    for (name, bytes) in &files {
        let path = args.dir.join(name);
        if !path.exists() {
            std::fs::write(path, bytes).map_err(|e| format!("{name}: {e}"))?;
        }
    }
    let facts = specs
        .iter()
        .zip(&seqs)
        .map(|(spec, seq)| (spec.name.to_string(), inputs::facts(spec, seq, &args.dir)))
        .collect();
    let manifest = Json::Obj(facts);
    std::fs::write(args.dir.join("manifest.json"), manifest.to_string_pretty())
        .map_err(|e| e.to_string())?;
    Ok(Json::Obj(vec![
        ("inputs".into(), manifest),
        ("setup_s".into(), Json::Num(setup_s)),
    ]))
}

/// Values the serve_stream checks compare the daemon against, recomputed
/// in-process from the generated stream: each epoch's slice of
/// `epoch_len` requests is priced by the registry solver under the
/// epoch's `RunContext::for_epoch` context, and the costs are summed in
/// epoch order, as the daemon accumulates `cum_cost`. Two sums are
/// given: `cum_cost` over slices with absolute request times, which is
/// how the daemon builds them today, and `cum_cost_rebased` over slices
/// whose times start from each epoch's start, which is how it would price
/// them if its epochs did not carry the time before them.
fn expect(args: &Args) -> Result<Json, String> {
    let spec = inputs::specs(&args.workload, args.seed)?
        .into_iter()
        .find(|s| s.name == "stream")
        .ok_or("expect: the workload has no stream")?;
    let seq = spec.generate();
    let solver = find("dp_greedy").ok_or("dp_greedy is not registered")?;
    let base = inputs::serve_ctx();
    let cum_cost = |rebase| -> Result<f64, String> {
        let slices = inputs::epoch_slices(&seq, inputs::SERVE_EPOCH_LEN, rebase)?;
        Ok(slices
            .iter()
            .enumerate()
            .map(|(epoch, slice)| {
                solver
                    .solve(slice, &base.for_epoch(epoch as u64))
                    .total_cost
            })
            .fold(0.0, |sum, cost| sum + cost))
    };
    let epochs = seq.requests().len() / inputs::SERVE_EPOCH_LEN;
    let settled_accesses: usize = seq.requests()[..epochs * inputs::SERVE_EPOCH_LEN]
        .iter()
        .map(|r| r.items.len())
        .sum();
    Ok(Json::Obj(vec![
        ("requests".into(), Json::Num(seq.requests().len() as f64)),
        (
            "epoch_len".into(),
            Json::Num(inputs::SERVE_EPOCH_LEN as f64),
        ),
        ("epochs".into(), Json::Num(epochs as f64)),
        (
            "settled_accesses".into(),
            Json::Num(settled_accesses as f64),
        ),
        ("cum_cost".into(), Json::Num(cum_cost(false)?)),
        ("cum_cost_rebased".into(), Json::Num(cum_cost(true)?)),
    ]))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).is_some_and(|c| c == "exec") {
        return exec::run(&argv[2..]);
    }
    let result = parse_args().and_then(|args| match args.cmd.as_str() {
        "gen" => gen(&args),
        "expect" => expect(&args),
        "trace" => trace::run(&args.workload, args.seed, &args.dir),
        other => Err(format!("unknown subcommand {other}")),
    });
    match result {
        Ok(doc) => {
            println!("{}", doc.to_string_pretty());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
