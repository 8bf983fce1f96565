//! `pdo-benchmark`: one end-to-end, layer-attributed benchmark for the
//! whole pdo stack. See `benchmark/README.md`; run through
//! `benchmark/run.sh`.
//!
//! Modes:
//!
//! - `--workload W --seed N --seconds S --trace 0|1` — one driver run; the
//!   last stdout line is the result object;
//! - no `--workload` — the full run: every workload, untraced slices in
//!   three interleaved passes, then the traced pass; writes
//!   `<out>/results.json` and `<out>/trace_<workload>.jsonl`;
//! - `--smoke` — every workload, two short slices and a token ladder, all
//!   output checks; non-zero exit on any failure;
//! - `--aa N` — two interleaved sets of N driver runs per workload, each
//!   with its own seed; prints spreads and A/B drift beside the bounds;
//! - `--manifest` — prints `BENCHMARK.json`;
//! - `--describe` — prints the workload and metric glossary as Markdown.

mod alloc;
mod harness;
mod json;
mod metrics;
mod mux;
mod programs;
mod rng;
mod span;
mod stats;
mod workloads;

use harness::{prepare, Measured, Shape};
use json::RunResult;
use metrics::{Better, END_TO_END, RUN_SECONDS, WORKLOADS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
    manifest: bool,
    describe: bool,
    out: PathBuf,
    rustc: String,
    git_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        aa: None,
        manifest: false,
        describe: false,
        out: PathBuf::from("benchmark/out"),
        rustc: "unknown".to_string(),
        git_rev: "none".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.iter().any(|d| d.name == w) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|d| d.name).collect();
                    return Err(format!("unknown workload {w:?}; one of {names:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--aa" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--aa: {e}"))?;
                if n < 2 {
                    return Err("--aa needs at least 2 runs per set".to_string());
                }
                a.aa = Some(n);
            }
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--rustc" => a.rustc = value("a version string")?,
            "--git-rev" => a.git_rev = value("a revision")?,
            "--smoke" => a.smoke = true,
            "--manifest" => a.manifest = true,
            "--describe" => a.describe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pdo-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = metrics::check_tables() {
        eprintln!("pdo-benchmark: metric tables are inconsistent: {e}");
        return ExitCode::from(2);
    }
    if args.manifest {
        print!("{}", metrics::manifest_json());
        return ExitCode::SUCCESS;
    }
    if args.describe {
        print!("{}", metrics::glossary_markdown());
        return ExitCode::SUCCESS;
    }
    alloc::claim_bench_thread();
    let ok = if let Some(n) = args.aa {
        aa(&args, n)
    } else if args.smoke {
        smoke(&args)
    } else if let Some(w) = &args.workload {
        single(&args, w)
    } else {
        full(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_rows(title: &str, r: &RunResult) {
    println!("-- {title}");
    for (name, value, unit) in &r.metrics {
        println!("{name:<36} {value:>18.4} {unit}");
    }
}

/// The traced pass's spans, summed by the call they wrap.
fn print_spans(tr: &span::Tracer) {
    println!("-- spans (layer.name: spans, counted work, total, self, max)");
    for ((layer, name), a) in tr.aggregates() {
        println!(
            "{:<36} {:>9} {:>12} {:>12.3} ms {:>12.3} ms {:>9.3} ms",
            format!("{layer}.{name}"),
            a.spans,
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6,
            a.max_ns as f64 / 1e6,
        );
    }
}

fn print_failures(name: &str, failures: &[String]) {
    for f in failures {
        println!("CHECK FAILED [{name}]: {f}");
    }
}

fn write_trace(out: &Path, name: &str, tr: &span::Tracer) {
    if let Err(e) = std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(out.join(format!("trace_{name}.jsonl")), tr.to_jsonl()))
    {
        eprintln!("pdo-benchmark: cannot write trace for {name}: {e}");
    }
}

/// One driver run: one workload, one pass, result object on the last line.
fn single(args: &Args, name: &str) -> bool {
    let shape = Shape::standard(args.seconds.unwrap_or(RUN_SECONDS as f64));
    let mut ready = prepare(name, args.seed, &shape);
    let result = if args.trace {
        let (result, tr) = ready.per_layer(&shape);
        write_trace(&args.out, name, &tr);
        print_spans(&tr);
        result
    } else {
        ready.end_to_end(&shape)
    };
    print_rows(
        &format!(
            "{name} seed={} seconds={} trace={}",
            args.seed,
            shape.seconds,
            u8::from(args.trace)
        ),
        &result,
    );
    print_failures(name, &ready.failures);
    println!("{}", result.to_json());
    result.correct
}

/// Every workload, briefly, with every output check.
fn smoke(args: &Args) -> bool {
    let shape = Shape::smoke();
    let mut ok = true;
    for w in WORKLOADS {
        let mut ready = prepare(w.name, args.seed, &shape);
        let e2e = ready.end_to_end(&shape);
        let (layers, tr) = ready.per_layer(&shape);
        write_trace(&args.out, w.name, &tr);
        let good = e2e.correct && layers.correct;
        println!(
            "{:<14} {} ops={} failed={} ops_per_s={:.0} spans={}",
            w.name,
            if good { "ok  " } else { "FAIL" },
            e2e.attempted,
            e2e.failed + layers.failed,
            e2e.value("ops_per_s").unwrap_or(0.0),
            tr.spans().len(),
        );
        print_failures(w.name, &ready.failures);
        ok &= good;
    }
    println!("smoke: {}", if ok { "passed" } else { "FAILED" });
    ok
}

/// The full run: three interleaved untraced passes over all workloads,
/// then the traced pass.
fn full(args: &Args) -> bool {
    const PASSES: usize = 3;
    let seconds = args.seconds.unwrap_or(18.0);
    let shape = Shape::standard(seconds);
    let per_pass = shape.slices(1.0).div_ceil(PASSES);
    println!(
        "pdo-benchmark full run: seed={} {} slices x {} passes per workload, rustc={}, git={}",
        args.seed, per_pass, PASSES, args.rustc, args.git_rev
    );
    let mut readies: Vec<_> = WORKLOADS
        .iter()
        .map(|w| {
            let r = prepare(w.name, args.seed, &shape);
            println!("prepared {:<14} in {:.4} s", w.name, r.setup_times[0]);
            r
        })
        .collect();
    let mut measured: Vec<Measured> = WORKLOADS.iter().map(|_| Measured::default()).collect();
    let cost_before: Vec<u64> = readies.iter_mut().map(|r| r.cost_units()).collect();
    for pass in 0..PASSES {
        for (r, m) in readies.iter_mut().zip(&mut measured) {
            r.measure(per_pass, &shape, m);
        }
        println!("pass {} of {PASSES} done", pass + 1);
    }
    let traced_shape = Shape::standard(5.0);
    let mut ok = true;
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\n  \"seed\": {},\n  \"rustc\": \"{}\",\n  \"git_rev\": \"{}\",\n  \"host_cores\": {},\n  \"workloads\": {{\n",
        args.seed,
        json::escape(&args.rustc),
        json::escape(&args.git_rev),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    for (i, ((r, m), before)) in readies
        .iter_mut()
        .zip(&measured)
        .zip(cost_before)
        .enumerate()
    {
        let e2e = r.finish_end_to_end(m, before);
        let (layers, tr) = r.per_layer(&traced_shape);
        write_trace(&args.out, &r.name, &tr);
        println!("\n== {} ({} slices)", r.name, m.rates.len());
        print_rows("end to end (untraced)", &e2e);
        print_rows("per layer (traced)", &layers);
        print_spans(&tr);
        print_failures(&r.name, &r.failures);
        ok &= e2e.correct && layers.correct;
        let _ = writeln!(
            doc,
            "    \"{}\": {{\"end_to_end\": {}, \"per_layer\": {}}}{}",
            r.name,
            e2e.to_json(),
            layers.to_json(),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    doc.push_str("  }\n}\n");
    let path = args.out.join("results.json");
    match std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("pdo-benchmark: cannot write {}: {e}", path.display()),
    }
    println!(
        "full run: {}",
        if ok {
            "every check passed"
        } else {
            "CHECKS FAILED"
        }
    );
    ok
}

/// Runs this binary as a driver would and parses its result line.
fn child_run(workload: &str, seed: u64, seconds: f64, out: &Path) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--out")
        .arg(out)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = RunResult::from_json(last)
        .map_err(|e| format!("{workload} seed {seed}: no result line ({e})"))?;
    if !output.status.success() || !result.correct {
        return Err(format!("{workload} seed {seed}: run failed:\n{stdout}"));
    }
    Ok(result)
}

/// Two interleaved sets of `n` driver runs per workload, every run on its
/// own seed, compared the way the acceptance procedure compares them.
fn aa(args: &Args, n: usize) -> bool {
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    // runs[workload][set] = results
    let mut runs: Vec<[Vec<RunResult>; 2]> =
        names.iter().map(|_| [Vec::new(), Vec::new()]).collect();
    for i in 0..n {
        for (w, name) in names.iter().enumerate() {
            for (set, results) in runs[w].iter_mut().enumerate() {
                let seed = args.seed + (set * n + i) as u64;
                match child_run(name, seed, seconds, &args.out) {
                    Ok(r) => results.push(r),
                    Err(e) => {
                        println!("{e}");
                        return false;
                    }
                }
            }
        }
        eprintln!("aa: round {} of {n} done", i + 1);
    }
    println!(
        "| workload | metric | median A | median B | IQR/med A | IQR/med B | worse B vs A | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut ok = true;
    for (w, name) in names.iter().enumerate() {
        for m in END_TO_END {
            let col = |set: usize| -> Vec<f64> {
                runs[w][set]
                    .iter()
                    .map(|r| r.value(m.name).unwrap_or(0.0))
                    .collect()
            };
            let (a, b) = (col(0), col(1));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let (sa, sb) = (stats::iqr_spread(&a), stats::iqr_spread(&b));
            let worse = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            // setup_s is held to its bound on drift only, as the driver does.
            let spread_ok = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let good = spread_ok && worse <= m.bound;
            let steady = sa.max(sb) <= m.bound / 3.0;
            ok &= good;
            println!(
                "| {name} | {} | {ma:.4} | {mb:.4} | {:.2}% | {:.2}% | {:+.2}% | {:.0}% | {} |",
                m.name,
                sa * 100.0,
                sb * 100.0,
                worse * 100.0,
                m.bound * 100.0,
                match (good, steady) {
                    (true, true) => "ok",
                    (true, false) => "ok, spread over bound/3",
                    (false, _) => "OUTSIDE BOUND",
                }
            );
        }
    }
    println!(
        "aa: {}",
        if ok {
            "every metric inside its bound"
        } else {
            "BOUNDS EXCEEDED"
        }
    );
    ok
}
