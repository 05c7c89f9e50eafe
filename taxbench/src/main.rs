//! `taxbench` — one benchmark for the whole taxrec stack.
//!
//! ```text
//! taxbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//! taxbench --workload NAME|all --repeat N --out SET.json [--seed FIRST] [--seconds S] [--smoke]
//! taxbench compare A.json B.json
//! ```
//!
//! A run drives the real stack in-process through public API only and
//! prints every metric by name with its unit; the last line of standard
//! output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). `--trace 0` reports the end-to-end metrics, `--trace 1`
//! repeats the workload with the traced walk and reports the per-layer
//! metrics. See `README.md` beside this crate.

mod calib;
mod client;
mod compare;
mod gen;
mod probes;
mod run;
mod sched;
mod spec;
mod stack;
mod stats;
mod steady;
mod trace;
mod walker;

use run::{RunConfig, RunReport};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use taxrec_cli::json;

/// `BENCHMARK.json`'s `run_seconds`: the steady phase when `--seconds`
/// is not given.
const DEFAULT_SECONDS: f64 = 24.0;
/// A single run must end well inside the driver's 180 s.
const RUN_LIMIT: Duration = Duration::from_secs(150);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = spec::workloads().iter().map(|w| w.name).collect();
    format!(
        "usage:\n  taxbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]\n  \
         taxbench --workload NAME|all --repeat N --out SET.json [--seed FIRST] [--seconds S] [--smoke]\n  \
         taxbench compare A.json B.json\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: None,
        out: None,
        out_dir: PathBuf::from("taxbench/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                args.seconds = Some(s);
            }
            "--trace" => args.trace = matches!(value.as_str(), "1" | "true"),
            "--repeat" => args.repeat = Some(value.parse().map_err(|_| bad())?),
            "--out" => args.out = Some(PathBuf::from(value)),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn steady_seconds(args: &Args) -> f64 {
    args.seconds
        .unwrap_or(if args.smoke { 3.0 } else { DEFAULT_SECONDS })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &RunReport) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted(),
        report.failed(),
        metrics.join(",")
    )
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or_else(usage)?;
    let workload =
        spec::workload(name).ok_or_else(|| format!("unknown workload '{name}'\n{}", usage()))?;
    let cfg = RunConfig {
        workload: if args.smoke {
            workload.smoke()
        } else {
            workload
        },
        seed: args.seed,
        steady: Duration::from_secs_f64(steady_seconds(args)),
        trace: args.trace,
        smoke: args.smoke,
        out_dir: args.out_dir.clone(),
    };
    let done = run::watchdog(RUN_LIMIT);
    let report = run::run(&cfg)?;
    done.store(true, std::sync::atomic::Ordering::Relaxed);

    println!(
        "taxbench {} seed {} steady {} s trace {} ({} cores)",
        cfg.workload.name,
        cfg.seed,
        cfg.steady.as_secs_f64(),
        u8::from(cfg.trace),
        stack::nproc()
    );
    for (phase, c) in &report.phases {
        println!(
            "phase {phase:<14} attempted {:>7} succeeded {:>7} failed {:>4}",
            c.attempted,
            c.attempted - c.failed,
            c.failed
        );
    }
    for note in &report.notes {
        println!("note  {note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<34} {value:>16.4} {unit}");
    }
    println!("{}", result_line(&report));
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--repeat N`: one child process per run (peak memory is per process),
/// seeds `seed .. seed + N`, collected into a set file.
fn repeat(args: &Args, n: usize) -> Result<ExitCode, String> {
    let out = args.out.as_ref().ok_or("--repeat needs --out SET.json")?;
    let names: Vec<String> = match args.workload.as_deref() {
        // The workloads of `BENCHMARK.json`: the ones `compare` judges.
        None | Some("all") => spec::workloads()
            .iter()
            .filter(|w| w.gated)
            .map(|w| w.name.to_string())
            .collect(),
        Some(name) => vec![name.to_string()],
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    for i in 0..n as u64 {
        for name in &names {
            let seed = args.seed + i;
            let mut cmd = Command::new(&exe);
            cmd.args([
                "--workload",
                name,
                "--seed",
                &seed.to_string(),
                "--trace",
                "0",
            ])
            .args(["--seconds", &steady_seconds(args).to_string()])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .stdout(Stdio::piped());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().map_err(|e| format!("starting a run: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let result = json::parse(last)
                .map_err(|e| format!("{name} seed {seed}: no result line ({e})"))?;
            let run = compare::SetRun {
                workload: name.clone(),
                seed,
                correct: result.get("correct") == Some(&json::Json::Bool(true)),
                metrics: compare::metric_values(&result)?,
            };
            eprintln!(
                "taxbench: {name} seed {seed}: {}",
                if run.correct {
                    "correct"
                } else {
                    "NOT CORRECT"
                }
            );
            // Say why: the child's own findings.
            for why in stdout.lines().filter(|l| {
                l.contains("INVALID") || l.starts_with("note  verify") || l.starts_with("note  box")
            }) {
                eprintln!("taxbench:   {why}");
            }
            runs.push(run);
        }
    }
    std::fs::write(out, compare::render_set(&runs))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    let all_correct = runs.iter().all(|r| r.correct);
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_sets(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |p: &str| -> Result<Vec<compare::SetRun>, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        compare::parse_set(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, any_worse) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare_sets(a, b),
            _ => Err(usage()),
        },
        Some("help" | "--help" | "-h") | None => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&argv).and_then(|args| match args.repeat {
            Some(n) => repeat(&args, n),
            None => run_one(&args),
        }),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("taxbench: {e}");
        ExitCode::from(2)
    })
}
