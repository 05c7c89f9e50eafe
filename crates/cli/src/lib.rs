//! # taxrec-cli
//!
//! The `taxrec` command-line tool: the full paper pipeline from the
//! shell, against on-disk artifacts.
//!
//! ```text
//! taxrec generate  --out data/ [--users 4000] [--items 6000] [--seed 42] [--mu 0.5]
//! taxrec import    --input purchases.tsv --out data/ [--mu 0.5]
//! taxrec train     --data data/ --model m.tfm [--tf 4,1 | --mf 0] [--factors 16]
//!                  [--epochs 20] [--threads N] [--cache-th 0.1]
//! taxrec evaluate  --data data/ --model m.tfm [--category-level 1]
//! taxrec evaluate  --data data/ --model m.tfm --dataset eval.json
//!                  [--compare b.json] [--assert-baseline base.json]
//! taxrec recommend --data data/ --model m.tfm --user 0 [--top 10] [--cascade 0.3]
//! taxrec recommend --data data/ --model m.tfm --users 0-63 [--threads 8]
//! taxrec inspect   --model m.tfm
//! taxrec replay    --model snap.tfm --log events.log --out recovered.tfm
//! taxrec serve     --data data/ --model m.tfm [--port 8080]
//!                  [--workers N] [--queue-depth M]
//!                  [--live-log events.log] [--snapshot snap.tfm] [--snapshot-every 256]
//!                  [--replicate-on HOST:PORT | --follow HOST:PORT]
//! ```
//!
//! A data directory holds `taxonomy.bin` (taxonomy), `train.bin` /
//! `test.bin` (purchase logs) and, for imports, `items.tsv` (dense id →
//! original name). All commands are deterministic per `--seed`.

#![warn(missing_docs)]

mod args;
mod commands;
pub mod evalset;
pub mod http;
pub mod json;
pub mod serve;
mod store;
mod users;

pub use args::CliArgs;
pub use store::DataDir;

/// Entry point: parse, dispatch, and return the textual report.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Ok(usage());
    };
    type Command = fn(&CliArgs) -> Result<String, CliError>;
    // Each command with every flag it reads: anything else is refused,
    // so a typo cannot silently fall back to a default.
    let (command, flags): (Command, &[&str]) = match cmd.as_str() {
        "generate" => (commands::generate, &["out", "users", "items", "seed", "mu"]),
        "import" => (commands::import, &["input", "out", "mu", "seed"]),
        "train" => (
            commands::train,
            &[
                "data",
                "model",
                "tf",
                "mf",
                "factors",
                "epochs",
                "threads",
                "seed",
                "cache-th",
                "deterministic",
            ],
        ),
        "evaluate" => (
            commands::evaluate,
            &[
                "data",
                "model",
                "threads",
                "category-level",
                "json",
                "dataset",
                "k",
                "candidate-k",
                "cascade",
                "exclude-history",
                "compare",
                "write-baseline",
                "tolerance",
                "assert-baseline",
            ],
        ),
        "recommend" => (
            commands::recommend,
            &[
                "data",
                "model",
                "user",
                "users",
                "top",
                "cascade",
                "threads",
                "user-tier-budget",
            ],
        ),
        "inspect" => (commands::inspect, &["model"]),
        "replay" => (commands::replay, &["model", "log", "out", "lossy", "json"]),
        "serve" => (
            serve::serve,
            &[
                "data",
                "model",
                "port",
                "workers",
                "queue-depth",
                "live-log",
                "snapshot",
                "snapshot-every",
                "replicate-on",
                "follow",
                "user-tier-budget",
                "trace-sample",
                "trace-slow-ms",
            ],
        ),
        "help" | "--help" | "-h" => return Ok(usage()),
        other => return Err(CliError::Usage(format!("unknown command '{other}'"))),
    };
    let args = CliArgs::parse(rest.iter().cloned());
    args.only(cmd, flags)?;
    command(&args)
}

/// Top-level usage text.
pub fn usage() -> String {
    "\
taxrec — taxonomy-aware recommender systems (VLDB'12 reproduction)

USAGE:
  taxrec generate  --out DIR [--users N] [--items M] [--seed S] [--mu F]
  taxrec import    --input FILE.tsv --out DIR [--mu F] [--seed S]
  taxrec train     --data DIR --model FILE [--tf U,B | --mf B] [--factors K]
                   [--epochs E] [--threads T] [--cache-th TH] [--seed S]
                   [--deterministic]
  taxrec evaluate  --data DIR --model FILE [--category-level L] [--threads T]
  taxrec evaluate  --data DIR --model FILE --dataset FILE.json [--json]
                   [--k K] [--candidate-k C] [--cascade F] [--threads T]
                   [--exclude-history]
                   [--compare CFG.json] [--write-baseline FILE [--tolerance F]]
                   [--assert-baseline FILE]
  taxrec recommend --data DIR --model FILE (--user U | --users LIST)
                   [--top K] [--cascade F] [--threads T]
                   [--user-tier-budget ROWS]
  taxrec inspect   --model FILE
  taxrec replay    --model FILE --log FILE --out FILE [--lossy] [--json]
  taxrec serve     --data DIR --model FILE [--port 8080]
                   [--workers N] [--queue-depth M]
                   [--live-log FILE] [--snapshot FILE] [--snapshot-every N]
                   [--replicate-on HOST:PORT | --follow HOST:PORT]
                   [--user-tier-budget ROWS]

LIST is comma ids and/or inclusive ranges: 0,3,9 or 0-63 or 0-7,32-39.
One rule picks the read path everywhere (recommend, evaluate, and the
server's cascade= parameter): a cascade F below 1 serves the taxonomy beam,
anything else the exact radius-bound walk.
"
    .to_string()
}

/// CLI-level errors.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (missing/invalid flags).
    Usage(String),
    /// Filesystem failure.
    Io(std::io::Error),
    /// A data artifact failed to decode.
    Data(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}\n\n{}", usage()),
            CliError::Io(e) => write!(f, "I/O: {e}"),
            CliError::Data(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_args_prints_usage() {
        let out = run(&[]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run(&["frobnicate".into()]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn unknown_flags_are_refused_by_name() {
        let refused = |argv: &str, named: &str| {
            let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
            let err = run(&argv).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{argv:?}: {err}");
            assert!(err.to_string().contains(named), "{argv:?}: {err}");
        };
        // A typo'd --cascade would otherwise serve the exact walk.
        refused(
            "recommend --data d --model m --user 0 --cascde 0.3",
            "--cascde",
        );
        refused(
            "recommend --data d --model m --scan-kernel simd",
            "--scan-kernel",
        );
        refused("serve --data d --model m --scan-shards 2", "--scan-shards");
        refused("evaluate --data d --model m --backend walk", "--backend");
        refused("inspect --model m --verbose", "--verbose");
        refused("generate --out d extra", "'extra'");
        // A known flag gets as far as the command itself.
        let err = run(&[
            "inspect".into(),
            "--model".into(),
            "/nonexistent/m.tfm".into(),
        ])
        .unwrap_err();
        assert!(!err.to_string().contains("unknown"), "{err}");
    }

    #[test]
    fn help_is_ok() {
        assert!(run(&["help".into()]).unwrap().contains("taxrec"));
    }
}
