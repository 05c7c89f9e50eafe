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
    let args = CliArgs::parse(rest.iter().cloned());
    match cmd.as_str() {
        "generate" => commands::generate(&args),
        "import" => commands::import(&args),
        "train" => commands::train(&args),
        "evaluate" => commands::evaluate(&args),
        "recommend" => commands::recommend(&args),
        "inspect" => commands::inspect(&args),
        "replay" => commands::replay(&args),
        "serve" => serve::serve(&args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    }
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
                   [--k K] [--candidate-k C] [--scan-shards S] [--threads T]
                   [--backend exhaustive|cascaded|quantized|walk] [--cascade F]
                   [--scan-kernel scalar|simd|quantized] [--exclude-history]
                   [--compare CFG.json] [--write-baseline FILE [--tolerance F]]
                   [--assert-baseline FILE]
  taxrec recommend --data DIR --model FILE (--user U | --users LIST)
                   [--top K] [--cascade F] [--threads T]
                   [--scan-shards S] [--scan-kernel scalar|simd|quantized]
  taxrec inspect   --model FILE
  taxrec replay    --model FILE --log FILE --out FILE [--lossy] [--json]
  taxrec serve     --data DIR --model FILE [--port 8080]
                   [--workers N] [--queue-depth M]
                   [--scan-shards S] [--scan-kernel scalar|simd|quantized]
                   [--live-log FILE] [--snapshot FILE] [--snapshot-every N]
                   [--replicate-on HOST:PORT | --follow HOST:PORT]
                   [--user-tier-budget ROWS]

LIST is comma ids and/or inclusive ranges: 0,3,9 or 0-63 or 0-7,32-39.
--scan-kernel picks the exact scan of serve and recommend: absent, the
radius-bound walk; quantized, the int8-first scan; scalar|simd, the plain
f32 scan with that kernel. All serve the same ranking, bit for bit.
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
    fn help_is_ok() {
        assert!(run(&["help".into()]).unwrap().contains("taxrec"));
    }
}
