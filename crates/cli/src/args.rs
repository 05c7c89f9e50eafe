//! Flag parsing for the CLI (dependency-free).

use crate::CliError;
use std::collections::BTreeMap;

/// Parsed `--flag value` / `--flag` arguments.
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    flags: Vec<String>,
    values: BTreeMap<String, String>,
    /// Words without a `--`: no command takes any.
    positional: Vec<String>,
}

impl CliArgs {
    /// Parse an argument iterator (without the command word).
    pub fn parse<I: IntoIterator<Item = String>>(iter: I) -> CliArgs {
        let mut out = CliArgs::default();
        let mut iter = iter.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = iter.next().expect("peeked");
                        out.values.insert(name.to_string(), v);
                    }
                    _ => out.flags.push(name.to_string()),
                }
            } else {
                out.positional.push(a);
            }
        }
        out
    }

    /// Refuse any flag outside `known` (the flags `command` reads) and
    /// any positional word, naming the first one.
    pub fn only(&self, command: &str, known: &[&str]) -> Result<(), CliError> {
        if let Some(word) = self.positional.first() {
            return Err(CliError::Usage(format!(
                "{command}: unexpected argument '{word}'"
            )));
        }
        match self
            .flags
            .iter()
            .chain(self.values.keys())
            .find(|f| !known.contains(&f.as_str()))
        {
            Some(flag) => Err(CliError::Usage(format!("{command}: unknown flag --{flag}"))),
            None => Ok(()),
        }
    }

    /// `--name` present without a value.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Raw value of `--name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(|s| s.as_str())
    }

    /// Required string value.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.value(name)
            .ok_or_else(|| CliError::Usage(format!("missing required --{name}")))
    }

    /// Typed value with default; malformed input is an error (the CLI
    /// must not silently fall back like the bench harness does).
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name}: cannot parse '{v}'"))),
        }
    }

    /// Typed optional value: `None` when the flag is absent, an error
    /// when it is present but malformed.
    pub fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("--{name}: cannot parse '{v}'"))),
        }
    }

    /// Required typed value.
    pub fn get_required<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError> {
        let v = self.require(name)?;
        v.parse()
            .map_err(|_| CliError::Usage(format!("--{name}: cannot parse '{v}'")))
    }

    /// The `--tf U,B` / `--mf B` system selector; defaults to `TF(4,1)`.
    pub fn system(&self) -> Result<(usize, usize), CliError> {
        match (self.value("tf"), self.value("mf")) {
            (Some(_), Some(_)) => Err(CliError::Usage("--tf and --mf are exclusive".into())),
            (Some(tf), None) => {
                let (u, b) = tf
                    .split_once(',')
                    .ok_or_else(|| CliError::Usage(format!("--tf: expected U,B got '{tf}'")))?;
                let u = u
                    .trim()
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--tf: bad U '{u}'")))?;
                let b = b
                    .trim()
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--tf: bad B '{b}'")))?;
                Ok((u, b))
            }
            (None, Some(mf)) => {
                let b = mf
                    .trim()
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--mf: bad B '{mf}'")))?;
                Ok((1, b))
            }
            (None, None) => Ok((4, 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> CliArgs {
        CliArgs::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn values_flags_required() {
        let a = parse("--out d --verbose");
        assert_eq!(a.require("out").unwrap(), "d");
        assert!(a.flag("verbose"));
        assert!(a.require("model").is_err());
    }

    #[test]
    fn only_known_flags_pass() {
        let known = ["out", "verbose"];
        assert!(parse("--out d --verbose").only("cmd", &known).is_ok());
        assert!(parse("").only("cmd", &known).is_ok());
        let err = parse("--out d --outt e").only("cmd", &known).unwrap_err();
        assert!(err.to_string().contains("unknown flag --outt"), "{err}");
        let err = parse("--verbos").only("cmd", &known).unwrap_err();
        assert!(err.to_string().contains("unknown flag --verbos"), "{err}");
        let err = parse("--out d stray").only("cmd", &known).unwrap_err();
        assert!(
            err.to_string().contains("unexpected argument 'stray'"),
            "{err}"
        );
    }

    #[test]
    fn typed_get_rejects_garbage() {
        let a = parse("--users banana");
        assert!(a.get("users", 5usize).is_err());
        assert_eq!(parse("--users 9").get("users", 5usize).unwrap(), 9);
        assert_eq!(parse("").get("users", 5usize).unwrap(), 5);
    }

    #[test]
    fn system_selector() {
        assert_eq!(parse("--tf 4,2").system().unwrap(), (4, 2));
        assert_eq!(parse("--mf 1").system().unwrap(), (1, 1));
        assert_eq!(parse("").system().unwrap(), (4, 1));
        assert!(parse("--tf 4").system().is_err());
        assert!(parse("--tf 4,2 --mf 0").system().is_err());
        assert!(parse("--tf x,y").system().is_err());
    }
}
