//! Minimal flag parser: `--key value` flags, `--flag` booleans, and
//! positional arguments, with typed accessors. Hand-rolled to keep the
//! dependency set to the offline allowlist.

use std::collections::BTreeMap;

use super::{err, Result};

/// Parsed command-line arguments for one subcommand.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
    help: bool,
}

impl Args {
    /// Parses `--key value` pairs and positionals. A `--key` followed by
    /// another `--flag` (or nothing) is treated as a boolean flag.
    ///
    /// # Errors
    ///
    /// Returns an error on a duplicated flag.
    pub fn parse(argv: &[String]) -> Result<Args> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            if token == "--help" || token == "-h" {
                args.help = true;
                i += 1;
            } else if let Some(key) = token.strip_prefix("--") {
                let value = argv.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                let consumed = if value.is_some() { 2 } else { 1 };
                if args
                    .flags
                    .insert(key.to_string(), value.unwrap_or_else(|| "true".into()))
                    .is_some()
                {
                    return Err(err(format!("flag --{key} given twice")));
                }
                i += consumed;
            } else {
                args.positional.push(token.clone());
                i += 1;
            }
        }
        Ok(args)
    }

    /// True if `--help` was present.
    #[must_use]
    pub fn wants_help(&self) -> bool {
        self.help
    }

    /// The positional arguments.
    #[must_use]
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// A string flag, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// A string flag with a default.
    #[must_use]
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// Returns an error naming the missing flag.
    pub fn require(&self, key: &str) -> Result<&str> {
        self.get(key)
            .ok_or_else(|| err(format!("missing required flag --{key}")))
    }

    /// A parsed numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse as `T`.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| err(format!("flag --{key}: cannot parse `{raw}`"))),
        }
    }

    /// A finite, non-negative number of seconds, with a default.
    ///
    /// # Errors
    ///
    /// Returns an error naming the flag if the value does not parse, is
    /// negative or is not finite.
    pub fn get_secs(&self, key: &str, default: f64) -> Result<f64> {
        let secs: f64 = self.get_num(key, default)?;
        if secs.is_finite() && secs >= 0.0 {
            Ok(secs)
        } else {
            Err(err(format!(
                "--{key} must be a finite number of seconds >= 0, got `{secs}`"
            )))
        }
    }

    /// A boolean flag (present means true).
    #[must_use]
    pub fn get_bool(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Rejects flags outside the allowed set, catching typos early.
    ///
    /// # Errors
    ///
    /// Returns an error naming the first unknown flag.
    pub fn check_known(&self, allowed: &[&str]) -> Result<()> {
        for key in self.flags.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(err(format!(
                    "unknown flag --{key}; allowed: {}",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                )));
            }
        }
        Ok(())
    }
}

/// Parses a comma-separated list given to `--{flag}`, skipping empty
/// entries.
///
/// # Errors
///
/// Returns an error naming the flag and the first entry that does not
/// parse.
pub(crate) fn parse_list<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<Vec<T>> {
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|_| err(format!("--{flag}: cannot parse `{s}`")))
        })
        .collect()
}

/// Converts a size in GiB given to `--{flag}` to bytes.
///
/// # Errors
///
/// Returns an error naming the flag if the size is not finite or is
/// less than one byte.
pub(crate) fn gib_bytes(flag: &str, gib: f64) -> Result<u64> {
    let bytes = gib * (1u64 << 30) as f64;
    if bytes.is_finite() && bytes >= 1.0 {
        Ok(bytes as u64)
    } else {
        Err(err(format!(
            "--{flag} must be a finite size of at least one byte, got `{gib}` GiB"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = Args::parse(&v(&[
            "--workload",
            "terasort",
            "file1",
            "--repeats",
            "5",
            "file2",
        ]))
        .unwrap();
        assert_eq!(a.get("workload"), Some("terasort"));
        assert_eq!(a.get_num::<u32>("repeats", 1).unwrap(), 5);
        assert_eq!(a.positional(), &["file1", "file2"]);
    }

    #[test]
    fn boolean_flags() {
        let a = Args::parse(&v(&["--verbose", "--out", "x.json"])).unwrap();
        assert!(a.get_bool("verbose"));
        assert!(!a.get_bool("quiet"));
        assert_eq!(a.get("out"), Some("x.json"));
    }

    #[test]
    fn duplicate_flag_rejected() {
        assert!(Args::parse(&v(&["--a", "1", "--a", "2"])).is_err());
    }

    #[test]
    fn missing_required() {
        let a = Args::parse(&v(&[])).unwrap();
        assert!(a.require("model").is_err());
        assert_eq!(a.get_or("x", "d"), "d");
    }

    #[test]
    fn bad_number() {
        let a = Args::parse(&v(&["--n", "abc"])).unwrap();
        assert!(a.get_num::<u32>("n", 0).is_err());
    }

    #[test]
    fn unknown_flags_caught() {
        let a = Args::parse(&v(&["--typo", "1"])).unwrap();
        assert!(a.check_known(&["workload"]).is_err());
        assert!(a.check_known(&["typo"]).is_ok());
    }

    #[test]
    fn help_detection() {
        let a = Args::parse(&v(&["--help"])).unwrap();
        assert!(a.wants_help());
    }
}
