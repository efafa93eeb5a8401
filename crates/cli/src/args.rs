//! A minimal `--key value` / `--flag` argument parser (no dependencies).

use std::collections::BTreeMap;

/// Parsed arguments: `--key value` pairs and bare `--flag`s.
#[derive(Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Flags that take no value.
    const BARE_FLAGS: &'static [&'static str] = &["metrics-summary", "profile"];

    /// Options that take a value. Anything else is rejected rather than
    /// silently ignored.
    const VALUE_OPTIONS: &'static [&'static str] = &[
        "pods",
        "planes",
        "ssws",
        "racks",
        "grids",
        "fauus",
        "ebs",
        "seed",
        "intent",
        "strategy",
        "connect",
        "listen",
        "serve-for-ms",
        "chaos-seed",
        "rpc-loss",
        "max-retries",
        "telemetry",
        "trace-out",
        "provenance",
        "provenance-out",
    ];

    /// Parse the remaining command-line words.
    pub fn parse(words: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Args::default();
        let mut words = words.peekable();
        while let Some(word) = words.next() {
            let Some(key) = word.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument '{word}' (options start with --)"
                ));
            };
            if Self::BARE_FLAGS.contains(&key) {
                out.flags.push(key.to_string());
                continue;
            }
            if !Self::VALUE_OPTIONS.contains(&key) {
                return Err(format!("unknown option '--{key}'"));
            }
            let Some(value) = words.next() else {
                return Err(format!("--{key} requires a value"));
            };
            out.values.insert(key.to_string(), value);
        }
        if out.values.contains_key("provenance-out") && !out.values.contains_key("provenance") {
            return Err("--provenance-out needs --provenance PREFIX".into());
        }
        Ok(out)
    }

    /// Whether a bare flag was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A string option.
    pub fn get_str(&self, name: &str) -> Result<Option<String>, String> {
        Ok(self.values.get(name).cloned())
    }

    /// A u16 option.
    pub fn get_u16(&self, name: &str) -> Result<Option<u16>, String> {
        self.values
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} expects a small integer, got '{v}'"))
            })
            .transpose()
    }

    /// A u64 option.
    pub fn get_u64(&self, name: &str) -> Result<Option<u64>, String> {
        self.values
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} expects an integer, got '{v}'"))
            })
            .transpose()
    }

    /// A u32 option.
    pub fn get_u32(&self, name: &str) -> Result<Option<u32>, String> {
        self.values
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} expects an integer, got '{v}'"))
            })
            .transpose()
    }

    /// An f64 option (probabilities, rates).
    pub fn get_f64(&self, name: &str) -> Result<Option<f64>, String> {
        self.values
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} expects a number, got '{v}'"))
            })
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_pairs_and_flags() {
        let args = parse(&[
            "--pods",
            "4",
            "--profile",
            "--seed",
            "9",
            "--rpc-loss",
            "0.05",
        ])
        .unwrap();
        assert_eq!(args.get_u16("pods").unwrap(), Some(4));
        assert_eq!(args.get_u64("seed").unwrap(), Some(9));
        assert_eq!(args.get_f64("rpc-loss").unwrap(), Some(0.05));
        assert!(args.has_flag("profile"));
        assert_eq!(args.get_str("missing").unwrap(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&["loose-word"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        let args = parse(&["--seed", "not-a-number"]).unwrap();
        assert!(args.get_u64("seed").is_err());
        assert_eq!(
            parse(&["--workers", "4"]).unwrap_err(),
            "unknown option '--workers'"
        );
    }

    #[test]
    fn provenance_out_needs_provenance() {
        let err = parse(&["--provenance-out", "p.jsonl"]).unwrap_err();
        assert!(err.contains("--provenance PREFIX"), "{err}");
        let args = parse(&["--provenance-out", "p.jsonl", "--provenance", "0.0.0.0/0"]).unwrap();
        assert_eq!(
            args.get_str("provenance-out").unwrap().as_deref(),
            Some("p.jsonl")
        );
    }
}
