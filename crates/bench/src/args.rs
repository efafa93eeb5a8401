//! Minimal `--key value` / `--flag` parsing for the perf binaries
//! (`bench_convergence`, `perf_report`): `--tiny`,
//! `--fabric LIST`, `--iters N`, `--json FILE`, `--baseline FILE`, ….

use std::collections::BTreeMap;

/// Parsed arguments for a perf binary.
#[derive(Debug, Default)]
pub struct BenchArgs {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl BenchArgs {
    /// Flags that take no value.
    const BARE_FLAGS: &'static [&'static str] = &["tiny"];

    /// Parse the process arguments (after the program name).
    pub fn from_env() -> Result<Self, String> {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse an explicit word stream (tests).
    pub(crate) fn parse(words: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = BenchArgs::default();
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
            let Some(value) = words.next() else {
                return Err(format!("--{key} requires a value"));
            };
            out.values.insert(key.to_string(), value);
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

    fn parse(words: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_chaos_and_smoke_flags() {
        let args = parse(&["--tiny", "--chaos-seed", "7", "--rpc-loss", "0.05"]).unwrap();
        assert!(args.has_flag("tiny"));
        assert_eq!(args.get_u64("chaos-seed").unwrap(), Some(7));
        assert_eq!(args.get_f64("rpc-loss").unwrap(), Some(0.05));
        assert_eq!(args.get_str("json").unwrap(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&["bare-word"]).is_err());
        assert!(parse(&["--json"]).is_err());
        let args = parse(&["--rpc-loss", "lots"]).unwrap();
        assert!(args.get_f64("rpc-loss").is_err());
    }
}
