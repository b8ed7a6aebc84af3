//! Minimal `--flag value` argument parsing (no external dependency).

use sspc_common::{Error, Result};
use std::collections::BTreeMap;
use std::time::Duration;

/// Parsed flags: `--name value` pairs after the subcommand.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
}

impl Flags {
    /// Parses `--name value` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on stray tokens, repeated flags,
    /// or a flag without a value.
    pub fn parse(args: &[String]) -> Result<Self> {
        let mut values = BTreeMap::new();
        let mut iter = args.iter();
        while let Some(token) = iter.next() {
            let Some(name) = token.strip_prefix("--") else {
                return Err(Error::InvalidParameter(format!(
                    "unexpected argument `{token}` (flags are --name value)"
                )));
            };
            let Some(value) = iter.next() else {
                return Err(Error::InvalidParameter(format!(
                    "flag --{name} needs a value"
                )));
            };
            if values.insert(name.to_string(), value.clone()).is_some() {
                return Err(Error::InvalidParameter(format!(
                    "flag --{name} given twice"
                )));
            }
        }
        Ok(Flags { values })
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] when missing.
    pub fn required(&self, name: &str) -> Result<&str> {
        self.values
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| Error::InvalidParameter(format!("missing required flag --{name}")))
    }

    /// An optional string flag.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A parsed flag with a default.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] on parse failure.
    pub fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T> {
        match self.values.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                Error::InvalidParameter(format!("flag --{name}: cannot parse `{raw}`"))
            }),
        }
    }

    /// A required parsed flag.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] when missing or unparseable.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T> {
        let raw = self.required(name)?;
        raw.parse()
            .map_err(|_| Error::InvalidParameter(format!("flag --{name}: cannot parse `{raw}`")))
    }

    /// An optional seconds flag as a [`Duration`]: a finite number,
    /// positive (or zero when `zero_ok`), small enough for `Duration`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] when unparseable or out of range.
    pub fn seconds(&self, name: &str, zero_ok: bool) -> Result<Option<Duration>> {
        if self.optional(name).is_none() {
            return Ok(None);
        }
        let seconds: f64 = self.parsed(name)?;
        if !seconds.is_finite() || seconds < 0.0 || (seconds == 0.0 && !zero_ok) {
            let range = if zero_ok { "non-negative" } else { "positive" };
            return Err(Error::InvalidParameter(format!(
                "--{name} must be a {range} number of seconds"
            )));
        }
        // try_from: an absurdly large value overflows Duration and must
        // be a clean CLI error, not a panic.
        Duration::try_from_secs_f64(seconds)
            .map(Some)
            .map_err(|e| Error::InvalidParameter(format!("--{name} {seconds}: {e}")))
    }

    /// Names of flags that were provided but not consumed by the command —
    /// used to reject typos.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<()> {
        for name in self.values.keys() {
            if !known.contains(&name.as_str()) {
                return Err(Error::InvalidParameter(format!("unknown flag --{name}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs() {
        let f = Flags::parse(&argv(&["--n", "100", "--out", "x.tsv"])).unwrap();
        assert_eq!(f.required("n").unwrap(), "100");
        assert_eq!(f.optional("out"), Some("x.tsv"));
        assert_eq!(f.optional("missing"), None);
        assert_eq!(f.parsed::<usize>("n").unwrap(), 100);
        assert_eq!(f.parsed_or("k", 5usize).unwrap(), 5);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Flags::parse(&argv(&["n", "100"])).is_err());
        assert!(Flags::parse(&argv(&["--n"])).is_err());
        assert!(Flags::parse(&argv(&["--n", "1", "--n", "2"])).is_err());
    }

    #[test]
    fn rejects_unparseable_and_missing() {
        let f = Flags::parse(&argv(&["--n", "abc"])).unwrap();
        assert!(f.parsed::<usize>("n").is_err());
        assert!(f.required("k").is_err());
        assert!(f.parsed_or::<f64>("n", 1.0).is_err());
    }

    #[test]
    fn rejects_unknown_flags() {
        let f = Flags::parse(&argv(&["--typo", "1"])).unwrap();
        assert!(f.reject_unknown(&["n", "k"]).is_err());
        let f = Flags::parse(&argv(&["--n", "1"])).unwrap();
        assert!(f.reject_unknown(&["n"]).is_ok());
    }

    #[test]
    fn seconds_flags_are_finite_in_range_durations() {
        let f = Flags::parse(&argv(&["--a", "0", "--b", "1.5"])).unwrap();
        assert_eq!(f.seconds("a", true).unwrap(), Some(Duration::ZERO));
        assert!(f.seconds("a", false).is_err(), "zero must be opted into");
        assert_eq!(
            f.seconds("b", false).unwrap(),
            Some(Duration::from_millis(1500))
        );
        assert_eq!(f.seconds("missing", false).unwrap(), None);
        for bad in ["-1", "inf", "NaN", "1e30", "soon"] {
            let f = Flags::parse(&argv(&["--a", bad])).unwrap();
            assert!(f.seconds("a", true).is_err(), "{bad}");
        }
    }
}
