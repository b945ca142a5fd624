//! Tiny dependency-free argument parsing for the `laqa` CLI binary. Every
//! [`ArgError`] is a usage error: `laqa` prints it with the usage text and
//! exits 2.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` / `--flag` options.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Args {
    /// First positional argument.
    pub command: String,
    /// `--key value` pairs; bare `--flag`s map to `"true"`.
    pub options: BTreeMap<String, String>,
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// A positional argument appeared after options.
    UnexpectedPositional(String),
    /// An option the command does not take.
    UnknownOption(String),
    /// An option given more than once (only the last would count).
    RepeatedOption(String),
    /// A list option naming one value twice.
    RepeatedValue {
        /// Option name.
        key: String,
        /// The repeated list entry.
        value: String,
    },
    /// An option value failed to parse, a bare flag was given a value, or
    /// a valued option was given none (`value` is then empty).
    BadValue {
        /// Option name.
        key: String,
        /// Raw value.
        value: String,
    },
    /// Any other command line the subcommand cannot honour; the message
    /// names the option or argument.
    Usage(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand"),
            ArgError::UnexpectedPositional(p) => write!(f, "unexpected argument '{p}'"),
            ArgError::UnknownOption(key) => write!(f, "unknown option --{key}"),
            ArgError::RepeatedOption(key) => write!(f, "--{key} given more than once"),
            ArgError::RepeatedValue { key, value } => {
                write!(f, "--{key} lists {value} more than once")
            }
            ArgError::BadValue { key, value } if value.is_empty() => {
                write!(f, "missing value for --{key}")
            }
            ArgError::BadValue { key, value } => {
                write!(f, "invalid value '{value}' for --{key}")
            }
            ArgError::Usage(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse an iterator of arguments (excluding the program name).
    /// `flags` take no value and `valued` options take exactly one; any
    /// other `--key`, a flag followed by a value, a valued option without
    /// one, or an option given twice is an error — a misspelt option,
    /// `--smoke 1` or `--seeds 7 --seeds 21` must fail the run, not
    /// silently fall back to a default or to the last value.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        flags: &[&str],
        valued: &[&str],
    ) -> Result<Args, ArgError> {
        let mut iter = args.into_iter().peekable();
        let command = iter.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(ArgError::MissingCommand);
        }
        let mut options = BTreeMap::new();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let is_flag = flags.contains(&key);
                if !is_flag && !valued.contains(&key) {
                    return Err(ArgError::UnknownOption(key.to_string()));
                }
                let value = match iter.next_if(|v| !v.starts_with("--")) {
                    None if is_flag => "true".to_string(),
                    Some(value) if !is_flag => value,
                    given => {
                        return Err(ArgError::BadValue {
                            key: key.to_string(),
                            value: given.unwrap_or_default(),
                        })
                    }
                };
                if options.insert(key.to_string(), value).is_some() {
                    return Err(ArgError::RepeatedOption(key.to_string()));
                }
            } else {
                return Err(ArgError::UnexpectedPositional(arg));
            }
        }
        Ok(Args { command, options })
    }

    /// Typed option lookup with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.clone(),
            }),
        }
    }

    /// Whether a bare flag is present.
    pub fn flag(&self, key: &str) -> bool {
        self.options.get(key).map(|v| v == "true").unwrap_or(false)
    }

    /// Comma-separated typed list option (e.g. `--seeds 7,21,35`), falling
    /// back to `default` when absent. Empty segments and a value listed
    /// twice (`7,7`, or `0.5,0.50`: equal once parsed) are rejected.
    pub fn get_list<T>(&self, key: &str, default: &[T]) -> Result<Vec<T>, ArgError>
    where
        T: std::str::FromStr + Clone + PartialEq,
    {
        let Some(v) = self.options.get(key) else {
            return Ok(default.to_vec());
        };
        let mut out: Vec<T> = Vec::new();
        for s in v.split(',').map(str::trim) {
            let x = s.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.clone(),
            })?;
            if out.contains(&x) {
                let (key, value) = (key.to_string(), s.to_string());
                return Err(ArgError::RepeatedValue { key, value });
            }
            out.push(x);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        let flags = ["red", "verbose"];
        let valued = ["test", "kmax", "duration", "seeds", "rate"];
        Args::parse(s.split_whitespace().map(String::from), &flags, &valued)
    }

    #[test]
    fn rejects_flag_given_a_value() {
        let err = parse("run --red 1 --kmax 2").unwrap_err();
        assert_eq!(
            err,
            ArgError::BadValue {
                key: "red".into(),
                value: "1".into()
            }
        );
        assert_eq!(err.to_string(), "invalid value '1' for --red");
    }

    #[test]
    fn rejects_valued_option_given_none() {
        for line in ["run --kmax", "run --kmax --red"] {
            let err = parse(line).unwrap_err();
            assert_eq!(
                err,
                ArgError::BadValue {
                    key: "kmax".into(),
                    value: String::new()
                },
                "{line}"
            );
            assert_eq!(err.to_string(), "missing value for --kmax");
        }
    }

    #[test]
    fn rejects_unknown_option_by_name() {
        let err = parse("run --kmax 2 --turbo").unwrap_err();
        assert_eq!(err, ArgError::UnknownOption("turbo".into()));
        assert_eq!(err.to_string(), "unknown option --turbo");
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse("sim --test t2 --kmax 4 --red").unwrap();
        assert_eq!(a.command, "sim");
        assert_eq!(a.get::<String>("test", "t1".into()).unwrap(), "t2");
        assert_eq!(a.get::<u32>("kmax", 2).unwrap(), 4);
        assert!(a.flag("red"));
        assert!(!a.flag("loss"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("sim").unwrap();
        assert_eq!(a.get::<f64>("duration", 30.0).unwrap(), 30.0);
    }

    #[test]
    fn rejects_missing_command() {
        assert_eq!(parse("").unwrap_err(), ArgError::MissingCommand);
        assert_eq!(parse("--kmax 2").unwrap_err(), ArgError::MissingCommand);
    }

    #[test]
    fn rejects_bad_value() {
        let a = parse("sim --kmax banana").unwrap();
        assert!(matches!(
            a.get::<u32>("kmax", 2),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn rejects_stray_positional() {
        assert!(matches!(
            parse("sim extra"),
            Err(ArgError::UnexpectedPositional(_))
        ));
    }

    #[test]
    fn parses_comma_lists_with_default() {
        let a = parse("run --seeds 7,21,35").unwrap();
        assert_eq!(a.get_list::<u64>("seeds", &[1]).unwrap(), vec![7, 21, 35]);
        assert_eq!(a.get_list::<u64>("absent", &[1, 2]).unwrap(), vec![1, 2]);
        let a = parse("run --seeds 7,,9").unwrap();
        assert!(a.get_list::<u64>("seeds", &[]).is_err());
    }

    #[test]
    fn rejects_repeated_option_by_name() {
        let err = parse("run --red --kmax 2 --red").unwrap_err();
        assert_eq!(err, ArgError::RepeatedOption("red".into()));
        let err = parse("run --seeds 7 --seeds 21").unwrap_err();
        assert_eq!(err, ArgError::RepeatedOption("seeds".into()));
        assert_eq!(err.to_string(), "--seeds given more than once");
    }

    #[test]
    fn rejects_repeated_list_value_by_name() {
        let a = parse("run --kmax 2,4,2 --rate 0.5,0.50").unwrap();
        let err = a.get_list::<u32>("kmax", &[]).unwrap_err();
        assert_eq!(
            err,
            ArgError::RepeatedValue {
                key: "kmax".into(),
                value: "2".into()
            }
        );
        assert_eq!(err.to_string(), "--kmax lists 2 more than once");
        // Equal once parsed is equal: both would run one cell.
        let err = a.get_list::<f64>("rate", &[]).unwrap_err();
        assert_eq!(err.to_string(), "--rate lists 0.50 more than once");
    }

    #[test]
    fn flag_followed_by_option() {
        let a = parse("net --verbose --rate 100").unwrap();
        assert!(a.flag("verbose"));
        assert_eq!(a.get::<f64>("rate", 0.0).unwrap(), 100.0);
    }
}
