//! The command-line parser every harness binary shares.
//!
//! A binary hands [`parse`] its usage text and a closure that pulls its
//! options out of an [`Args`]: bare flags, `--name value` /
//! `--name=value` options, typed comma-separated lists, then
//! positionals. `--help`/`-h` prints the usage and exits 0; `--jobs N`
//! is taken for every binary and applied via [`set_jobs`](crate::set_jobs).
//! Anything left unclaimed — an unknown flag, a stray argument — and
//! any value that does not parse as its type is reported as
//! `error: <what>` followed by the usage text, with exit status 2.

use std::fmt::Display;
use std::str::FromStr;

/// A command-line mistake, worded for the `error: ` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

/// The arguments not yet claimed by the binary's options.
#[derive(Debug)]
pub struct Args {
    rest: Vec<String>,
}

fn parse_as<T: FromStr>(name: &str, raw: &str) -> Result<T, Error>
where
    T::Err: Display,
{
    raw.trim().parse().map_err(|e| Error(format!("invalid value '{raw}' for {name}: {e}")))
}

impl Args {
    /// Wrap an argument list (without the program name).
    fn new<S: Into<String>>(argv: impl IntoIterator<Item = S>) -> Args {
        Args { rest: argv.into_iter().map(Into::into).collect() }
    }

    /// Claim every occurrence of the bare flag `name`; true if present.
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.rest.len() != before
    }

    /// Claim `name value` / `name=value` (the last occurrence wins),
    /// parsed as `T`. `Ok(None)` when the option is absent.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, Error>
    where
        T::Err: Display,
    {
        match self.raw(name, None)? {
            Some(raw) => parse_as(name, &raw).map(Some),
            None => Ok(None),
        }
    }

    /// Like [`value`](Args::value), but the value may be omitted: a
    /// bare `name` (last, or followed by another `--` flag) yields
    /// `default`.
    pub fn optional_value<T: FromStr>(&mut self, name: &str, default: T) -> Result<Option<T>, Error>
    where
        T::Err: Display,
    {
        match self.raw(name, Some(""))? {
            Some(raw) if raw.is_empty() => Ok(Some(default)),
            Some(raw) => parse_as(name, &raw).map(Some),
            None => Ok(None),
        }
    }

    /// Claim `name a,b,c` / `name=a,b,c`, every entry parsed as `T`.
    pub fn list<T: FromStr>(&mut self, name: &str) -> Result<Option<Vec<T>>, Error>
    where
        T::Err: Display,
    {
        match self.raw(name, None)? {
            Some(raw) => {
                raw.split(',').map(|p| parse_as(name, p)).collect::<Result<_, _>>().map(Some)
            }
            None => Ok(None),
        }
    }

    /// Claim the remaining arguments as positionals of type `T`. Call
    /// it after every option: a leftover `-`-prefixed argument is an
    /// unknown flag.
    pub fn positionals<T: FromStr>(&mut self) -> Result<Vec<T>, Error>
    where
        T::Err: Display,
    {
        self.reject_flags()?;
        std::mem::take(&mut self.rest)
            .iter()
            .map(|a| a.parse().map_err(|e: T::Err| Error(e.to_string())))
            .collect()
    }

    /// Fail unless every argument has been claimed.
    fn finish(self) -> Result<(), Error> {
        self.reject_flags()?;
        match self.rest.first() {
            Some(a) => Err(Error(format!("unexpected argument '{a}'"))),
            None => Ok(()),
        }
    }

    fn reject_flags(&self) -> Result<(), Error> {
        match self.rest.iter().find(|a| a.starts_with('-')) {
            Some(a) => Err(Error(format!("unknown flag '{a}'"))),
            None => Ok(()),
        }
    }

    /// Remove every `name value` / `name=value` occurrence and return
    /// the last value. A bare `name` with no value after it (an
    /// argument starting `--` is the next flag, so `-1` is a value)
    /// yields `bare` when given, else an error.
    fn raw(&mut self, name: &str, bare: Option<&str>) -> Result<Option<String>, Error> {
        let mut out = None;
        let mut i = 0;
        while i < self.rest.len() {
            if self.rest[i] == name {
                let next = self.rest.get(i + 1).filter(|v| !v.starts_with("--"));
                match (next, bare) {
                    (Some(v), _) => {
                        out = Some(v.clone());
                        self.rest.drain(i..i + 2);
                    }
                    (None, Some(b)) => {
                        out = Some(b.to_string());
                        self.rest.remove(i);
                    }
                    (None, None) => return Err(Error(format!("{name} needs a value"))),
                }
            } else if let Some(v) =
                self.rest[i].strip_prefix(name).and_then(|r| r.strip_prefix('='))
            {
                out = Some(v.to_string());
                self.rest.remove(i);
            } else {
                i += 1;
            }
        }
        Ok(out)
    }
}

/// Claim `--jobs N` (applied via [`set_jobs`](crate::set_jobs)), run
/// the binary's option closure, then require that nothing is left.
fn parse_args<T>(
    mut args: Args,
    options: impl FnOnce(&mut Args) -> Result<T, Error>,
) -> Result<T, Error> {
    if let Some(n) = args.value::<usize>("--jobs")? {
        crate::set_jobs(n);
    }
    let out = options(&mut args)?;
    args.finish()?;
    Ok(out)
}

/// Parse this process's arguments: claim `--jobs N`, run the binary's
/// option closure, then require that nothing is left. Prints `usage`
/// and exits 0 on `--help`/`-h`; prints `error: …` and `usage` and
/// exits 2 on any command-line mistake.
pub fn parse<T>(usage: &str, options: impl FnOnce(&mut Args) -> Result<T, Error>) -> T {
    let mut args = Args::new(std::env::args().skip(1));
    if args.flag("--help") || args.flag("-h") {
        eprintln!("{usage}");
        std::process::exit(0);
    }
    parse_args(args, options).unwrap_or_else(|Error(msg)| {
        eprintln!("error: {msg}\n{usage}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaced_and_equals_values() {
        let mut a = Args::new(["--x", "3", "--y=4", "pos"]);
        assert_eq!(a.value::<u32>("--x"), Ok(Some(3)));
        assert_eq!(a.value::<u32>("--y"), Ok(Some(4)));
        assert_eq!(a.value::<u32>("--z"), Ok(None));
        assert_eq!(a.positionals::<String>(), Ok(vec!["pos".to_string()]));
        assert!(a.finish().is_ok());
    }

    #[test]
    fn missing_value_is_an_error() {
        let mut a = Args::new(["--x"]);
        assert_eq!(a.value::<u32>("--x"), Err(Error("--x needs a value".into())));
        let mut a = Args::new(["--x", "--y"]);
        assert!(a.value::<u32>("--x").is_err());
    }

    #[test]
    fn u64_list_rejects_negative_and_fractional_entries() {
        for bad in ["-1", "1.9", "1,-1", "2,3.5"] {
            let mut a = Args::new(["--seeds", bad]);
            let e = a.list::<u64>("--seeds").expect_err(bad);
            assert!(e.0.starts_with("invalid value") && e.0.contains("--seeds"), "{bad}: {e:?}");
        }
        let mut a = Args::new(["--seeds=1,2,3"]);
        assert_eq!(a.list::<u64>("--seeds"), Ok(Some(vec![1, 2, 3])));
    }

    #[test]
    fn u64_above_2_pow_53_round_trips_exactly() {
        let big = (1u64 << 53) + 1;
        let mut a = Args::new(["--seeds".to_string(), format!("{big},{}", u64::MAX)]);
        assert_eq!(a.list::<u64>("--seeds"), Ok(Some(vec![big, u64::MAX])));
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let r = parse_args(Args::new(["--no-schedule", "matmul"]), |a| {
            let skip = a.flag("--no-schedules");
            Ok((skip, a.positionals::<String>()?))
        });
        assert_eq!(r, Err(Error("unknown flag '--no-schedule'".into())));
        let r = parse_args(Args::new(["stray"]), |a| Ok(a.flag("--check")));
        assert_eq!(r, Err(Error("unexpected argument 'stray'".into())));
    }

    #[test]
    fn optional_value_defaults_when_bare() {
        let mut a = Args::new(["--soak", "--jobs", "2"]);
        assert_eq!(a.optional_value("--soak", 500usize), Ok(Some(500)));
        let mut a = Args::new(["--soak", "7"]);
        assert_eq!(a.optional_value("--soak", 500usize), Ok(Some(7)));
        assert_eq!(a.optional_value("--soak", 500usize), Ok(None));
    }

    #[test]
    fn jobs_flag_sets_the_sweep_width() {
        let rest = parse_args(Args::new(["--jobs", "3", "app"]), |a| a.positionals::<String>());
        assert_eq!(rest, Ok(vec!["app".to_string()]));
        assert_eq!(crate::jobs(), 3);
        assert!(parse_args(Args::new(["--jobs=5"]), |_| Ok(())).is_ok());
        assert_eq!(crate::jobs(), 5);
        assert!(parse_args(Args::new(["--jobs", "x"]), |_| Ok(())).is_err());
        crate::set_jobs(1); // restore for other tests in this process
    }
}
