//! The one command-line reader of the bench bins.
//!
//! A token that starts with `--` names a flag; the token after it, unless it
//! starts with `--` too, is that flag's value.  A bin reads each of its
//! flags with one call that carries the bin's default, then calls
//! [`Cli::finish`]:
//!
//! ```
//! use bench::cli::Cli;
//!
//! let mut cli = Cli::new(["--reps", "1", "--quick", "--reps", "3"]);
//! let reps: usize = cli.value("--reps", 2);
//! let seed: Option<u64> = cli.optional("--seed");
//! let quick = cli.switch("--quick");
//! cli.finish();
//! assert_eq!((reps, seed, quick), (3, None, true));
//! ```
//!
//! Argument errors panic, as everywhere in the bins: a flag no read asked
//! for with `unknown argument <flag>`, a valued flag without a value with
//! `<flag> takes a value`, a value that does not parse with a message naming
//! the flag and the text.  A repeated flag keeps its last value.

use std::fmt::Display;
use std::str::FromStr;

/// One command line, read flag by flag.
pub struct Cli {
    flags: Vec<Flag>,
}

/// A flag (or a stray token, which no read asks for) and its value.
struct Flag {
    name: String,
    value: Option<String>,
    read: bool,
}

impl Cli {
    /// The process's command line, without the program name.
    pub fn from_env() -> Self {
        Cli::new(std::env::args().skip(1))
    }

    /// A command line from its tokens.
    pub fn new<S: Into<String>>(tokens: impl IntoIterator<Item = S>) -> Self {
        let mut flags: Vec<Flag> = Vec::new();
        for token in tokens.into_iter().map(Into::into) {
            match flags.last_mut() {
                Some(flag)
                    if flag.name.starts_with("--")
                        && flag.value.is_none()
                        && !token.starts_with("--") =>
                {
                    flag.value = Some(token)
                }
                _ => flags.push(Flag {
                    name: token,
                    value: None,
                    read: false,
                }),
            }
        }
        Cli { flags }
    }

    /// The value of `flag`, or `default` if the flag is absent.
    pub fn value<T: FromStr>(&mut self, flag: &str, default: T) -> T
    where
        T::Err: Display,
    {
        self.optional(flag).unwrap_or(default)
    }

    /// The value of `flag`, or `None` if the flag is absent.
    pub fn optional<T: FromStr>(&mut self, flag: &str) -> Option<T>
    where
        T::Err: Display,
    {
        let mut last = None;
        for f in self.flags.iter_mut().filter(|f| f.name == flag) {
            f.read = true;
            let text = f
                .value
                .as_deref()
                .unwrap_or_else(|| panic!("{flag} takes a value"));
            last = Some(
                text.parse()
                    .unwrap_or_else(|e| panic!("{flag}: cannot parse {text:?} ({e})")),
            );
        }
        last
    }

    /// `true` if the valueless `flag` is given.
    pub fn switch(&mut self, flag: &str) -> bool {
        let mut given = false;
        for f in self.flags.iter_mut().filter(|f| f.name == flag) {
            f.read = true;
            if let Some(stray) = &f.value {
                panic!("unknown argument {stray}");
            }
            given = true;
        }
        given
    }

    /// Check that every token was read.
    ///
    /// # Panics
    ///
    /// On the first flag or stray token no read asked for.
    pub fn finish(self) {
        if let Some(f) = self.flags.iter().find(|f| !f.read) {
            panic!("unknown argument {}", f.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_absent_flag_reads_its_default() {
        let mut cli = Cli::new(Vec::<String>::new());
        assert_eq!(cli.value("--reps", 2usize), 2);
        cli.finish();
    }

    #[test]
    fn a_given_flag_overrides_the_default() {
        let mut cli = Cli::new(["--zipf", "-1.5"]);
        assert_eq!(cli.value("--zipf", 1.05), -1.5);
        cli.finish();
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let mut cli = Cli::new(["--k", "3", "--k", "5"]);
        assert_eq!(cli.optional::<usize>("--k"), Some(5));
        cli.finish();
    }

    #[test]
    fn a_switch_is_present_or_absent() {
        let mut cli = Cli::new(["--quick"]);
        assert!(cli.switch("--quick"));
        assert!(!cli.switch("--chaos"));
        cli.finish();
    }

    #[test]
    #[should_panic(expected = "--per-pe takes a value")]
    fn a_trailing_valued_flag_needs_a_value() {
        Cli::new(["--reps", "1", "--per-pe"]).value("--per-pe", 18u32);
    }

    #[test]
    #[should_panic(expected = "--reps: cannot parse \"two\"")]
    fn an_unparsable_value_names_the_flag_and_the_text() {
        Cli::new(["--reps", "two"]).value("--reps", 2usize);
    }

    #[test]
    #[should_panic(expected = "unknown argument --no-such-flag")]
    fn an_unread_flag_is_unknown() {
        let mut cli = Cli::new(["--quick", "--no-such-flag"]);
        cli.switch("--quick");
        cli.finish();
    }
}
