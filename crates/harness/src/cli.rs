//! What the four binaries share: how they stop short ([`Exit`]), their
//! arguments ([`args`]) and a cursor over them, writing stdout, reading
//! and writing a named file, and the panic-isolated loop over named jobs.
//! Their parsers and modes return `Result<_, Exit>`, and only `main`
//! turns an [`Exit`] into output and an exit code, so a unit test can
//! call a parser with any input.

use std::ffi::OsString;
use std::fmt::Display;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

use ignite_cluster::fanout::panic_message;

/// How a binary stops short of success, with the text it prints to
/// stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exit {
    /// A bad argument: the message, if any, then the binary's usage
    /// text; exit 2.
    Usage(String),
    /// A step that failed: the message, empty when the binary's output
    /// has already said what failed; exit 1.
    Failure(String),
}

impl Exit {
    /// Prints the message, and after a usage error `usage`, to stderr,
    /// and returns the exit code.
    pub fn report(self, usage: impl Display) -> ExitCode {
        let (message, code) = match self {
            Exit::Usage(message) if message.is_empty() => (usage.to_string(), 2),
            Exit::Usage(message) => (format!("{message}\n{usage}"), 2),
            Exit::Failure(message) => (message, 1),
        };
        if !message.is_empty() {
            eprintln!("{message}");
        }
        ExitCode::from(code)
    }
}

/// The arguments after the program name. One that is not UTF-8 is the
/// usage error "`argument {position} is not valid UTF-8: {arg:?}`",
/// built by the binary's own `usage`, counting from 1.
pub fn args(usage: fn(String) -> Exit) -> Result<Vec<String>, Exit> {
    utf8(std::env::args_os().skip(1), usage)
}

fn utf8(
    args: impl Iterator<Item = OsString>,
    usage: fn(String) -> Exit,
) -> Result<Vec<String>, Exit> {
    let position = |(i, arg): (usize, OsString)| {
        arg.into_string()
            .map_err(|arg| usage(format!("argument {} is not valid UTF-8: {arg:?}", i + 1)))
    };
    args.enumerate().map(position).collect()
}

/// The arguments after the program name, taken one at a time. A flag's
/// value that is missing or does not parse is a usage error, built by
/// the binary's own `usage`, which adds its prefix.
pub struct Cursor {
    args: std::vec::IntoIter<String>,
    usage: fn(String) -> Exit,
}

impl Cursor {
    /// A cursor over `args` whose refusals are `usage(message)`.
    pub fn new(args: Vec<String>, usage: fn(String) -> Exit) -> Self {
        Cursor { args: args.into_iter(), usage }
    }

    /// The value after `flag`: "`{flag} needs a value`" when there is none.
    pub fn value(&mut self, flag: &str) -> Result<String, Exit> {
        self.args.next().ok_or_else(|| (self.usage)(format!("{flag} needs a value")))
    }

    /// The value after `flag`, parsed ([`Cursor::parse_str`]).
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, Exit> {
        let value = self.value(flag)?;
        self.parse_str(&value, flag)
    }

    /// `value`, a flag's value or a part of one, parsed: "`bad value
    /// '{value}' for {flag}`" when it does not parse.
    pub fn parse_str<T: FromStr>(&self, value: &str, flag: &str) -> Result<T, Exit> {
        value.parse().map_err(|_| (self.usage)(format!("bad value '{value}' for {flag}")))
    }

    /// The value after `flag`, read by `parse`, whose error `e` is the
    /// usage error "`{flag}: {e}`".
    pub fn spec<T, E: Display>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, Exit> {
        let value = self.value(flag)?;
        parse(&value).map_err(|e| (self.usage)(format!("{flag}: {e}")))
    }
}

impl Iterator for Cursor {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.args.next()
    }
}

/// Writes `text` to stdout and flushes it, or fails with "`{bin}: cannot
/// write stdout: {e}`" (exit 1) where `print!` would panic, as on a pipe
/// whose reader has gone.
pub fn print(bin: &str, text: impl Display) -> Result<(), Exit> {
    let mut out = std::io::stdout().lock();
    write!(out, "{text}")
        .and_then(|()| out.flush())
        .map_err(|e| Exit::Failure(format!("{bin}: cannot write stdout: {e}")))
}

/// The text of the file at `path`, or "`cannot read {path}: {e}`".
pub fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The file at `path`, read by `parse`: "`cannot read {path}: {e}`" or
/// "`{path}: {e}`".
pub fn load<T, E: Display>(
    path: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, String> {
    parse(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

/// Writes `contents` to the file at `path`, or "`cannot write {path}:
/// {e}`".
pub fn write(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Runs each named job in order, each under `catch_unwind`, so one that
/// panics does not cost the rest of a long run, and hands `done` each
/// name with its run time and its result or panic message. The first
/// error `done` returns stops the run and is its failure; otherwise, when
/// any job panicked, the failure lists each such name and message under
/// `failed(count)`.
pub fn run_isolated<'a, T, F: FnOnce() -> T>(
    jobs: impl IntoIterator<Item = (&'a str, F)>,
    mut done: impl FnMut(&str, Duration, Result<T, &str>) -> Result<(), Exit>,
    failed: impl FnOnce(usize) -> String,
) -> Result<(), Exit> {
    let mut failures = Vec::new();
    for (name, job) in jobs {
        let start = Instant::now();
        match catch_unwind(AssertUnwindSafe(job)) {
            Ok(value) => done(name, start.elapsed(), Ok(value))?,
            Err(payload) => {
                let message = panic_message(payload);
                done(name, start.elapsed(), Err(&message))?;
                failures.push(format!("\n  {name}: {message}"));
            }
        }
    }
    if failures.is_empty() {
        return Ok(());
    }
    Err(Exit::Failure(format!("\n{}{}", failed(failures.len()), failures.concat())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(message: String) -> Exit {
        Exit::Usage(format!("t: {message}"))
    }

    fn cursor(args: &[&str]) -> Cursor {
        Cursor::new(args.iter().map(|a| a.to_string()).collect(), usage)
    }

    #[test]
    fn a_flag_value_is_taken_parsed_or_refused_with_the_binary_prefix() {
        let mut it = cursor(&["--n", "7", "--n", "x", "--k", "a", "--n"]);
        assert_eq!(it.next().as_deref(), Some("--n"));
        assert_eq!(it.parse::<u32>("--n"), Ok(7));
        it.next();
        assert_eq!(it.parse::<u32>("--n"), Err(Exit::Usage("t: bad value 'x' for --n".into())));
        it.next();
        let spec = it.spec("--k", |v| if v == "b" { Ok(()) } else { Err(format!("not {v}")) });
        assert_eq!(spec, Err(Exit::Usage("t: --k: not a".into())));
        it.next();
        assert_eq!(it.value("--n"), Err(Exit::Usage("t: --n needs a value".into())));
        assert_eq!(it.next(), None);
    }

    #[cfg(unix)]
    #[test]
    fn a_non_utf8_argument_is_a_usage_error_naming_its_position() {
        use std::os::unix::ffi::OsStringExt;
        let argv = |bytes: &[&[u8]]| {
            let args: Vec<OsString> =
                bytes.iter().map(|b| OsString::from_vec(b.to_vec())).collect();
            args.into_iter()
        };
        assert_eq!(utf8(argv(&[b"--n", b"7"]), usage), Ok(vec!["--n".into(), "7".into()]));
        assert_eq!(utf8(argv(&[]), usage), Ok(vec![]));
        let refused = Exit::Usage(r#"t: argument 2 is not valid UTF-8: "a\xFF""#.into());
        assert_eq!(utf8(argv(&[b"--n", b"a\xff", b"\xfe"]), usage), Err(refused));
    }

    #[test]
    fn file_errors_name_the_path() {
        let missing = "/nonexistent/dir/x";
        assert!(read(missing).unwrap_err().starts_with("cannot read /nonexistent/dir/x: "));
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
        let refused = load(manifest, |_| Err::<(), _>("no"));
        assert_eq!(refused, Err(format!("{manifest}: no")));
        assert!(write(missing, "").unwrap_err().starts_with("cannot write /nonexistent/dir/x: "));
    }

    /// A panicking job does not stop the next one, reaches `done` with its
    /// message, and is listed in the failure, in order; an error from
    /// `done` stops the run there and is its failure.
    #[test]
    fn a_panicking_job_is_isolated_and_listed() {
        type Job = (&'static str, fn() -> u32);
        let mut seen = Vec::new();
        let jobs: [Job; 3] = [("a", || 1), ("b", || panic!("boom")), ("c", || panic!("bang"))];
        let result = run_isolated(
            jobs,
            |name, _, r| {
                seen.push(format!("{name} {r:?}"));
                Ok(())
            },
            |n| format!("{n} failed:"),
        );
        assert_eq!(seen, ["a Ok(1)", "b Err(\"boom\")", "c Err(\"bang\")"]);
        assert_eq!(result, Err(Exit::Failure("\n2 failed:\n  b: boom\n  c: bang".into())));
        let none: [(&str, fn()); 1] = [("a", || ())];
        assert_eq!(run_isolated(none, |_, _, _| Ok(()), |_| unreachable!()), Ok(()));
        let mut ran = 0;
        let stop = Exit::Failure("stop".into());
        let result = run_isolated(
            jobs,
            |_, _, _| {
                ran += 1;
                Err(stop.clone())
            },
            |_| unreachable!(),
        );
        assert_eq!((ran, result), (1, Err(stop)));
    }
}
