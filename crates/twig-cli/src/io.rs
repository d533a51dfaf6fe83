//! File I/O helpers: JSON for structured artifacts (specs, profiles,
//! plans, reports) and the columnar `.twgc` format for traces. All
//! failures are typed [`CliError`]s: filesystem problems map to
//! [`CliError::Io`] (exit 3), undecodable artifacts to
//! [`CliError::Decode`] (exit 4). Every write publishes atomically
//! (`twig_sched::durable`), so a kill mid-command never leaves a torn
//! artifact — only ignorable `.twig-tmp` residue.

use std::path::Path;

use twig_serde::de::DeserializeOwned;
use twig_serde::Serialize;

use crate::error::CliError;

/// Writes formatted text to stdout (the `out!`/`outln!` macros).
///
/// A closed stdout is the end of the output, not an error: when the
/// reader of a pipe has gone (`twig simulate … | head`), the process exits
/// 0 without printing anything more. Any other write failure is an I/O
/// error (exit 3).
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        let e = CliError::io("write", "stdout", e);
        eprintln!("twig: {e}");
        std::process::exit(e.exit_code());
    }
}

/// Reads a JSON artifact.
pub fn read_json<T: DeserializeOwned>(path: &str) -> Result<T, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::io("read", path, e))?;
    twig_serde_json::from_str(&text).map_err(|e| CliError::decode(path, e))
}

/// Reads an observability export (a metrics, attribution or timeline
/// snapshot) through its type's own parser, e.g.
/// `read_snapshot(path, MetricsSnapshot::from_json)`.
pub fn read_snapshot<T, E>(path: &str, parse: fn(&str) -> Result<T, E>) -> Result<T, CliError>
where
    E: std::error::Error + Send + Sync + 'static,
{
    let text = std::fs::read_to_string(path).map_err(|e| CliError::io("read", path, e))?;
    parse(&text).map_err(|e| CliError::decode(path, e))
}

/// Writes a JSON artifact (pretty-printed), atomically.
pub fn write_json<T: Serialize>(path: &str, value: &T) -> Result<(), CliError> {
    let text = twig_serde_json::to_string_pretty(value).map_err(|e| CliError::decode(path, e))?;
    write_bytes(path, text.as_bytes())
}

/// Writes raw bytes atomically, mapping failures to [`CliError::Io`].
pub fn write_bytes(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    twig_sched::publish_atomic(Path::new(path), bytes, None, None)
        .map_err(|e| CliError::io("write", path, e))
}

/// Writes a text artifact atomically.
pub fn write_text(path: &str, text: &str) -> Result<(), CliError> {
    write_bytes(path, text.as_bytes())
}

/// Reads a profile, selecting the format by extension: `.twpf` binary,
/// everything else JSON.
pub fn read_profile(path: &str) -> Result<twig_profile::Profile, CliError> {
    if path.ends_with(".twpf") {
        let bytes = std::fs::read(path).map_err(|e| CliError::io("read", path, e))?;
        twig_profile::decode_profile(&bytes).map_err(|e| CliError::decode(path, e))
    } else {
        read_json(path)
    }
}

/// Writes a profile, selecting the format by extension (see
/// [`read_profile`]).
pub fn write_profile(path: &str, profile: &twig_profile::Profile) -> Result<(), CliError> {
    if path.ends_with(".twpf") {
        write_bytes(path, &twig_profile::encode_profile(profile))
    } else {
        write_json(path, profile)
    }
}

/// Opens a `.twgc` trace as an event source streaming through the mmap'd
/// chunked reader (bounded resident memory, never materialized). A file
/// that cannot be read is a [`CliError::Io`]; any other file fails the
/// frame check as a [`CliError::Decode`].
pub fn open_trace_source(path: &str) -> Result<twig_workload::ColumnarSource, CliError> {
    twig_workload::ColumnarSource::open(Path::new(path)).map_err(|e| match e {
        twig_workload::TraceError::Io(e) => CliError::io("read", path, e),
        e => CliError::decode(path, e),
    })
}

/// Tiny argument cursor: `--key value` flags plus positionals.
pub struct Args<'a> {
    rest: &'a [String],
}

impl<'a> Args<'a> {
    /// Wraps the argument slice after the subcommand. Every `--name` in it
    /// must be one of the subcommand's `accepted` flags; any other is a
    /// usage error naming it.
    pub fn new(rest: &'a [String], accepted: &[&str]) -> Result<Self, CliError> {
        match rest
            .iter()
            .filter_map(|arg| arg.strip_prefix("--"))
            .find(|name| !accepted.contains(name))
        {
            Some(unknown) => Err(CliError::Usage(format!(
                "unknown flag --{unknown}; try `twig help`"
            ))),
            None => Ok(Args { rest }),
        }
    }

    /// The value of `--name`, if present.
    pub fn flag(&self, name: &str) -> Option<&'a str> {
        let key = format!("--{name}");
        self.rest
            .iter()
            .position(|a| a == &key)
            .and_then(|i| self.rest.get(i + 1))
            .map(String::as_str)
    }

    /// The value of `--name`, or a usage error mentioning the flag.
    pub fn require(&self, name: &str) -> Result<&'a str, CliError> {
        self.flag(name)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{name}")))
    }

    /// Parsed value of `--name`, or `default`.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name}: cannot parse {v:?}"))),
        }
    }

    /// Whether a bare switch `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        let key = format!("--{name}");
        self.rest.iter().any(|a| a == &key)
    }
}
