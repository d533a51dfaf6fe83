//! Typed CLI errors with distinct exit codes.
//!
//! Every fallible path maps onto one of four categories, each with its
//! own nonzero exit code so scripts can tell a typo from a missing file
//! from a corrupt artifact:
//!
//! | variant   | exit | meaning                                        |
//! |-----------|------|------------------------------------------------|
//! | `Differs` | 1    | a comparison found differences (`metrics diff`)|
//! | `Usage`   | 2    | bad command line (unknown command/flag/value)  |
//! | `Io`      | 3    | filesystem failure (missing file, permissions) |
//! | `Decode`  | 4    | artifact exists but does not parse/verify      |
//! | `Invalid` | 5    | well-formed input that fails semantic checks   |
//! | `Locked`  | 6    | another live run holds the output directory    |
//!
//! `Io` and `Decode` keep their underlying error as a
//! [`std::error::Error::source`] chain, printed by `main` one `caused
//! by:` line per link.

/// A categorized CLI failure.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line: unknown command, missing flag, unparseable value.
    Usage(String),
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// What was being done (`read`, `write`, `mkdir for`).
        action: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// An artifact was read but could not be decoded (corrupt JSON,
    /// bad `.twpf`/`.twgc` bytes) — or could not be encoded.
    Decode {
        /// The path involved.
        path: String,
        /// The underlying codec error.
        source: Box<dyn std::error::Error + Send + Sync>,
    },
    /// Input parsed fine but is semantically invalid (spec/config
    /// validation, unknown app or system name).
    Invalid(String),
    /// A comparison command found differences (`metrics diff`) — exit 1,
    /// like `diff(1)`, so scripts can branch on "same or not".
    Differs(String),
    /// Another live process holds the output directory's `.lock` file
    /// (a dead holder's lock is stolen automatically, never reported).
    Locked {
        /// The lock file path.
        path: String,
        /// The pid recorded in it.
        pid: u32,
    },
}

impl CliError {
    /// The process exit code for this category.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Differs(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Io { .. } => 3,
            CliError::Decode { .. } => 4,
            CliError::Invalid(_) => 5,
            CliError::Locked { .. } => 6,
        }
    }

    /// Convenience constructor for [`CliError::Io`].
    pub fn io(action: &'static str, path: &str, source: std::io::Error) -> Self {
        CliError::Io {
            path: path.to_string(),
            action,
            source,
        }
    }

    /// Convenience constructor for [`CliError::Decode`].
    pub fn decode(
        path: &str,
        source: impl std::error::Error + Send + Sync + 'static,
    ) -> Self {
        CliError::Decode {
            path: path.to_string(),
            source: Box::new(source),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io { path, action, .. } => write!(f, "cannot {action} {path}"),
            CliError::Decode { path, .. } => write!(f, "cannot decode {path}"),
            CliError::Invalid(msg) => write!(f, "{msg}"),
            CliError::Differs(msg) => write!(f, "{msg}"),
            CliError::Locked { path, pid } => write!(
                f,
                "another twig run holds {path} (pid {pid}); \
                 wait for it or remove the lock file if that process is dead"
            ),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            CliError::Decode { source, .. } => Some(source.as_ref()),
            CliError::Usage(_)
            | CliError::Invalid(_)
            | CliError::Differs(_)
            | CliError::Locked { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let errors = [
            CliError::Differs("d".into()),
            CliError::Usage("u".into()),
            CliError::io("read", "f", std::io::Error::other("x")),
            CliError::decode("f", std::io::Error::other("y")),
            CliError::Invalid("i".into()),
            CliError::Locked {
                path: "results/.lock".into(),
                pid: 42,
            },
        ];
        let codes: Vec<i32> = errors.iter().map(CliError::exit_code).collect();
        assert_eq!(codes, vec![1, 2, 3, 4, 5, 6]);
        for e in &errors {
            assert_ne!(e.exit_code(), 0);
        }
    }

    #[test]
    fn io_and_decode_chain_their_sources() {
        let io = CliError::io("read", "missing.json", std::io::Error::other("boom"));
        assert!(io.source().unwrap().to_string().contains("boom"));
        let decode = CliError::decode("p.twpf", std::io::Error::other("bad bytes"));
        assert!(decode.source().unwrap().to_string().contains("bad bytes"));
        assert!(CliError::Usage("u".into()).source().is_none());
    }

    #[test]
    fn locked_names_the_holding_process() {
        let locked = CliError::Locked {
            path: "results/.lock".into(),
            pid: 4242,
        };
        let text = locked.to_string();
        assert!(text.contains("results/.lock"), "{text}");
        assert!(text.contains("4242"), "{text}");
        assert!(locked.source().is_none());
    }
}
