//! `twig` — the command-line toolkit for the Twig reproduction.
//!
//! Mirrors how the real tool chain would be operated in production:
//! workloads, traces, profiles, and plans are files; each pipeline stage is
//! a subcommand. Run `twig help` for usage.
//!
//! Exit codes: 0 success, 2 usage error, 3 I/O failure, 4 undecodable
//! artifact, 5 semantically invalid input, 6 output directory locked by
//! another live run (see [`error::CliError`]).

/// `print!` through [`io::write_stdout`]: a closed stdout ends the output.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::io::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`io::write_stdout`]: a closed stdout ends the output.
macro_rules! outln {
    () => {
        $crate::io::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::io::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod commands;
mod error;
mod fleet;
mod io;
mod report;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match commands::dispatch(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("twig: {e}");
            let mut source = std::error::Error::source(&e);
            while let Some(cause) = source {
                eprintln!("twig:   caused by: {cause}");
                source = cause.source();
            }
            e.exit_code()
        }
    };
    std::process::exit(code);
}
