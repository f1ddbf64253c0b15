//! Shared command-line parsing for the figure binaries.
//!
//! Every binary accepts the same flags — there is exactly one parser,
//! so they cannot drift:
//!
//! * `--seed <u64>` — override the sweep's master seed (default: the
//!   binary's published seed, so bare runs reproduce the committed
//!   artifacts);
//! * `--threads <n>` — cap the sweep's worker threads (default: all
//!   hardware threads; results are byte-identical at any value; `0` is
//!   a usage error). A matrix-free solve of 2¹³ masks or more
//!   (`rbmarkov::matfree`) also splits its forward passes across up to
//!   `available_parallelism()` short-lived threads of its own, on top of
//!   the cap;
//! * `--out <dir>` — redirect the JSON artifacts (threaded explicitly
//!   through [`BenchArgs::emit_json`]; the parser never mutates the
//!   process environment);
//! * `--cache <dir>` — route the sweep through the content-addressed
//!   result cache at `<dir>` ([`crate::cache`] via
//!   [`crate::sweep::SweepSpec::run_cached`]): cells already stored
//!   under `(label, params, seed)` skip their solves, freshly solved
//!   cells are appended, and the emitted artifact is byte-identical
//!   either way — so re-running a killed binary with the same `--cache`
//!   resumes it;
//! * `--cache-hot <n>` — capacity of the cache's in-memory hot tier of
//!   decoded reports (`0` disables it; requires `--cache`);
//! * `--compact` — after a cached run, compact the cache WAL
//!   ([`crate::cache::ResultCache::compact`]): duplicate frames are
//!   dropped and the file shrinks, lookups are byte-identical before
//!   and after (requires `--cache`);
//! * `--adaptive <budget>` — for binaries with an adaptive-refinement
//!   mode ([`crate::adaptive::AdaptiveSpec`]): refine the sweep axis
//!   under a global cell budget of `budget` (at least 1; binaries
//!   without the mode reject the flag themselves);
//! * `--splitting <trials>` — for binaries with a rare-event mode:
//!   trials per multilevel-splitting level
//!   (`rbsim::splitting`; at least 1).
//!
//! ```no_run
//! let args = rbbench::cli::BenchArgs::parse("table1");
//! let master = args.master_seed(1983);
//! let threads = args.threads();
//! ```

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use rbsim::par::available_threads;

use crate::cache::ResultCache;
use crate::sweep::{SweepReport, SweepSpec};

/// Parsed common flags of a figure binary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--seed`: master-seed override.
    pub seed: Option<u64>,
    /// `--threads`: worker-thread cap.
    pub threads: Option<usize>,
    /// `--out`: artifact directory override.
    pub out: Option<PathBuf>,
    /// `--cache`: directory of the content-addressed result cache.
    pub cache: Option<PathBuf>,
    /// `--cache-hot`: hot-tier capacity (decoded reports in memory).
    pub cache_hot: Option<usize>,
    /// `--compact`: compact the cache WAL after a cached run.
    pub compact: bool,
    /// `--adaptive`: global cell budget for adaptive grid refinement.
    pub adaptive: Option<usize>,
    /// `--splitting`: trials per multilevel-splitting level.
    pub splitting: Option<usize>,
}

impl BenchArgs {
    /// Parses `std::env::args`.
    ///
    /// Prints usage and exits 0 on `--help`/`-h`; prints the error and
    /// exits 2 on a malformed or unknown argument.
    pub fn parse(bin: &str) -> BenchArgs {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(ParseError::Help) => {
                println!("{}", Self::usage(bin));
                std::process::exit(0);
            }
            Err(ParseError::Invalid(msg)) => {
                eprintln!("error: {msg} (try --help)");
                std::process::exit(2);
            }
        }
    }

    /// The usage text printed for `--help`.
    pub fn usage(bin: &str) -> String {
        format!(
            "usage: {bin} [--seed <u64>] [--threads <n>] [--out <dir>]\n\
             \x20          [--cache <dir>] [--cache-hot <n>] [--compact]\n\
             \x20          [--adaptive <budget>] [--splitting <trials>]\n\
             \n\
             --seed <u64>    master seed for the sweep (default: the binary's\n\
             \x20               published seed; per-cell seeds derive from it)\n\
             --threads <n>   worker threads for the sweep, at least 1 (default:\n\
             \x20               all cores; output is byte-identical at any value);\n\
             \x20               large matrix-free solves add threads of their own\n\
             --out <dir>     directory for JSON artifacts (default: results/,\n\
             \x20               or RB_RESULTS_DIR)\n\
             --cache <dir>   serve repeated cells from the content-addressed\n\
             \x20               result cache at <dir> (and store fresh solves);\n\
             \x20               the artifact is byte-identical either way, so a\n\
             \x20               killed run resumes by re-running with the same\n\
             \x20               <dir> (one process per <dir> at a time)\n\
             --cache-hot <n> keep up to <n> decoded reports in the cache's\n\
             \x20               in-memory hot tier (0 disables; requires --cache)\n\
             --compact       compact the cache WAL after the run: duplicate\n\
             \x20               frames are dropped, lookups are unchanged\n\
             \x20               (requires --cache)\n\
             --adaptive <budget>\n\
             \x20               refine the sweep axis adaptively under a global\n\
             \x20               cell budget (binaries with a refinement mode)\n\
             --splitting <trials>\n\
             \x20               trials per multilevel-splitting level (binaries\n\
             \x20               with a rare-event mode)"
        )
    }

    /// Parses an explicit argument list (testable core of [`Self::parse`]).
    pub fn parse_from(args: impl Iterator<Item = String>) -> Result<BenchArgs, ParseError> {
        let mut out = BenchArgs::default();
        let mut args = args;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(ParseError::Help),
                "--seed" => out.seed = Some(Self::value(&arg, args.next())?),
                "--threads" => {
                    let t: usize = Self::value(&arg, args.next())?;
                    if t == 0 {
                        return Err(ParseError::Invalid("--threads must be at least 1".into()));
                    }
                    out.threads = Some(t);
                }
                "--out" => out.out = Some(Self::dir(&arg, args.next())?),
                "--cache" => out.cache = Some(Self::dir(&arg, args.next())?),
                "--cache-hot" => out.cache_hot = Some(Self::value(&arg, args.next())?),
                "--compact" => out.compact = true,
                "--adaptive" => {
                    out.adaptive = Some(Self::positive(&arg, args.next(), "a cell budget")?)
                }
                "--splitting" => {
                    out.splitting = Some(Self::positive(&arg, args.next(), "a trial count")?)
                }
                other => return Err(ParseError::Invalid(format!("unknown argument `{other}`"))),
            }
        }
        if out.cache.is_none() {
            if out.cache_hot.is_some() {
                return Err(ParseError::Invalid(
                    "--cache-hot requires --cache (it sizes the cache's hot tier)".into(),
                ));
            }
            if out.compact {
                return Err(ParseError::Invalid(
                    "--compact requires --cache (it rewrites the cache's WAL)".into(),
                ));
            }
        }
        Ok(out)
    }

    fn value<T: std::str::FromStr>(flag: &str, raw: Option<String>) -> Result<T, ParseError> {
        match raw.as_deref().map(str::parse) {
            Some(Ok(v)) => Ok(v),
            Some(Err(_)) => Err(ParseError::Invalid(format!(
                "invalid value for {flag}: `{}`",
                raw.unwrap()
            ))),
            None => Err(ParseError::Invalid(format!("{flag} requires a value"))),
        }
    }

    fn positive(flag: &str, raw: Option<String>, what: &str) -> Result<usize, ParseError> {
        let v: usize = Self::value(flag, raw)?;
        if v == 0 {
            return Err(ParseError::Invalid(format!(
                "{flag} requires {what} of at least 1"
            )));
        }
        Ok(v)
    }

    fn dir(flag: &str, raw: Option<String>) -> Result<PathBuf, ParseError> {
        match raw {
            Some(dir) if !dir.is_empty() => Ok(PathBuf::from(dir)),
            _ => Err(ParseError::Invalid(format!("{flag} requires a directory"))),
        }
    }

    /// The master seed: the `--seed` override or the binary's default.
    pub fn master_seed(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// The worker-thread count: the `--threads` override or every
    /// available hardware thread.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(available_threads)
    }

    /// The `--out` artifact directory, if given.
    pub fn out_dir(&self) -> Option<&Path> {
        self.out.as_deref()
    }

    /// Opens the `--cache` store with its `--cache-hot` tier, or `None`
    /// without `--cache`. A cache that cannot be used (refused
    /// corruption, I/O failure) prints its error and exits 2 —
    /// binaries have no recovery path.
    pub fn open_cache(&self) -> Option<Mutex<ResultCache>> {
        let dir = self.cache.as_ref()?;
        match ResultCache::open(dir) {
            Ok(mut cache) => {
                if let Some(hot) = self.cache_hot {
                    cache.set_hot_capacity(hot);
                }
                Some(Mutex::new(cache))
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Runs a sweep honouring the shared flags: plain
    /// [`SweepSpec::run`] without `--cache`, cache-routed
    /// ([`SweepSpec::run_cached`]) with it — hit/miss counts are
    /// reported on stderr, `--compact` compacts the WAL afterwards, and
    /// the artifact is byte-identical either way.
    pub fn run_sweep(&self, spec: &SweepSpec) -> SweepReport {
        let Some(cache) = self.open_cache() else {
            return spec.run(self.threads());
        };
        let out = spec.run_cached(self.threads(), &cache);
        eprintln!(
            "[cache] {}: {} hits, {} misses, {} uncacheable",
            spec.name, out.hits, out.misses, out.uncacheable
        );
        if self.compact {
            let mut cache = cache
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match cache.compact() {
                Ok(stats) => eprintln!(
                    "[cache] {}: compacted {} -> {} bytes ({} entries)",
                    spec.name, stats.bytes_before, stats.bytes_after, stats.entries
                ),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            }
        }
        out.report
    }

    /// Writes an artifact honouring `--out` ([`crate::emit_json_in`]).
    pub fn emit_json<T: serde::Serialize>(&self, name: &str, value: &T) -> PathBuf {
        crate::emit_json_in(self.out_dir(), name, value)
    }
}

/// Why parsing stopped: an explicit help request, or a malformed /
/// unknown argument with its message.
#[derive(Debug)]
pub enum ParseError {
    /// `--help`/`-h` was present.
    Help,
    /// Malformed or unknown argument.
    Invalid(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, ParseError> {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    fn invalid(args: &[&str]) -> String {
        match parse(args) {
            Err(ParseError::Invalid(msg)) => msg,
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn empty_args_use_defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, BenchArgs::default());
        assert_eq!(a.master_seed(1983), 1983);
        assert!(a.threads() >= 1);
        assert!(a.out_dir().is_none());
    }

    #[test]
    fn all_flags_parse() {
        let a = parse(&[
            "--seed",
            "42",
            "--threads",
            "3",
            "--out",
            "/tmp/x",
            "--cache",
            "/tmp/c",
            "--adaptive",
            "128",
            "--splitting",
            "4096",
        ])
        .unwrap();
        assert_eq!(a.seed, Some(42));
        assert_eq!(a.threads, Some(3));
        assert_eq!(a.out_dir(), Some(Path::new("/tmp/x")));
        assert_eq!(a.master_seed(1983), 42);
        assert_eq!(a.threads(), 3);
        assert_eq!(a.cache, Some(PathBuf::from("/tmp/c")));
        assert_eq!(a.adaptive, Some(128));
        assert_eq!(a.splitting, Some(4096));
    }

    #[test]
    fn cache_lifecycle_flags_require_the_cache() {
        let a = parse(&["--cache", "/tmp/c", "--cache-hot", "8", "--compact"]).unwrap();
        assert_eq!(a.cache_hot, Some(8));
        assert!(a.compact);
        // `--cache-hot 0` is a valid way to disable the hot tier.
        assert_eq!(
            parse(&["--cache", "/tmp/c", "--cache-hot", "0"])
                .unwrap()
                .cache_hot,
            Some(0)
        );
        assert!(invalid(&["--cache-hot", "8"]).contains("requires --cache"));
        assert!(invalid(&["--compact"]).contains("requires --cache"));
        assert!(invalid(&["--cache", "/tmp/c", "--cache-hot", "x"]).contains("invalid value"));
    }

    #[test]
    fn help_is_signalled_not_fatal() {
        assert!(matches!(parse(&["--help"]), Err(ParseError::Help)));
        assert!(matches!(
            parse(&["--seed", "1", "-h"]),
            Err(ParseError::Help)
        ));
    }

    #[test]
    fn zero_threads_is_a_usage_error() {
        assert!(invalid(&["--threads", "0"]).contains("at least 1"));
    }

    #[test]
    fn zero_budget_or_trials_are_usage_errors() {
        assert!(invalid(&["--adaptive", "0"]).contains("at least 1"));
        assert!(invalid(&["--splitting", "0"]).contains("at least 1"));
        assert!(invalid(&["--adaptive", "-3"]).contains("invalid value"));
        assert!(invalid(&["--splitting"]).contains("requires a value"));
    }

    #[test]
    fn malformed_arguments_are_reported_not_panicked() {
        assert!(invalid(&["--seed"]).contains("requires a value"));
        assert!(invalid(&["--seed", "abc"]).contains("invalid value"));
        assert!(invalid(&["--out"]).contains("requires a directory"));
        assert!(invalid(&["--cache", ""]).contains("requires a directory"));
        assert!(invalid(&["--frobnicate"]).contains("unknown argument"));
    }

    #[test]
    fn usage_names_every_flag() {
        let u = BenchArgs::usage("table1");
        for flag in [
            "--seed",
            "--threads",
            "--out",
            "--cache",
            "--cache-hot",
            "--compact",
            "--adaptive",
            "--splitting",
        ] {
            assert!(u.contains(flag), "usage lost {flag}");
        }
        assert!(u.starts_with("usage: table1"));
    }
}
