//! Uniform command-line handling for the regenerator binaries.
//!
//! Every binary in `src/bin/` accepts the same flags:
//!
//! * `--seed N` — RNG seed (default [`crate::default_seed`], i.e. the
//!   `CHARM_SEED` environment variable or the built-in constant);
//! * `--shards N` — shard count for the shard-invariant experiments;
//!   exported as `CHARM_SHARDS` so `Study::auto_shards` picks it up
//!   everywhere downstream;
//! * `--out DIR` — results directory; exported as `CHARM_RESULTS_DIR`
//!   so [`crate::results_dir`] honours it;
//! * `--obs-jsonl` — also write observability reports (counters +
//!   provenance events, JSON Lines) next to the CSV artifacts;
//! * `--quick` — reduced plan sizes for smoke runs (CI uses this);
//! * `--profile` — print a wall-clock self-profile of the engine and
//!   analysis passes when the run finishes;
//! * `--trace-out PATH` — write a Chrome/Perfetto `trace.json` rendering
//!   wall-time engine spans and virtual-time experiment events as two
//!   separate process tracks (see `charm_trace::chrome`);
//! * `--store DIR` — archive the campaign into a `charm_store` store at
//!   `DIR`, flushing shard checkpoints as they complete; a campaign the
//!   store already archives is replayed, and an interrupted one resumes
//!   from its checkpoints (the run ID is derived, never given);
//! * `--benchmark PATH` — run from a declarative benchmark spec
//!   (`benchmarks/*.toml`, DESIGN.md §15) instead of built-in
//!   plan-building;
//! * `--param NAME=VALUE` — override a `[params]` entry of the spec
//!   (repeatable; only meaningful with `--benchmark`);
//! * `--help` — print usage.
//!
//! Positional arguments (e.g. `run_campaign`'s plan file and platform)
//! pass through in [`CommonArgs::rest`].

/// The flags shared by all regenerator binaries, parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommonArgs {
    /// RNG seed (`--seed N`).
    pub seed: u64,
    /// Shard count override (`--shards N`), when given.
    pub shards: Option<usize>,
    /// Whether to write observability JSONL artifacts (`--obs-jsonl`).
    pub obs_jsonl: bool,
    /// Whether to shrink plans for a smoke run (`--quick`).
    pub quick: bool,
    /// Whether to print the wall-clock self-profile (`--profile`).
    pub profile: bool,
    /// Where to write the dual-clock Chrome/Perfetto trace
    /// (`--trace-out PATH`), when given.
    pub trace_out: Option<String>,
    /// Campaign store directory (`--store DIR`), when given.
    pub store: Option<String>,
    /// Benchmark spec file (`--benchmark PATH`), when given.
    pub benchmark: Option<String>,
    /// Spec parameter overrides (`--param NAME=VALUE`, repeatable).
    pub params: Vec<(String, String)>,
    /// Positional arguments, in order.
    pub rest: Vec<String>,
}

impl CommonArgs {
    /// Parses `std::env::args()`, applies the environment side effects
    /// (`CHARM_SHARDS`, `CHARM_RESULTS_DIR`), and exits with the usage
    /// text on `--help` or a malformed flag. `extra_usage` documents the
    /// binary's positional arguments (empty when it has none).
    pub fn parse(extra_usage: &str) -> CommonArgs {
        let bin = std::env::args().next().unwrap_or_else(|| "bin".into());
        match Self::try_parse(std::env::args().skip(1), crate::default_seed()) {
            Ok((args, out_dir)) => {
                if let Some(n) = args.shards {
                    std::env::set_var("CHARM_SHARDS", n.to_string());
                }
                if let Some(dir) = out_dir {
                    std::env::set_var("CHARM_RESULTS_DIR", dir);
                }
                args
            }
            Err(Exit::Help) => {
                println!("{}", usage(&bin, extra_usage));
                std::process::exit(0);
            }
            Err(Exit::Error) => {
                eprintln!("{}", usage(&bin, extra_usage));
                std::process::exit(2);
            }
        }
    }

    /// Pure parser (no environment side effects): returns the parsed
    /// args and the `--out` value, or an [`Exit`] reason when usage
    /// should be printed instead. Split out for tests.
    pub fn try_parse(
        argv: impl IntoIterator<Item = String>,
        default_seed: u64,
    ) -> Result<(CommonArgs, Option<String>), Exit> {
        let mut args = CommonArgs {
            seed: default_seed,
            shards: None,
            obs_jsonl: false,
            quick: false,
            profile: false,
            trace_out: None,
            store: None,
            benchmark: None,
            params: Vec::new(),
            rest: Vec::new(),
        };
        let mut out_dir = None;
        let mut argv = argv.into_iter();
        while let Some(a) = argv.next() {
            match a.as_str() {
                "--seed" => args.seed = value_of("--seed", argv.next())?,
                "--shards" => {
                    let n: usize = value_of("--shards", argv.next())?;
                    if n == 0 {
                        eprintln!("--shards needs a positive integer");
                        return Err(Exit::Error);
                    }
                    args.shards = Some(n);
                }
                "--out" => match argv.next() {
                    Some(dir) => out_dir = Some(dir),
                    None => {
                        eprintln!("--out needs a directory");
                        return Err(Exit::Error);
                    }
                },
                "--obs-jsonl" => args.obs_jsonl = true,
                "--quick" => args.quick = true,
                "--profile" => args.profile = true,
                "--trace-out" => match argv.next() {
                    Some(path) => args.trace_out = Some(path),
                    None => {
                        eprintln!("--trace-out needs a file path");
                        return Err(Exit::Error);
                    }
                },
                "--store" => match argv.next() {
                    Some(dir) => args.store = Some(dir),
                    None => {
                        eprintln!("--store needs a directory");
                        return Err(Exit::Error);
                    }
                },
                "--benchmark" => match argv.next() {
                    Some(path) => args.benchmark = Some(path),
                    None => {
                        eprintln!("--benchmark needs a spec file path");
                        return Err(Exit::Error);
                    }
                },
                "--param" => {
                    match argv.next().as_deref().and_then(|kv| {
                        kv.split_once('=').map(|(k, v)| (k.to_string(), v.to_string()))
                    }) {
                        Some((k, v)) if !k.is_empty() => args.params.push((k, v)),
                        _ => {
                            eprintln!("--param needs NAME=VALUE");
                            return Err(Exit::Error);
                        }
                    }
                }
                "--help" | "-h" => return Err(Exit::Help),
                flag if flag.starts_with("--") => {
                    eprintln!("unknown flag {flag}");
                    return Err(Exit::Error);
                }
                _ => args.rest.push(a),
            }
        }
        Ok((args, out_dir))
    }
}

/// Why parsing stopped: the user asked for usage, or a flag was
/// malformed (usage goes to stderr, exit code 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// `--help` / `-h` was given.
    Help,
    /// A flag was unknown or had a bad value.
    Error,
}

fn value_of<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, Exit> {
    match v.and_then(|s| s.parse().ok()) {
        Some(n) => Ok(n),
        None => {
            eprintln!("{flag} needs a numeric value");
            Err(Exit::Error)
        }
    }
}

fn usage(bin: &str, extra: &str) -> String {
    let positional = if extra.is_empty() { String::new() } else { format!(" {extra}") };
    format!(
        "usage: {bin}{positional} [--seed N] [--shards N] [--out DIR]\n\
         \x20               [--obs-jsonl] [--quick] [--profile] [--trace-out PATH]\n\
         \x20               [--store DIR]\n\
         \x20               [--benchmark SPEC.toml] [--param NAME=VALUE]...\n\
         \n\
         --seed N        RNG seed (default CHARM_SEED or 20170529)\n\
         --shards N      shard count for shard-invariant campaigns (sets CHARM_SHARDS)\n\
         --out DIR       results directory (sets CHARM_RESULTS_DIR)\n\
         --obs-jsonl     also write observability reports as JSON Lines\n\
         --quick         reduced plans for smoke runs\n\
         --profile       print a wall-clock self-profile on exit\n\
         --trace-out PATH  write a dual-clock Chrome/Perfetto trace.json\n\
         --store DIR     archive the campaign (with shard checkpoints) into a store;\n\
         \x20               replay it if archived, resume it if interrupted\n\
         --benchmark SPEC.toml  run from a declarative benchmark spec (DESIGN.md par. 15)\n\
         --param NAME=VALUE  override a [params] entry of the spec (repeatable)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn defaults_without_flags() {
        let (args, out) = CommonArgs::try_parse(argv(&[]), 7).unwrap();
        assert_eq!(
            args,
            CommonArgs {
                seed: 7,
                shards: None,
                obs_jsonl: false,
                quick: false,
                profile: false,
                trace_out: None,
                store: None,
                benchmark: None,
                params: vec![],
                rest: vec![]
            }
        );
        assert_eq!(out, None);
    }

    #[test]
    fn all_flags_and_positionals() {
        let (args, out) = CommonArgs::try_parse(
            argv(&[
                "plan.dsl",
                "--seed",
                "42",
                "--shards",
                "4",
                "--out",
                "/tmp/r",
                "--obs-jsonl",
                "--quick",
                "--profile",
                "--trace-out",
                "/tmp/trace.json",
                "--store",
                "/tmp/store",
                "--benchmark",
                "benchmarks/fig04.toml",
                "--param",
                "n_sizes=30",
                "--param",
                "preset=myrinet",
                "taurus",
            ]),
            7,
        )
        .unwrap();
        assert_eq!(args.seed, 42);
        assert_eq!(args.shards, Some(4));
        assert!(args.obs_jsonl);
        assert!(args.quick);
        assert!(args.profile);
        assert_eq!(args.trace_out.as_deref(), Some("/tmp/trace.json"));
        assert_eq!(args.store.as_deref(), Some("/tmp/store"));
        assert_eq!(args.benchmark.as_deref(), Some("benchmarks/fig04.toml"));
        assert_eq!(
            args.params,
            vec![
                ("n_sizes".to_string(), "30".to_string()),
                ("preset".to_string(), "myrinet".to_string())
            ]
        );
        assert_eq!(args.rest, argv(&["plan.dsl", "taurus"]));
        assert_eq!(out.as_deref(), Some("/tmp/r"));
    }

    #[test]
    fn malformed_flags_ask_for_usage() {
        assert_eq!(CommonArgs::try_parse(argv(&["--seed"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--seed", "abc"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--shards", "0"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--trace-out"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--store"]), 1), Err(Exit::Error));
        // The run ID and the batch geometry are derived, never asked for.
        assert_eq!(CommonArgs::try_parse(argv(&["--resume", "0123"]), 1), Err(Exit::Error));
        assert_eq!(
            CommonArgs::try_parse(argv(&["--min-rows-per-shard", "1"]), 1),
            Err(Exit::Error)
        );
        assert_eq!(CommonArgs::try_parse(argv(&["--benchmark"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--param"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--param", "novalue"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--param", "=v"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--bogus"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--help"]), 1), Err(Exit::Help));
    }

    #[test]
    fn usage_names_every_flag() {
        let u = usage("fig10", "");
        for flag in [
            "--seed",
            "--shards",
            "--out",
            "--obs-jsonl",
            "--quick",
            "--profile",
            "--trace-out",
            "--store",
            "--benchmark",
            "--param",
        ] {
            assert!(u.contains(flag), "{flag} missing from usage");
        }
    }
}
