//! Command line of the benchmark.
//!
//! ```text
//! oceanstore-benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--small]
//! oceanstore-benchmark run --all [--trace 1] ... one fresh child process per workload
//! oceanstore-benchmark manifest                  prints BENCHMARK.json
//! ```
//!
//! A run prints every metric by name with unit and direction, then — as
//! the last line of standard output — one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. It exits non-zero on a wrong
//! answer.

use std::process::{Command, ExitCode};

use oceanstore_benchmark::registry::{self, Clock, MetricDef};
use oceanstore_benchmark::stats::Metrics;
use oceanstore_benchmark::{out_dir, result_json, run, RunArgs, RunResult};

struct Cli {
    args: RunArgs,
    all: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        args: RunArgs {
            workload: String::new(),
            seed: 11,
            seconds: f64::from(registry::RUN_SECONDS),
            trace: false,
            small: false,
        },
        all: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.args.workload = value("a name")?,
            "--all" => cli.all = true,
            "--small" => cli.args.small = true,
            "--seed" => {
                cli.args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cli.args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(cli.args.seconds > 0.0 && cli.args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if cli.all != cli.args.workload.is_empty() {
        return Err("give exactly one of --workload <name> and --all".into());
    }
    Ok(cli)
}

fn clock_name(c: Clock) -> &'static str {
    match c {
        Clock::Wall => "wall",
        Clock::Sim => "sim",
        Clock::Count => "count",
    }
}

fn print_table(title: &str, table: &'static [MetricDef], metrics: &Metrics) {
    println!("{title}");
    for (d, v) in metrics.table(table) {
        println!(
            "  {:<44} {:>16.4} {:<10} {} is better, {}",
            d.name,
            v,
            d.unit,
            d.better,
            clock_name(d.clock)
        );
    }
}

fn report(args: &RunArgs, r: &RunResult) -> std::io::Result<()> {
    println!(
        "workload {} seed {} units {} attempted {} failed {} correct {}",
        args.workload, args.seed, r.units, r.attempted, r.failed, r.correct
    );
    for v in &r.violations {
        println!("  WRONG ANSWER: {v}");
    }
    print_table(
        "end-to-end (bounded only when taken from an untraced run)",
        registry::END_TO_END,
        &r.end_to_end,
    );
    if let Some(m) = &r.per_layer {
        print_table("per-layer", registry::PER_LAYER, m);
    }
    let json = result_json(r);
    let suffix = if r.per_layer.is_some() {
        "layers.json"
    } else {
        "json"
    };
    std::fs::write(
        out_dir().join(format!("{}.{suffix}", args.workload)),
        format!("{json}\n"),
    )?;
    println!("{json}");
    Ok(())
}

/// Runs every workload in a fresh child process each, so peak memory is
/// per workload; with `--trace 1` each gets a traced pass after the
/// untraced one.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for (name, _) in registry::WORKLOADS {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args([
                "run",
                "--workload",
                name,
                "--trace",
                if trace { "1" } else { "0" },
            ]);
            cmd.args([
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
            ]);
            if args.small {
                cmd.arg("--small");
            }
            // `status` waits for the child to end.
            let status = cmd.status().map_err(|e| format!("spawning {name}: {e}"))?;
            all_ok &= status.success();
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    // Memory blob stores everywhere: disk noise stays out of the numbers.
    std::env::remove_var("OCEANSTORE_STORE_BACKEND");
    let mut argv = std::env::args().skip(1);
    let outcome = match argv.next().as_deref() {
        Some("manifest") => {
            print!("{}", registry::manifest());
            Ok(true)
        }
        Some("run") => parse(argv).and_then(|cli| {
            if cli.all {
                return run_all(&cli.args);
            }
            let result = run(&cli.args)?;
            report(&cli.args, &result).map_err(|e| format!("writing the report: {e}"))?;
            Ok(result.correct)
        }),
        _ => Err("usage: oceanstore-benchmark run (--workload <name> | --all) [--seed N] [--seconds S] [--trace 0|1] [--small]\n       oceanstore-benchmark manifest".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
