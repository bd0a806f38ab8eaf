use cumulo_benchmark::{alloc_count, diff, report, run, workload};
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;

const USAGE: &str = "\
usage: cumulo-benchmark [--workload W] [--seed N] [--seconds T] [--trace 0|1]
       cumulo-benchmark diff A B
       cumulo-benchmark selfcheck [--workload W] [--seed N] [--seconds T] [--trace 0|1]

Runs every workload (or W), prints each metric as `name value unit`, runs the
correctness audits and writes BENCH_<workload>.json (and, traced,
TRACE_<workload>.json) under benchmark/out/. Exits non-zero on an audit failure.
  --seed N      workload seed; repetitions use N, N+1, N+2            [1]
  --seconds T   host seconds to spend per workload (at least one
                repetition per seed is always run)                    [10]
  --trace 0|1   also run the traced repetition (per-layer ledger)     [1]
  diff A B      delta table between two result directories, bounds applied
  selfcheck     run twice; simulated results must repeat exactly";

struct Cli {
    opts: run::Options,
    /// `--workload` was given: end with the harness contract's JSON line.
    single: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut opts = run::Options {
        workloads: workload::all(),
        seed: 1,
        seconds: 10.0,
        traced: true,
    };
    let mut single = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                opts.workloads = vec![workload::by_name(value).ok_or_else(bad)?];
                single = true;
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite())
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Cli { opts, single })
}

/// Runs the benchmark and writes its result files into `dir`.
fn run_into(cli: &Cli, dir: &Path) -> Result<Vec<run::WorkloadResult>, String> {
    let results = run::run(&cli.opts, dir)?;
    for res in &results {
        report::write_bench(dir, res).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    Ok(results)
}

fn all_correct(results: &[run::WorkloadResult]) -> bool {
    results.iter().all(run::WorkloadResult::correct)
}

fn benchmark(cli: &Cli) -> Result<bool, String> {
    let results = run_into(cli, &report::out_dir())?;
    results.iter().for_each(report::print_table);
    if cli.single {
        println!("{}", report::contract_line(&results[0], cli.opts.traced));
    }
    Ok(all_correct(&results))
}

/// Runs the benchmark twice and compares the two result directories
/// strictly. Every repetition is a process of its own, so hash seeds
/// differ between the two runs as they do between any two repetitions.
fn selfcheck(cli: &Cli) -> Result<bool, String> {
    let base = report::out_dir().join("selfcheck");
    let (a, b) = (base.join("a"), base.join("b"));
    let correct = all_correct(&run_into(cli, &a)?) & all_correct(&run_into(cli, &b)?);
    Ok(correct & diff::same_code(&diff::load(&a)?, &diff::load(&b)?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("diff") => match &args[1..] {
            [a, b] => diff::load(Path::new(a))
                .and_then(|a| Ok((a, diff::load(Path::new(b))?)))
                .map(|(a, b)| !diff::diff(&a, &b)),
            _ => Err("diff takes two result directories".to_owned()),
        },
        Some("selfcheck") => parse(&args[1..]).and_then(|cli| selfcheck(&cli)),
        // Internal: one repetition, as `run::spawn_rep` invokes it.
        Some("rep") => run::rep_main(&args[1..]).map(|()| true),
        _ => parse(&args).and_then(|cli| benchmark(&cli)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
