//! `perfbench --workload <batch-knn|serve-sharded|build-ood> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints provenance, checks and detail lines, then one JSON object as
//! the last line of standard output. Exits 1 if any check or operation
//! failed, 2 on bad arguments.

use perfbench::{batch_knn, build_ood, serve_sharded, sys, Args};
use std::time::Duration;

const USAGE: &str =
    "usage: perfbench --workload <batch-knn|serve-sharded|build-ood> --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600]: {value}"));
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "batch-knn" => batch_knn::run(&args),
        "serve-sharded" => serve_sharded::run(&args),
        "build-ood" => build_ood::run(&args),
        w => {
            eprintln!("unknown workload {w}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for (k, v) in sys::provenance(args.seed, &args.workload) {
        println!("# provenance {k} = {v}");
    }
    for (name, ok, detail) in &report.checks {
        println!(
            "# check {} {name}: {detail}",
            if *ok { "ok  " } else { "FAIL" }
        );
    }
    for m in report.details.iter().chain(&report.metrics) {
        println!("# {} = {:.6} {} {}", m.name, m.value, m.unit, m.note);
    }
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}
