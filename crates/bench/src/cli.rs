//! Entry points for the `bench_baseline` and `bench_gate` binaries.
//!
//! The logic lives here (rather than in the `src/bin/` shims) so the
//! root `metablade` package can expose the same binaries: both
//! `cargo run --release --bin bench_baseline` from the repo root and
//! `cargo run --release -p mb-bench --bin bench_baseline` work.

use std::path::PathBuf;
use std::process::ExitCode;

use mb_telemetry::artifact::host_threads;
use mb_telemetry::json::Json;

use crate::baseline::{cluster_baseline, treecode_baseline, SweepConfig};
use crate::gate::{compare_dirs, Tolerances};
use crate::write_artifact;

fn summarize(doc: &Json) {
    let suite = doc.get("suite").and_then(Json::as_str).unwrap_or("?");
    println!("{suite} suite:");
    for b in doc.get("benches").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = b.get("name").and_then(Json::as_str).unwrap_or("?");
        let ranks = b.get("ranks").and_then(Json::as_f64).unwrap_or(0.0);
        let identical = b.get("identical_across_policies") == Some(&Json::Bool(true));
        let seq = b
            .get("wall_s")
            .and_then(|w| w.get("seq"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let s8 = b
            .get("speedup_vs_seq")
            .and_then(|s| s.get("w8"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let eps = b
            .get("events_per_sec")
            .and_then(|e| e.get("w8"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        println!(
            "  {name:<18} P={ranks:<4.0} seq {seq:>8.3}s  w8 speedup {s8:>6.2}x  w8 {eps:>9.0} ev/s  identical={identical}"
        );
        assert!(
            identical,
            "{suite}/{name} outcomes diverged across policies"
        );
    }
}

const BASELINE_USAGE: &str = "\
bench_baseline: regenerate the executor and treecode benchmark baselines

USAGE:
    bench_baseline [n_bodies] [--smoke] [--ranks R1,R2,...] [--help]

OPTIONS:
    n_bodies        Plummer-sphere size for the treecode step (default 20000)
    --smoke         Seconds-scale CI sweep; writes BENCH_cluster_smoke.json
                    and BENCH_treecode_smoke.json
    --ranks LIST    Comma-separated rank counts for both suites (e.g. 128)
    -h, --help      Print this help and exit

Documents land in $MB_BENCH_DIR (default: the current directory). With
MB_PROF=1 a profiled rerun also writes PROF_cluster.prom and
prof_events.jsonl.";

/// What `bench_baseline`'s argv asks for.
#[derive(Debug)]
enum BaselineArgs {
    Run { cfg: SweepConfig, smoke: bool },
    Help,
}

/// Parse `bench_baseline`'s argv (without the program name); `Err`
/// names the offending argument.
fn parse_baseline_args(args: impl IntoIterator<Item = String>) -> Result<BaselineArgs, String> {
    let mut cfg = SweepConfig::default();
    let mut smoke = false;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => return Ok(BaselineArgs::Help),
            "--smoke" => {
                smoke = true;
                cfg = SweepConfig {
                    n_bodies: cfg.n_bodies.min(SweepConfig::smoke().n_bodies),
                    ..SweepConfig::smoke()
                };
            }
            "--ranks" => {
                let list = args.next().unwrap_or_default();
                let ranks: Option<Vec<usize>> = list
                    .split(',')
                    .map(|r| r.trim().parse().ok().filter(|&r: &usize| r > 0))
                    .collect();
                match ranks {
                    Some(ranks) => cfg = cfg.with_ranks(ranks),
                    None => {
                        return Err(format!("--ranks needs a list of rank counts, got '{list}'"))
                    }
                }
            }
            n => match n.parse::<usize>() {
                Ok(n_bodies) => cfg.n_bodies = n_bodies,
                Err(_) => return Err(format!("unknown argument '{n}'")),
            },
        }
    }
    Ok(BaselineArgs::Run { cfg, smoke })
}

/// `bench_baseline`: regenerate the BENCH documents (argv documented on
/// the binary). `--smoke` writes `BENCH_*_smoke.json`; with `MB_PROF=1`
/// a profiled rerun additionally writes `PROF_cluster.prom` and
/// `prof_events.jsonl`.
pub fn baseline_main() {
    let (cfg, smoke) = match parse_baseline_args(std::env::args().skip(1)) {
        Ok(BaselineArgs::Run { cfg, smoke }) => (cfg, smoke),
        Ok(BaselineArgs::Help) => {
            println!("{BASELINE_USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("bench_baseline: {e}\n\n{BASELINE_USAGE}");
            std::process::exit(2);
        }
    };
    let dir = std::env::var_os("MB_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    // Smoke runs get their own document names: a smoke sweep shares no
    // (name, ranks) records with the full sweep (round counts differ),
    // so gating it against the full baselines would compare nothing.
    // `BENCH_*_smoke.json` pairs a smoke run with the committed smoke
    // baselines instead — and never clobbers the full documents.
    let (cluster_name, treecode_name) = if smoke {
        ("BENCH_cluster_smoke.json", "BENCH_treecode_smoke.json")
    } else {
        ("BENCH_cluster.json", "BENCH_treecode.json")
    };
    println!(
        "benchmark baseline: host_threads = {}, cluster ranks {:?}, treecode ranks {:?}, N = {}\n",
        host_threads(),
        cfg.rank_counts,
        cfg.treecode_rank_counts,
        cfg.n_bodies
    );

    let cluster_doc = cluster_baseline(&cfg);
    summarize(&cluster_doc);
    let p = write_artifact(&dir, cluster_name, &cluster_doc.to_string())
        .unwrap_or_else(|e| panic!("write {cluster_name}: {e}"));
    println!("wrote {}\n", p.display());

    let tree_doc = treecode_baseline(&cfg);
    summarize(&tree_doc);
    let p = write_artifact(&dir, treecode_name, &tree_doc.to_string())
        .unwrap_or_else(|e| panic!("write {treecode_name}: {e}"));
    println!("wrote {}", p.display());

    // Per-link occupancy for the fat-tree sweep's largest case, as a
    // Chrome trace with one counter series per link (a CI artifact, not
    // a gated document — occupancy is derived data).
    let trace = crate::baseline::fat_tree_link_trace(&cfg);
    match write_artifact(&dir, "FATTREE_links.trace.json", &trace) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: could not write FATTREE_links.trace.json: {e}"),
    }

    // With MB_PROF=1, rerun one representative case with host-time
    // profiling and the structured event log attached (outside the
    // timed sweep — see `baseline::profiled_pass`), and leave the
    // Prometheus + JSONL captures next to the BENCH documents.
    if mb_telemetry::prof::enabled_from_env() {
        let (prom, jsonl) = crate::baseline::profiled_pass(&cfg);
        let p = write_artifact(&dir, "PROF_cluster.prom", &prom).expect("write PROF_cluster.prom");
        println!("wrote {}", p.display());
        let p = write_artifact(&dir, "prof_events.jsonl", &jsonl).expect("write prof_events.jsonl");
        println!("wrote {}", p.display());
    }
}

const GATE_USAGE: &str = "\
bench_gate: diff fresh BENCH documents against the committed baselines

USAGE:
    bench_gate [--smoke] [--baseline DIR] [--fresh DIR] [--tol-events F] [--help]

OPTIONS:
    --smoke         Widen the wall-clock bands for the seconds-scale smoke
                    sweep (hard checks are never relaxed)
    --baseline DIR  Where the committed baselines live (default: the
                    current directory)
    --fresh DIR     Where the fresh documents were written (default:
                    $MB_BENCH_DIR, else the current directory)
    --tol-events F  Allowed fractional events_per_sec drop (e.g. 0.3)
    -h, --help      Print this help and exit

Prints the report, writes <fresh>/bench_gate_report.txt and exits
nonzero on any violation.";

/// What `bench_gate`'s argv asks for.
#[derive(Debug)]
enum GateArgs {
    Run {
        baseline: PathBuf,
        fresh: PathBuf,
        tol: Tolerances,
    },
    Help,
}

/// Parse `bench_gate`'s argv (without the program name), with `fresh`
/// as the default fresh-document directory; `Err` names the offending
/// argument.
fn parse_gate_args(
    args: impl IntoIterator<Item = String>,
    mut fresh: PathBuf,
) -> Result<GateArgs, String> {
    let mut baseline = PathBuf::from(".");
    let mut tol = Tolerances::default();
    let mut tol_events = None;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => return Ok(GateArgs::Help),
            "--smoke" => tol = Tolerances::smoke(),
            "--baseline" | "--fresh" => {
                let dir = args
                    .next()
                    .ok_or_else(|| format!("{a} needs a directory"))?;
                if a == "--baseline" {
                    baseline = PathBuf::from(dir);
                } else {
                    fresh = PathBuf::from(dir);
                }
            }
            "--tol-events" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<f64>() {
                    Ok(f) if f.is_finite() && f >= 0.0 => tol_events = Some(f),
                    _ => {
                        return Err(format!(
                            "--tol-events needs a non-negative fraction, got '{v}'"
                        ))
                    }
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(f) = tol_events {
        tol.events_per_sec_drop = f;
    }
    Ok(GateArgs::Run {
        baseline,
        fresh,
        tol,
    })
}

/// `bench_gate`: diff fresh BENCH documents against the committed
/// baselines (argv documented on the binary); nonzero exit on
/// violation, exit 2 on a bad argument.
pub fn gate_main() -> ExitCode {
    let default_fresh = std::env::var_os("MB_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let (baseline, fresh, tol) = match parse_gate_args(std::env::args().skip(1), default_fresh) {
        Ok(GateArgs::Run {
            baseline,
            fresh,
            tol,
        }) => (baseline, fresh, tol),
        Ok(GateArgs::Help) => {
            println!("{GATE_USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("bench_gate: {e}\n\n{GATE_USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "bench_gate: baseline {} vs fresh {} (events_per_sec band {:.0}%)\n",
        baseline.display(),
        fresh.display(),
        tol.events_per_sec_drop * 100.0
    );
    let report = compare_dirs(&baseline, &fresh, &tol);
    let text = report.render();
    print!("{text}");
    match write_artifact(&fresh, "bench_gate_report.txt", &text) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: could not write bench_gate_report.txt: {e}"),
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BaselineArgs, String> {
        parse_baseline_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn baseline_help_and_bad_arguments_are_not_panics() {
        assert!(matches!(parse(&["--help"]), Ok(BaselineArgs::Help)));
        assert!(matches!(parse(&["--smoke", "-h"]), Ok(BaselineArgs::Help)));
        let err = parse(&["--bogus"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        assert!(parse(&["--ranks"]).is_err());
        assert!(parse(&["--ranks", "8,x"]).is_err());
        assert!(parse(&["--ranks", "0"]).is_err());
    }

    fn parse_gate(args: &[&str]) -> Result<GateArgs, String> {
        parse_gate_args(args.iter().map(|a| a.to_string()), PathBuf::from("fresh"))
    }

    #[test]
    fn gate_help_and_bad_arguments_are_not_panics() {
        assert!(matches!(parse_gate(&["--help"]), Ok(GateArgs::Help)));
        assert!(matches!(parse_gate(&["--smoke", "-h"]), Ok(GateArgs::Help)));
        let err = parse_gate(&["--bogus"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        for missing in ["--baseline", "--fresh", "--tol-events"] {
            let err = parse_gate(&[missing]).unwrap_err();
            assert!(err.contains(missing), "{err}");
        }
        for bad in ["x", "-0.1", "NaN", "inf"] {
            let err = parse_gate(&["--tol-events", bad]).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn gate_arguments_shape_the_comparison() {
        let Ok(GateArgs::Run {
            baseline,
            fresh,
            tol,
        }) = parse_gate(&[])
        else {
            panic!("no arguments must run the gate");
        };
        assert_eq!(baseline, PathBuf::from("."));
        assert_eq!(fresh, PathBuf::from("fresh"));
        assert_eq!(
            tol.events_per_sec_drop,
            Tolerances::default().events_per_sec_drop
        );
        let Ok(GateArgs::Run {
            baseline,
            fresh,
            tol,
        }) = parse_gate(&[
            "--tol-events",
            "0.3",
            "--smoke",
            "--baseline",
            "b",
            "--fresh",
            "f",
        ])
        else {
            panic!("full argv rejected");
        };
        assert_eq!(baseline, PathBuf::from("b"));
        assert_eq!(fresh, PathBuf::from("f"));
        // The explicit band wins over --smoke's, whatever the order.
        assert_eq!(tol.events_per_sec_drop, 0.3);
        assert_eq!(tol.gflops_drop, Tolerances::smoke().gflops_drop);
    }

    #[test]
    fn baseline_arguments_shape_the_sweep() {
        let Ok(BaselineArgs::Run { cfg, smoke }) = parse(&[]) else {
            panic!("no arguments must run the full sweep");
        };
        assert!(!smoke);
        assert_eq!(cfg.n_bodies, SweepConfig::default().n_bodies);
        let Ok(BaselineArgs::Run { cfg, smoke }) = parse(&["--smoke", "--ranks", "128"]) else {
            panic!("smoke sweep rejected");
        };
        assert!(smoke);
        assert_eq!(cfg.rank_counts, vec![128]);
        assert_eq!(cfg.treecode_rank_counts, vec![128]);
        assert_eq!(cfg.rounds, SweepConfig::smoke().rounds);
        let Ok(BaselineArgs::Run { cfg, .. }) = parse(&["5000"]) else {
            panic!("body count rejected");
        };
        assert_eq!(cfg.n_bodies, 5000);
    }
}
