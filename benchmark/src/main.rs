//! `trajectory` — the repository's benchmark: four workloads, nine
//! end-to-end metrics, and a traced pass that replays every op layer by
//! layer. See README.md.

mod archive;
mod codec_rs;
mod compare;
mod gen;
mod host;
mod json;
mod layers;
mod metrics;
mod run;
mod stats;
mod store;
mod workload;

use json::Json;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  trajectory --workload <codec_rs|archive|store_large|store_small>
             [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--spans FILE]
  trajectory --compare A.json B.json
  trajectory --smoke";

enum Command {
    Run {
        opts: run::Options,
        out: Option<PathBuf>,
        spans: Option<PathBuf>,
    },
    Compare(PathBuf, PathBuf),
    Smoke,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut opts = run::Options {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        cycles: None,
    };
    let (mut out, mut spans) = (None, None);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => opts.workload = value("a name")?,
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value("a file")?)),
            "--spans" => spans = Some(PathBuf::from(value("a file")?)),
            "--compare" => {
                return Ok(Command::Compare(
                    value("two files")?.into(),
                    value("two files")?.into(),
                ))
            }
            "--smoke" => return Ok(Command::Smoke),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !metrics::WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}",
            metrics::WORKLOADS
        ));
    }
    Ok(Command::Run { opts, out, spans })
}

/// Append `record` to the JSON array in `path` (one record per line).
fn append_record(path: &Path, record: &Json) -> std::io::Result<()> {
    let line = record.render();
    let text = match std::fs::read_to_string(path) {
        Ok(old) => match old.trim_end().strip_suffix(']') {
            Some(body) if body.trim() != "[" => format!("{},\n{line}\n]\n", body.trim_end()),
            _ => format!("[\n{line}\n]\n"),
        },
        Err(_) => format!("[\n{line}\n]\n"),
    };
    std::fs::write(path, text)
}

fn write_spans(path: &Path, spans: &[run::Span]) -> std::io::Result<()> {
    let items = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cycle", Json::Num(f64::from(s.cycle))),
                ("parent", Json::Num(s.parent as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ])
            .render()
        })
        .collect::<Vec<_>>();
    std::fs::write(path, format!("[\n{}\n]\n", items.join(",\n")))
}

fn run_one(opts: &run::Options, out: Option<&Path>, spans: Option<&Path>) -> ExitCode {
    let outcome = run::run(opts);
    println!(
        "workload {}  seed {}  trace {}  cycles {}  ops attempted {}  failed {}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        outcome.cycles,
        outcome.tally.attempted,
        outcome.tally.failed
    );
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<42} {value:>16.4} {unit}");
    }
    if let Some(path) = out {
        let tools = vec![
            (
                "rustc".to_string(),
                Json::str(host::tool_line("rustc", &["--version"])),
            ),
            (
                "commit".to_string(),
                Json::str(host::tool_line("git", &["rev-parse", "HEAD"])),
            ),
        ];
        if let Err(e) = append_record(path, &outcome.record(tools)) {
            eprintln!("trajectory: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = spans {
        if let Err(e) = write_spans(path, &outcome.spans) {
            eprintln!("trajectory: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", outcome.result_line().render());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Ten cycles of every workload, untraced and traced: every declared
/// metric is present, finite and positive, and no op fails.
fn smoke() -> Result<(), String> {
    for workload in metrics::WORKLOADS {
        for trace in [false, true] {
            let opts = run::Options {
                workload: workload.into(),
                seed: 1,
                seconds: 1.0,
                trace,
                cycles: Some(10),
            };
            let outcome = run::run(&opts);
            if outcome.tally.failed != 0 || outcome.tally.attempted == 0 {
                return Err(format!("{workload}: {:?}", outcome.tally));
            }
            let declared: Vec<String> = if trace {
                metrics::per_layer().into_iter().map(|(n, _)| n).collect()
            } else {
                metrics::end_to_end().into_iter().map(|m| m.name).collect()
            };
            let reported: Vec<&String> = outcome.metrics.iter().map(|(n, _, _)| n).collect();
            if reported != declared.iter().collect::<Vec<_>>() {
                return Err(format!(
                    "{workload}: reported {reported:?}, declared {declared:?}"
                ));
            }
            for (name, value, _) in &outcome.metrics {
                // Shares and differences may be zero or below; rates,
                // times and counts of work done may not.
                let signed = name.starts_with("share.")
                    || name.ends_with("_pct")
                    || name == "store.put_round_overhead_ms"
                    || name == "store.scrub_payload_bytes_read_count";
                if !value.is_finite() || (!signed && *value <= 0.0) {
                    return Err(format!("{workload}: {name} = {value}"));
                }
            }
            println!(
                "smoke {workload} trace={} ok ({} metrics)",
                u8::from(trace),
                outcome.metrics.len()
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    host::scrub_environment();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(e) => {
            eprintln!("trajectory: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::Run { opts, out, spans }) => run_one(&opts, out.as_deref(), spans.as_deref()),
        Ok(Command::Compare(a, b)) => match compare::compare(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("trajectory: {e}");
                ExitCode::from(2)
            }
        },
        Ok(Command::Smoke) => match smoke() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("trajectory: smoke failed: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
